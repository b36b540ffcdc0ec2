"""Command line front end: run scenario files, replay stored traces.

Exit codes: 0 for a verified, violation-free run; 1 when the audit finds
violations, a stored digest does not match, or a replay diverges; 2 for
unusable input (parse errors, missing or non-UTF-8 files) and for an
output directory that cannot be written.  A reader that closes standard
output early changes none of these.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import gc
import hashlib
import marshal
import os
import sys
from pathlib import Path
from typing import NoReturn

from . import scenario as scenario_mod
from .agents import run_scenario
from .analysis import (AuditReport, SignalParams, Violation, _Auditor, audit_trace,
                       signaling_advantage)
from .errors import DigestMismatch, IcoError, ParseError
from .trace import Trace, block_bytes, parse_trace


def _summary(name: str, spec, sale, digest: str, report, out_path) -> list[str]:
    cfg = spec.config
    lines = [
        f"scenario: {name}",
        f"stages: 0..{cfg.u} (lock at {cfg.t}, granularity {cfg.granularity})",
        f"final valuation: {sale.final_V}",
        f"proceeds: {sale.proceeds}",
    ]
    blackout = [d for d in spec.strategies if d.kind == "blackout"]
    reactive = [d for d in spec.strategies if d.kind == "reactive"]
    if len(blackout) == 1 and len(reactive) == 1:
        try:
            predicted = signaling_advantage(SignalParams(
                cfg.curve.p0 - 1, cfg.curve.pt - 1, blackout[0].params["stake"],
                reactive[0].params["v"]))
        except ValueError:
            predicted = None
        if predicted is not None:
            lines.append(f"predicted share gain from the blind tranche: "
                         f"{predicted} ({float(predicted):.6f})")
    status = "clean" if report.clean else f"{len(report.violations)} violation(s)"
    lines.append(f"audit: {status} over {report.blocks} blocks")
    for v in report.violations:
        stage = "-" if v.stage is None else v.stage
        lines.append(f"  stage {stage}: {v.check}: {v.detail}")
    if report.lag_stages:
        lines.append(f"lagging blocks: {', '.join(map(str, report.lag_stages))}")
    lines.append(f"digest: {digest}")
    if out_path is not None:
        lines.append(f"trace written: {out_path}")
    return lines


def _echo(text: str) -> bool:
    """Write ``text`` to standard output now; False once its reader has
    closed it.  From then on writes to it, the flush at exit included, go
    nowhere instead of failing."""
    try:
        sys.stdout.write(text)
        sys.stdout.flush()
        return True
    except BrokenPipeError:
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return False


def _audit_child(auditor: _Auditor, blocks: int, answer: int) -> NoReturn:
    """The forked child's whole life: feed ``auditor`` each block read from
    the ``blocks`` pipe, and at its end send the report, or the failure, down
    the ``answer`` pipe.  It leaves by ``os._exit``, so it neither flushes
    the buffers nor runs the exit handlers it shares with the parent."""
    code = 1  # also for an interrupt, which sends no answer
    try:
        try:
            with open(blocks, "rb") as source:  # each block: its size, then its bytes
                while size := source.read(8):
                    data = source.read(int.from_bytes(size, "little"))
                    auditor.feed(data[:-1].decode("utf-8").split("\n"))
            report = auditor.finish()
            sent = ("report", [(v.stage, v.check, v.detail) for v in report.violations],
                    report.lag_stages, report.blocks, report.final_v)
            code = 0
        except ParseError as err:
            sent = ("parse", err.message, err.line, err.column)
        except Exception:  # an auditor bug: the parent raises its traceback
            import traceback
            sent = ("error", traceback.format_exc())
        with open(answer, "wb") as out:
            out.write(marshal.dumps(sent))
    finally:
        os._exit(code)


def _spare_cpu() -> bool:
    """Whether a forked audit can run beside the sale: ``os.fork`` exists
    and this process may run on more than one CPU.  On one CPU the child
    would only add its pipe and its page copies to the run's time."""
    if not hasattr(os, "fork"):
        return False
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0)) > 1
    return (os.cpu_count() or 1) > 1


class _Pipeline:
    """One run's trace, taken in blocks as the run makes them.

    Each block is audited (on replay it is compared with the stored body
    instead, whose own audit is reported), hashed, written to ``out_path``
    when given and copied to standard output when ``echo`` is set, then
    dropped.  Once a run's trace grows past one block, and where a CPU is
    spare for it (``_spare_cpu``, asked once per run), the audit runs in a
    forked child while the sale plays on: each block's bytes go down a
    pipe to it, and its report comes back at the end.  Where the pipes or
    the fork cannot be made, the audit stays in-process.  A child that
    fails fails the run as the audit would in-process: a record it cannot
    read is the same ``ParseError``, so the exit codes are unchanged.

    A trace that fits in one block is written at the end straight over
    ``out_path``, which it cuts to its own length; a longer one goes to a
    temporary file beside it, which replaces it once the footer is
    written.  Either way a run that fails leaves an older trace as it was,
    and no child.
    """

    def __init__(self, out_path: Path | None, echo: bool, stored: Trace | None) -> None:
        self.auditor = _Auditor() if stored is None else None  # until the child takes it
        self.hash = hashlib.sha256()
        self.out_path = out_path
        self.echo = echo
        self.stored = stored
        self.same = True  # every line so far equals the stored body's
        self.seen = 0     # body lines taken so far
        self.file = None  # the temporary file, from the first block written
        self.partial: Path | None = None  # its path
        self.made: list[Path] = []  # directories made for it, deepest first
        self.fork_ok = stored is None and _spare_cpu()  # until the one attempt
        self.child = 0       # the auditing child's pid until it is reaped
        self.blocks = None   # the pipe to the child
        self.answer = None   # the pipe from it

    def _fork(self) -> None:
        """Hand the audit to a forked child, or keep it in-process where the
        pipes or the child cannot be made."""
        self.fork_ok = False
        fds = []
        try:
            fds += os.pipe()
            fds += os.pipe()
            pid = os.fork()
        except OSError:  # EMFILE, or EAGAIN/ENOMEM at a process or memory limit
            for fd in fds:
                os.close(fd)
            return
        blocks_r, blocks_w, answer_r, answer_w = fds
        if not pid:
            os.close(blocks_w)
            os.close(answer_r)
            _audit_child(self.auditor, blocks_r, answer_w)
        os.close(blocks_r)
        os.close(answer_w)
        self.blocks = open(blocks_w, "wb")
        self.answer = open(answer_r, "rb")
        self.child, self.auditor = pid, None

    def _send(self, data: bytes) -> None:
        try:
            self.blocks.write(len(data).to_bytes(8, "little"))
            self.blocks.write(data)
            return
        except BrokenPipeError:
            pass  # the child has stopped: its answer says why
        self._join()
        raise RuntimeError("the audit process stopped reading the trace")

    def _join(self) -> AuditReport:
        """Close the child's input, reap it and return its report, or raise
        its failure."""
        with contextlib.suppress(BrokenPipeError):  # it has stopped: read why
            self.blocks.close()
        sent = self.answer.read()
        self.answer.close()
        status = os.waitpid(self.child, 0)[1]
        self.child = 0
        if not sent:
            raise RuntimeError(f"the audit process exited with status "
                               f"{os.waitstatus_to_exitcode(status)} and sent no report")
        kind, *rest = marshal.loads(sent)
        if kind == "parse":
            raise ParseError(*rest)
        if kind == "error":
            raise RuntimeError(f"the audit process failed:\n{rest[0]}")
        violations, lag_stages, blocks, final_v = rest
        return AuditReport([Violation(*v) for v in violations], lag_stages, blocks, final_v)

    def _take(self, lines: list[str]) -> bytes:
        """Audit, hash and compare ``lines``; returns their stored form."""
        if self.auditor is not None:
            self.auditor.feed(lines)
        data = block_bytes(lines)
        if self.blocks is not None:
            self._send(data)
        self.hash.update(data)
        end = self.seen + len(lines)
        if self.stored is not None:
            self.same = self.same and lines == self.stored.body[self.seen:end]
        self.seen = end
        return data

    def block(self, lines: list[str]) -> None:
        """The trace builder's sink."""
        if self.fork_ok:
            self._fork()
        data = self._take(lines)
        if self.out_path is not None:
            if self.file is None:
                folder = self.out_path.parent
                self.made = [d for d in (folder, *folder.parents) if not d.exists()]
                folder.mkdir(parents=True, exist_ok=True)
                self.partial = folder / f".{self.out_path.name}.{os.getpid()}.part"
                self.file = open(self.partial, "wb")
            self.file.write(data)
        if self.echo:
            self.echo = _echo(data.decode("utf-8"))

    def finish(self, tail: list[str]) -> tuple[AuditReport, str]:
        """Take the last lines, write the footer; (report, digest)."""
        self._take(tail)
        if self.child:
            report = self._join()
        elif self.stored is None:
            report = self.auditor.finish()
        else:  # parse_trace has checked the stored body against its digest
            report = audit_trace(self.stored)
            self.same = self.same and self.seen == len(self.stored.body)
        digest = self.hash.hexdigest()
        if self.out_path is None and not self.echo:
            return report, digest
        text = Trace(body=tail, audit_lines=report.lines()).render(digest)
        if self.file is not None:
            self.file.write(text.encode("utf-8"))
            self.file.close()
            os.replace(self.partial, self.out_path)
        elif self.out_path is not None:
            if not self.out_path.parent.is_dir():  # mkdir would raise and catch EEXIST
                self.out_path.parent.mkdir(parents=True, exist_ok=True)
            # Rewritten in place: opened without O_TRUNC and cut to length
            # after the write, because ext4 starts writeback when a file
            # truncated to empty is closed.
            fd = os.open(self.out_path, os.O_WRONLY | os.O_CREAT | getattr(os, "O_BINARY", 0),
                         0o666)
            with open(fd, "wb") as file:
                file.write(text.encode("utf-8"))
                file.truncate()
        if self.echo:
            self.echo = _echo(text)
        return report, digest

    def discard(self) -> None:
        """Remove what a failed run wrote: its partial file and the
        directories made for it; stop and reap the child."""
        if self.child:
            import signal
            os.kill(self.child, signal.SIGKILL)
            with contextlib.suppress(OSError):  # a flush into a dead child
                self.blocks.close()
            self.answer.close()
            os.waitpid(self.child, 0)
            self.child = 0
        if self.file is not None:
            self.file.close()
            self.partial.unlink(missing_ok=True)
        for folder in self.made:
            with contextlib.suppress(OSError):  # not empty: something else is there
                folder.rmdir()


def _play(args, path: Path, spec, out_dir: Path | None = None,
          stored: Trace | None = None) -> int:
    """Run and audit ``spec`` in one pass, write its trace into ``out_dir``
    when given, check it against the ``stored`` trace when given, and print
    the report."""
    out_path = None if out_dir is None else out_dir / f"{path.stem}.trace.tsv"
    pipeline = _Pipeline(out_path, args.report == "full", stored)
    try:
        result = run_scenario(spec, pipeline.block)
        report, digest = pipeline.finish(result.trace.body)
    except BaseException:
        pipeline.discard()
        raise
    lines = _summary(path.name, spec, result.sale, digest, report, out_path)
    code = 0 if report.clean else 1
    if stored is not None:
        if pipeline.same:
            lines.append("replay verified: digests match")
        else:
            lines.append(f"replay diverged: stored {stored.digest[:16]}.. "
                         f"recomputed {digest[:16]}..")
            code = 1
    _echo("\n".join(lines) + "\n")
    return code


def cmd_run(args) -> int:
    path = Path(args.scenario)
    spec = scenario_mod.parse(path.read_text(encoding="utf-8"))
    out_dir = None if args.audit_only else Path(args.out or os.environ.get("ICOSIM_OUT", "."))
    return _play(args, path, spec, out_dir)


def cmd_replay(args) -> int:
    path = Path(args.trace)
    stored = parse_trace(path.read_text(encoding="utf-8"))
    try:
        spec = scenario_mod.parse("\n".join(stored.scenario_lines) + "\n")
    except ParseError as err:  # at the scn record's trace line, past "scn\t"
        scn = [i for i, line in enumerate(stored.body, start=1) if line.startswith("scn\t")]
        raise ParseError(err.message, (scn or [1])[err.line - 1], err.column + 4) from None
    return _play(args, path, spec, stored=stored)


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built on first use and shared for the process.

    ``parse_args`` leaves the parser unchanged, so reusing it across
    ``main`` calls carries no state from one call to the next.
    """
    parser = argparse.ArgumentParser(
        prog="icosim",
        description="Deterministic interactive coin-offering simulator")
    sub = parser.add_subparsers(dest="command", required=True)

    run_p = sub.add_parser("run", help="play a scenario file and audit the trace")
    run_p.add_argument("scenario", help="path to a scenario .tsv file")
    run_p.add_argument("--out", default=None,
                       help="directory for the trace file "
                            "(default: $ICOSIM_OUT or the current directory)")
    run_p.add_argument("--audit-only", action="store_true",
                       help="do not write a trace file")
    run_p.add_argument("--report", choices=("summary", "full"),
                       default="summary")
    run_p.set_defaults(func=cmd_run)

    replay_p = sub.add_parser(
        "replay", help="re-run a stored trace and verify its digest")
    replay_p.add_argument("trace", help="path to a stored .trace.tsv file")
    replay_p.add_argument("--report", choices=("summary", "full"),
                          default="summary")
    replay_p.set_defaults(func=cmd_replay)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    # A run, a replay and their audits make no reference cycles, so the
    # cyclic collector would only walk the growing heap again and again.
    collecting = gc.isenabled()
    gc.disable()
    try:
        return args.func(args)
    except ParseError as err:
        print(f"parse error: {err}", file=sys.stderr)
        return 2
    except (OSError, UnicodeDecodeError) as err:  # unreadable input or --out
        print(f"error: {err}", file=sys.stderr)
        return 2
    except DigestMismatch as err:
        print(f"digest mismatch: {err}", file=sys.stderr)
        return 1
    except IcoError as err:
        print(f"error: {err.code}: {err}", file=sys.stderr)
        return 1
    finally:
        if collecting:
            gc.enable()


if __name__ == "__main__":
    sys.exit(main())
