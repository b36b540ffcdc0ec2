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
from .agents import SignalParams, run_scenario, signaling_advantage
from .analysis import AuditReport, Violation, _Auditor, audit_trace
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


READ_BYTES = 1 << 16  # the most the audit child reads from its pipe at a time


def _feed_stream(auditor: _Auditor, fd: int) -> None:
    """Feed ``auditor`` the trace lines read from ``fd`` until its end,
    however the writer cut them: each read's complete lines at once, its
    partial last line with the next read, and at the end a last line that
    no newline ends."""
    rest = b""
    while data := os.read(fd, READ_BYTES):
        data = rest + data
        cut = data.rfind(b"\n") + 1
        if cut:
            auditor.feed(data[:cut - 1].decode("utf-8").split("\n"))
        rest = data[cut:]
    if rest:
        auditor.feed([rest.decode("utf-8")])


def _audit_child(auditor: _Auditor, blocks: int, answer: int) -> NoReturn:
    """The forked child's whole life: feed ``auditor`` the trace's bytes
    read from the ``blocks`` pipe, close it, and send the report, or the
    failure, down the ``answer`` pipe.  The pipe carries the stored bytes
    alone, so the child may cut them anywhere (``_feed_stream``).  It
    leaves by ``os._exit``, so it neither flushes the buffers nor runs the
    exit handlers it shares with the parent."""
    code = 1  # also for an interrupt, which sends no answer
    try:
        try:
            # closed before the answer: a parent still writing stops at a broken pipe
            with open(blocks, "rb", buffering=0) as source:
                _feed_stream(auditor, source.fileno())
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
    """One run's trace, taken in hand-offs as the run makes them.

    Each hand-off (``TraceBuilder``) is audited when ``audit`` is set,
    hashed, written to ``out_path`` when given and copied to standard
    output when ``echo`` is set, then dropped; a printed or written
    footer is the audit of the body above it.  Once
    a run's trace grows past one block, and where a CPU is spare for it
    (``_spare_cpu``, asked once per run), the audit runs in a forked child
    while the sale plays on: each hand-off's bytes, and nothing else, go
    down a pipe to it, and its report comes back at the end.  Where the
    pipes or the fork cannot be made, the audit stays in-process.  A child
    that fails fails the run as the in-process audit would, with the same
    exit code.

    A trace that fits in one block is written at the end straight over
    ``out_path``, which it cuts to its own length; a longer one goes to a
    temporary file beside it, which replaces it once the footer is
    written.  A run that fails leaves no child, no partial file, no
    directory it made and an older trace as it was, unless it failed
    while rewriting that trace in place: then it is removed.
    """

    def __init__(self, out_path: Path | None, echo: bool, audit: bool) -> None:
        self.auditor = _Auditor() if audit else None  # until the child takes it
        self.hash = hashlib.sha256()
        self.out_path = out_path
        self.echo = echo
        self.file = None  # the temporary file, from the first hand-off
        self.partial: Path | None = None  # its path, or out_path while rewritten in place
        self.made: list[Path] = []  # directories made for the trace, deepest first
        self.fork_ok = audit and _spare_cpu()  # until the one attempt
        self.child = 0       # the auditing child's pid until it is reaped
        self.blocks = -1     # the descriptor of the pipe to the child
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
        self.blocks = blocks_w
        self.answer = open(answer_r, "rb")
        self.child, self.auditor = pid, None

    def _send(self, data: bytes) -> None:
        """Write all of ``data`` to the child, however much each write takes."""
        view = memoryview(data)
        try:
            while view:
                view = view[os.write(self.blocks, view):]
            return
        except BrokenPipeError:
            pass  # the child has stopped: its answer says why
        self._join()
        raise RuntimeError("the audit process stopped reading the trace")

    def _join(self) -> AuditReport:
        """Close the child's input, reap it and return its report, or raise
        its failure."""
        os.close(self.blocks)
        self.blocks = -1
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
        """Audit and hash ``lines``; returns their stored form."""
        if self.auditor is not None:
            self.auditor.feed(lines)
        data = block_bytes(lines)
        if self.blocks >= 0:
            self._send(data)
        self.hash.update(data)
        return data

    def _folder(self) -> Path:
        """The trace's directory, made if missing; what it made is in ``made``."""
        folder = self.out_path.parent
        if not folder.is_dir():  # mkdir would raise and catch EEXIST
            self.made = [d for d in (folder, *folder.parents) if not d.exists()]
            folder.mkdir(parents=True, exist_ok=True)
        return folder

    def block(self, lines: list[str]) -> None:
        """The trace builder's sink."""
        if self.fork_ok:
            self._fork()
        data = self._take(lines)
        if self.out_path is not None:
            if self.file is None:
                self.partial = self._folder() / f".{self.out_path.name}.{os.getpid()}.part"
                self.file = open(self.partial, "wb")
            self.file.write(data)
        if self.echo:
            self.echo = _echo(data.decode("utf-8"))

    def finish(self, tail: list[str]) -> tuple[AuditReport | None, str]:
        """Take the last lines, write the footer; (report, digest), the
        report None when not auditing."""
        self._take(tail)
        report = None
        if self.child:
            report = self._join()
        elif self.auditor is not None:
            report = self.auditor.finish()
        digest = self.hash.hexdigest()
        if self.out_path is None and not self.echo:
            return report, digest
        text = Trace(body=tail, audit_lines=report.lines()).render(digest)
        if self.file is not None:
            self.file.write(text.encode("utf-8"))
            self.file.close()
            os.replace(self.partial, self.out_path)
        elif self.out_path is not None:
            self._folder()
            # Rewritten in place: opened without O_TRUNC and cut to length
            # after the write, because ext4 starts writeback when a file
            # truncated to empty is closed.
            fd = os.open(self.out_path, os.O_WRONLY | os.O_CREAT | getattr(os, "O_BINARY", 0),
                         0o666)
            self.partial = self.out_path  # until it is whole
            with open(fd, "wb") as file:
                file.write(text.encode("utf-8"))
                file.truncate()
            self.partial = None
        if self.echo:
            self.echo = _echo(text)
        return report, digest

    def discard(self) -> None:
        """Remove what a failed run wrote: its partial file, or the trace
        it was rewriting in place, and the directories made for it; stop
        and reap the child."""
        if self.child:
            import signal
            os.kill(self.child, signal.SIGKILL)
            if self.blocks >= 0:
                os.close(self.blocks)
            self.answer.close()
            os.waitpid(self.child, 0)
            self.child = 0
        if self.file is not None:
            self.file.close()
        if self.partial is not None:
            self.partial.unlink(missing_ok=True)
        for folder in self.made:
            with contextlib.suppress(OSError):  # not empty: something else is there
                folder.rmdir()


def _play(args, path: Path, spec, out_dir: Path | None = None,
          stored: tuple[str, AuditReport] | None = None) -> int:
    """Run and audit ``spec`` in one pass, write its trace into ``out_dir``
    when given, compare its digest with the ``stored`` one and report the
    stored audit when given, and print the report.  A replay audits its
    own body only for the full report's footer."""
    out_path = None if out_dir is None else out_dir / f"{path.stem}.trace.tsv"
    full = args.report == "full"
    pipeline = _Pipeline(out_path, full, audit=stored is None or full)
    try:
        result = run_scenario(spec, pipeline.block)
        report, digest = pipeline.finish(result.trace.body)
    except BaseException:
        pipeline.discard()
        raise
    stored_digest = None
    if stored is not None:
        stored_digest, report = stored
    lines = _summary(path.name, spec, result.sale, digest, report, out_path)
    code = 0 if report.clean else 1
    if stored_digest is not None:
        if digest == stored_digest:
            lines.append("replay verified: digests match")
        else:
            lines.append(f"replay diverged: stored {stored_digest[:16]}.. "
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
    stored = (stored.stored_digest, audit_trace(stored))  # all the re-run keeps of it
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
