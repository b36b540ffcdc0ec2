"""Command line front end: run scenario files, replay stored traces.

Exit codes: 0 for a verified, violation-free run; 1 when the audit finds
violations, a stored digest does not match, or a replay diverges; 2 for
unusable input (parse errors, missing or non-UTF-8 files) and for an
output directory that cannot be written.
"""

from __future__ import annotations

import argparse
import functools
import os
import sys
from pathlib import Path

from . import scenario as scenario_mod
from .agents import run_scenario
from .analysis import SignalParams, audit_trace, signaling_advantage
from .errors import DigestMismatch, IcoError, ParseError
from .trace import Trace, parse_trace


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


def _play(args, path: Path, spec, out_dir: Path | None = None,
          stored: Trace | None = None) -> int:
    """Run and audit ``spec``, write its trace into ``out_dir`` when given,
    check it against the ``stored`` trace when given, and print the report."""
    result = run_scenario(spec)
    trace = result.trace
    report = audit_trace(trace)
    trace.audit_lines = report.lines()
    digest = trace.digest
    text = trace.render(digest) if out_dir is not None or args.report == "full" else ""
    out_path = None
    if out_dir is not None:
        out_dir.mkdir(parents=True, exist_ok=True)
        out_path = out_dir / f"{path.stem}.trace.tsv"
        out_path.write_text(text, encoding="utf-8")
    lines = _summary(path.name, spec, result.sale, digest, report, out_path)
    code = 0 if report.clean else 1
    if stored is not None:  # parse_trace has checked its body against its digest
        if trace.body == stored.body:
            lines.append("replay verified: digests match")
        else:
            lines.append(f"replay diverged: stored {stored.digest[:16]}.. "
                         f"recomputed {digest[:16]}..")
            code = 1
    if args.report == "full":
        sys.stdout.write(text)
    print("\n".join(lines))
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


if __name__ == "__main__":
    sys.exit(main())
