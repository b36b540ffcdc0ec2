"""icosim benchmark: time `icosim run` and the engine-free referee, layer by layer.

    python3 bench/run.py --workload churn|sweep|corpus --seed N --seconds S --trace 0|1

Run it from the root of a checkout; it reads and writes only there.  Each
workload runs in fresh worker processes, one at a time, so all load
comes from one single-threaded process.

``--trace 0`` measures the end-to-end metrics with tracing off.  Each
repeat times the run and then the referee in slices of at most 200
scenarios, each slice between two timings of a fixed reference kernel
that belongs to the benchmark (worker.reference_s):
  run_s        wall seconds of `icosim run <scenario> --out <dir>` called
               in-process through icosim.cli.main (parse, play, audit,
               render, trace write); for corpus, the whole batch
  referee_s    wall seconds to read the stored trace(s), parse_trace them
               (envelope and digest) and audit_trace them
  run_rel      median over repeats of the sum over slices of the slice's
               seconds over the mean of the kernel's two timings around it
  referee_rel  the same for referee_s
  peak_rss_mb  peak resident memory of the worker that ran the workload
  setup_s      median over nine fresh workers of the time to import
               icosim.cli and generate and write the inputs
The result line carries run_rel, referee_rel, peak_rss_mb and setup_s.
A shared host's speed can drift by up to a factor of two for tens of
seconds, so wall seconds alone can spread beyond any usable bound from
run to run; the ratios follow the program and not the host.  run_s and
referee_s are printed with their minimum and quartiles.
``--trace 1`` wraps each layer's entry points (see layers.py) and reports
per-layer calls, self time, share and scaling exponent, the simulated
counts and the tracing overhead.

Every run and referee is an operation.  One fails if it raises, exits
non-zero, audits unclean, disagrees with the other on verdict or digest,
or differs in digest or simulated counts from the first repeat.
error_rate = failed / attempted is printed, and the last line carries
both counts.  The last line of standard output is the JSON result; the
full report, with every timing sample and the fingerprint, is written to
.bench_out/<workload>-trace<0|1>.json.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
# Fresh workers measuring set-up on each side of the timed one, which
# measures it too; half before and half after the timed window, so that
# the samples do not all fall in one phase of the host's speed.
SETUP_SAMPLES_EACH_SIDE = 4
WORKER_TIMEOUT_S = 170

sys.path.insert(0, str(HERE))
import layers  # noqa: E402
import workloads  # noqa: E402

END_TO_END = {"run_rel": "ratio", "referee_rel": "ratio", "peak_rss_mb": "MB",
              "setup_s": "s"}
SIMULATED = {"engine.tx_ok": "count", "engine.tx_rejected": "count",
             "engine.blocks": "count", "engine.sweep_kicks": "count",
             "engine.sweep_scales": "count", "engine.carryover_blocks": "count",
             "engine.poke_wake_ratio": "ratio", "gas.total": "gas",
             "gas.peak_block": "gas", "trace.lines": "count",
             "trace.bytes": "bytes"}
# analysis.violations is printed with the simulated counts but left off the
# result line: any violation already fails the run, so it reads 0 there.


def per_layer_units() -> dict[str, str]:
    """Every per-layer metric the traced run reports, with its unit."""
    units = {}
    for entry in layers.ENTRY_POINTS:
        units[f"{entry.name}.calls"] = "count"
        units[f"{entry.name}.self_s"] = "s"
    for layer in layers.LAYERS:
        units[f"{layer}.self_s"] = "s"
        units[f"{layer}.share"] = "ratio"
        units[f"{layer}.exponent"] = "1"
    units.update(SIMULATED)
    units["tracing.overhead_s"] = "s"
    return units


def worker(args, mode: str, work: Path, spans: Path | None = None) -> dict:
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--mode", mode, "--seconds", str(args.seconds),
           "--work", str(work)]
    if spans is not None:
        cmd += ["--spans", str(spans)]
    done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                          timeout=WORKER_TIMEOUT_S)
    if done.returncode != 0 or not done.stdout.strip():
        sys.stderr.write(done.stderr)
        raise SystemExit(f"benchmark: {mode} worker exited with {done.returncode}")
    return json.loads(done.stdout.strip().splitlines()[-1])


def quartiles(values: list[float]) -> str:
    if len(values) < 2:
        return f"n={len(values)}"
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return (f"n={len(values)} min={min(values):.4f} q1={q1:.4f} "
            f"median={q2:.4f} q3={q3:.4f}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "icosim" / "__init__.py").is_file():
        print(f"benchmark: no icosim sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    out_dir = ROOT / ".bench_out"
    out_dir.mkdir(exist_ok=True)
    # Work files persist between runs and are overwritten in place: creating
    # a thousand files costs far more, and far more erratically, than
    # rewriting them, which would swamp setup_s and run_s on corpus.
    work = ROOT / ".bench_work" / args.workload
    if args.trace:
        spans = out_dir / f"{args.workload}-spans.tsv"
        result = worker(args, "traced", work, spans)
        units = per_layer_units()
        values = result["metrics"]
    else:
        setup = [worker(args, "setup", work)["setup_s"]
                 for _ in range(SETUP_SAMPLES_EACH_SIDE)]
        result = worker(args, "timed", work)
        setup += [result["setup_s"]] + [worker(args, "setup", work)["setup_s"]
                                        for _ in range(SETUP_SAMPLES_EACH_SIDE)]
        result["setup_samples"] = setup
        units = END_TO_END
        values = {"run_rel": statistics.median(result["run_rel"]),
                  "referee_rel": statistics.median(result["referee_rel"]),
                  "peak_rss_mb": result["peak_rss_mb"],
                  "setup_s": statistics.median(result["setup_samples"])}

    attempted, failed = result["attempted"], result["failed"]
    problems = list(result["reasons"])
    if args.trace:
        problems += [f"coverage: {name} recorded zero calls on {args.workload}"
                     for name in result["idle_required"]]
        for name in result["missing"]:
            print(f"missing entry point (metrics omitted): {name}")
        print(f"spans per traced repeat: {result['spans_per_repeat']}; "
              f"untraced run_s {quartiles(result['untraced_run_s'])}; "
              f"traced run_s {quartiles(result['traced_run_s'])}")
        print(f"never called on {args.workload}: {', '.join(result['never_called'])}")
    else:
        for key in ("run_s", "referee_s", "run_rel", "referee_rel", "setup_samples"):
            print(f"{key}: {quartiles(result[key])}")
        print(f"simulated: {json.dumps(result['simulated'], sort_keys=True)}")
    print(f"error_rate: {failed / attempted:.6f} ({failed} of {attempted} operations)")
    for problem in problems:
        print(f"FAIL: {problem}", file=sys.stderr)

    for name, value in values.items():
        print(f"{name:48s} {value:.6g} {units.get(name, '')}")
    metrics = {k: {"value": values[k], "unit": u} for k, u in units.items()
               if k in values}
    (out_dir / f"{args.workload}-trace{args.trace}.json").write_text(
        json.dumps({"workload": args.workload, "seed": args.seed,
                    "seconds": args.seconds, "result": result,
                    "metrics": metrics}, indent=1, sort_keys=True) + "\n",
        encoding="utf-8")
    correct = failed == 0 and not problems
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
