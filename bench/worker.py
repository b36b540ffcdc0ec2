"""One fresh benchmark worker: set up a workload, then time or trace it.

    python3 bench/worker.py --workload W --seed N --mode setup|timed|traced
                            --seconds S --work DIR [--spans FILE]

The last line of standard output is one JSON object with the worker's
measurements.  The program's own output is captured in-process, so
nothing else reaches standard output.  ``run.py`` starts the workers;
this file is not meant to be run by hand.
"""

from __future__ import annotations

import time

STARTED = time.perf_counter()  # set-up time counts from the worker's first line

import argparse  # noqa: E402
import contextlib  # noqa: E402
import gc  # noqa: E402
import hashlib  # noqa: E402
import importlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

import layers  # noqa: E402
import workloads  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
MIN_TIMED_REPEATS = 3
SLICE = 200  # scenarios timed between two reference timings (about 1 s of corpus)
FOOTER_TAGS = ("audit", "violation", "digest")


def import_program():
    """Import icosim.cli from this checkout's sources, never from elsewhere."""
    src = ROOT / "src"
    if not (src / "icosim" / "__init__.py").is_file():
        raise SystemExit(f"benchmark: no icosim sources under {src}")
    sys.path.insert(0, str(src))
    cli = importlib.import_module("icosim.cli")
    if Path(cli.__file__).resolve().parent.parent != src.resolve():
        raise SystemExit(f"benchmark: imported icosim from {cli.__file__}, not {src}")
    return cli


# --- the two timed paths --------------------------------------------------


def play(cli, scenarios: list[Path], out_dir: Path):
    """``icosim run`` on every scenario in-process; (seconds, outcomes)."""
    outcomes = []
    started = time.perf_counter()
    for path in scenarios:
        captured = io.StringIO()
        try:
            with contextlib.redirect_stdout(captured):
                code = cli.main(["run", str(path), "--out", str(out_dir)])
            outcomes.append((code, captured.getvalue(), None))
        except Exception:  # one failed run must not stop the measurement
            outcomes.append((None, captured.getvalue(), traceback.format_exc()))
    return time.perf_counter() - started, outcomes


def referee(trace_paths: list[Path]):
    """Read, parse and audit every stored trace without the engine.

    parse_trace recomputes the body digest and raises unless it matches
    the stored one, so a trace that parses carries a verified digest.
    """
    trace_mod = sys.modules["icosim.trace"]
    analysis = sys.modules["icosim.analysis"]
    outcomes = []
    started = time.perf_counter()
    for path in trace_paths:
        try:
            text = path.read_text(encoding="utf-8")
            trace = trace_mod.parse_trace(text)
            outcomes.append((text, analysis.audit_trace(trace), None))
        except Exception:  # a broken trace is a failed referee, not a crash
            outcomes.append((None, None, traceback.format_exc()))
    return time.perf_counter() - started, outcomes


# --- output checks ------------------------------------------------------------


def simulated_counts(text: str) -> dict:
    """Exact simulated statistics of one stored trace, read from its records."""
    c = {"engine.tx_ok": 0, "engine.tx_rejected": 0, "engine.blocks": 0,
         "engine.sweep_kicks": 0, "engine.sweep_scales": 0,
         "engine.carryover_blocks": 0, "pokes_ok": 0, "pokes_woke": 0,
         "gas.total": 0, "gas.peak_block": 0}
    lines = text.splitlines()
    for line in lines:
        fields = line.split("\t")
        tag = fields[0]
        if tag == "ev":
            ok = fields[5] == "ok"
            c["engine.tx_ok" if ok else "engine.tx_rejected"] += 1
            if ok and fields[4] == "poke":
                c["pokes_ok"] += 1
                c["pokes_woke"] += "activated=-" not in fields
        elif tag == "s3":
            c["engine.sweep_kicks" if fields[3] == "kick" else "engine.sweep_scales"] += 1
        elif tag == "blk":
            kv = dict(f.split("=", 1) for f in fields[2:])
            gas = int(kv["gas"])
            c["engine.blocks"] += 1
            c["engine.carryover_blocks"] += kv["carry"] == "1"
            c["gas.total"] += gas
            c["gas.peak_block"] = max(c["gas.peak_block"], gas)
    c["trace.lines"] = len(lines)
    c["trace.bytes"] = len(text.encode("utf-8"))
    return c


def body_sha256(text: str) -> str:
    """The trace digest recomputed here, independently of the program."""
    h = hashlib.sha256()
    for line in text.splitlines():
        if line.split("\t", 1)[0] not in FOOTER_TAGS:
            h.update(line.encode("utf-8") + b"\n")
    return h.hexdigest()


def stored_digest(text: str) -> str | None:
    last = text.splitlines()[-1] if text else ""
    return last.split("\t", 1)[1] if last.startswith("digest\t") else None


class Checker:
    """Counts operations and failures for one input set across repeats.

    Each CLI run and each referee is one operation.  The first repeat's
    digests and simulated counts are the fingerprint every later repeat
    must match exactly.
    """

    def __init__(self) -> None:
        self.fingerprint: list | None = None
        self.attempted = 0
        self.failed = 0
        self.reasons: list[str] = []

    def _fail(self, reason: str) -> None:
        self.failed += 1
        if len(self.reasons) < 10:
            self.reasons.append(reason)

    def check(self, scenarios, runs, refs) -> None:
        prints = []
        for path, (code, out, run_err), (text, report, ref_err) in zip(
                scenarios, runs, refs):
            self.attempted += 2
            name = path.name
            run_digest = next((line.split(": ", 1)[1] for line in out.splitlines()
                               if line.startswith("digest: ")), None)
            print_ = None
            if text is not None:
                print_ = (body_sha256(text), simulated_counts(text),
                          len(report.violations))
            prints.append(print_)
            expected = None if self.fingerprint is None else \
                self.fingerprint[len(prints) - 1]
            if run_err or code != 0 or run_digest is None:
                self._fail(f"run {name}: exit {code} {run_err or ''}".strip())
            elif expected is not None and print_ != expected:
                self._fail(f"run {name}: digest or simulated counts differ "
                           f"from the first repeat")
            if ref_err:
                self._fail(f"referee {name}: {ref_err.strip().splitlines()[-1]}")
            elif not report.clean:
                self._fail(f"referee {name}: audit found "
                           f"{len(report.violations)} violation(s)")
            elif not (run_digest == stored_digest(text) == print_[0]):
                self._fail(f"referee {name}: digests disagree: run {run_digest}, "
                           f"stored {stored_digest(text)}, recomputed {print_[0]}")
        if self.fingerprint is None:
            self.fingerprint = prints

    def totals(self) -> dict:
        """Simulated counts summed over the input set (peak: the largest)."""
        total: dict = {}
        for entry in self.fingerprint or []:
            if entry is None:
                continue
            for key, value in entry[1].items():
                total[key] = max(total.get(key, 0), value) if key == "gas.peak_block" \
                    else total.get(key, 0) + value
            total["analysis.violations"] = total.get("analysis.violations", 0) + entry[2]
        ok = total.pop("pokes_ok", 0)
        woke = total.pop("pokes_woke", 0)
        total["engine.poke_wake_ratio"] = woke / ok if ok else 0.0
        digests = "".join(e[0] for e in self.fingerprint or [] if e is not None)
        total["fingerprint"] = hashlib.sha256(digests.encode()).hexdigest()
        return total


def reference_s() -> float:
    """Wall seconds of a fixed pure-Python kernel that belongs to the benchmark.

    A shared host's speed drifts by up to a factor of two for tens of
    seconds at a time.  The kernel is timed right before and after each
    timed slice of work, and the slice's time over the kernel's cancels
    most of that drift; a change to the program leaves the kernel alone.
    """
    started = time.perf_counter()
    for seed in range(4):
        workloads.churn(seed, 1_500)
    return time.perf_counter() - started


def bracketed(call, items):
    """Time ``call`` on ``items`` slice by slice, each slice between two
    timings of the reference kernel; (seconds, relative time, outcomes).

    The relative time sums each slice's seconds over the mean of the two
    kernel timings around it.  Short slices let it follow the host's speed
    within a long batch.
    """
    seconds = relative = 0.0
    outcomes = []
    before = reference_s()
    for start in range(0, len(items), SLICE):
        took, done = call(items[start:start + SLICE])
        after = reference_s()
        seconds += took
        relative += 2 * took / (before + after)
        outcomes += done
        before = after
    return seconds, relative, outcomes


def repeat(cli, scenarios, out_dir, checker):
    """Run and referee the inputs once; (run_s, referee_s, run_rel, referee_rel)."""
    traces = [out_dir / f"{p.stem}.trace.tsv" for p in scenarios]
    for path in traces:  # so a run that writes nothing cannot pass on an old trace
        if path.exists():
            path.write_bytes(b"")
    gc.collect()
    run_s, run_rel, runs = bracketed(lambda part: play(cli, part, out_dir), scenarios)
    gc.collect()
    referee_s, referee_rel, refs = bracketed(referee, traces)
    checker.check(scenarios, runs, refs)
    return run_s, referee_s, run_rel, referee_rel


def keep_going(started: float, rounds: int, minimum: int, seconds: float) -> bool:
    """Another round fits if the last one, repeated, ends within the window."""
    if rounds < minimum:
        return True
    elapsed = time.perf_counter() - started
    return elapsed + elapsed / rounds <= seconds


# --- modes ----------------------------------------------------------------------


def timed(cli, args, scenarios, out_dir) -> dict:
    checker = Checker()
    samples = []
    started = time.perf_counter()
    while keep_going(started, len(samples), MIN_TIMED_REPEATS, args.seconds):
        samples.append(repeat(cli, scenarios, out_dir, checker))
    run_s, referee_s, run_rel, referee_rel = (list(column) for column in zip(*samples))
    return {"run_s": run_s, "referee_s": referee_s,
            "run_rel": run_rel, "referee_rel": referee_rel,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
            "attempted": checker.attempted, "failed": checker.failed,
            "reasons": checker.reasons, "simulated": checker.totals()}


def traced(cli, args, full, quarter, work) -> dict:
    """Cycles of (untraced full, traced full, traced quarter) for --seconds."""
    tracer = layers.Tracer()
    full_check, quarter_check = Checker(), Checker()
    untraced_s, traced_s, full_sums, quarter_sums = [], [], [], []
    started = time.perf_counter()
    while keep_going(started, len(traced_s), 1, args.seconds):
        untraced_s.append(repeat(cli, full, work / "out-full", full_check)[0])
        with tracer.recording():
            traced_s.append(repeat(cli, full, work / "out-full", full_check)[0])
        full_sums.append(tracer.summary())
        if len(traced_s) == 1:
            span_count = len(tracer.span_start)
            if args.spans:
                tracer.dump(Path(args.spans))
        with tracer.recording():
            repeat(cli, quarter, work / "out-quarter", quarter_check)
        quarter_sums.append(tracer.summary())

    # Call counts repeat exactly (the fingerprint checks the runs they come
    # from); self times are medians over the cycles.
    full = {k: v if k.endswith(".calls") else statistics.median(s[k] for s in full_sums)
            for k, v in full_sums[0].items()}
    small = {k: statistics.median(s[k] for s in quarter_sums) for k in quarter_sums[0]}
    root = full.pop("root_s")
    metrics = dict(full)
    for layer in layers.LAYERS:
        big, little = full[f"{layer}.self_s"], small[f"{layer}.self_s"]
        metrics[f"{layer}.share"] = big / root if root else 0.0
        metrics[f"{layer}.exponent"] = (math.log(big / little) / math.log(4)
                                        if big > 0 and little > 0 else 0.0)
    simulated = full_check.totals()
    metrics.update({k: v for k, v in simulated.items() if k != "fingerprint"})
    metrics["tracing.overhead_s"] = statistics.median(traced_s) - \
        statistics.median(untraced_s)

    calls = {k[:-len(".calls")]: v for k, v in full.items() if k.endswith(".calls")}
    may_be_idle = layers.MAY_BE_IDLE[args.workload]
    return {"metrics": metrics, "untraced_run_s": untraced_s, "traced_run_s": traced_s,
            "spans_per_repeat": span_count, "missing": tracer.missing,
            "idle_required": [name for name, n in calls.items()
                              if n == 0 and name not in may_be_idle],
            "never_called": [name for name, n in calls.items() if n == 0],
            "attempted": full_check.attempted + quarter_check.attempted,
            "failed": full_check.failed + quarter_check.failed,
            "reasons": full_check.reasons + quarter_check.reasons,
            "fingerprint": simulated["fingerprint"]}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--mode", required=True, choices=("setup", "timed", "traced"))
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--work", required=True)
    parser.add_argument("--spans", default=None)
    args = parser.parse_args(argv)

    work = Path(args.work)
    cli = import_program()
    scenarios = workloads.write_inputs(args.workload, args.seed, work / "full")
    setup_s = time.perf_counter() - STARTED
    if args.mode == "setup":
        result = {"setup_s": setup_s}
    elif args.mode == "timed":
        result = timed(cli, args, scenarios, work / "out-full")
        result["setup_s"] = setup_s
    else:
        quarter = workloads.write_inputs(args.workload, args.seed, work / "quarter",
                                         quarter=True)
        result = traced(cli, args, scenarios, quarter, work)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
