"""Outside-in span tracing of icosim's layers.

The traced run wraps public entry points of each layer from here, never
from inside the program: a module-level function is wrapped where its
caller looks it up (``icosim.engine.purchase_power``, not
``icosim.pricing.purchase_power``, because the engine imported the name),
and a method is wrapped on its class.  Every wrapped call records a span
(entry point, start, end, parent span) into flat in-memory arrays; a
span's self time is its duration minus the time its child spans cover.

``ENTRY_POINTS`` is also the record of which end-to-end metric and
workload each layer metric should move, so performance work can cite it.
A change that moves run_s or referee_s moves the gated run_rel or
referee_rel by the same factor.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import time
from array import array
from dataclasses import dataclass


@dataclass(frozen=True)
class EntryPoint:
    name: str            # "<layer>.<qualified name>"; the layer is the module
    sites: tuple[str, ...]  # "module:attribute.path" where callers look it up
    moves: str           # end-to-end metric and workload it should move

    @property
    def layer(self) -> str:
        return self.name.split(".", 1)[0]


def _ep(name: str, moves: str, *sites: str) -> EntryPoint:
    return EntryPoint(name, sites, moves)


# A site ending in "*Strategy.actions" stands for every strategy class in
# icosim.agents that defines its own ``actions``.
ENTRY_POINTS: tuple[EntryPoint, ...] = (
    _ep("scenario.parse", "run_s on churn, corpus", "icosim.scenario:parse"),
    _ep("scenario.ScenarioSpec.normalize", "run_s on churn, corpus",
        "icosim.scenario:ScenarioSpec.normalize"),
    _ep("agents.run_scenario", "run_s on all (runner dispatch is its self time)",
        "icosim.cli:run_scenario"),
    _ep("agents.Strategy.actions", "run_s on all, sweep most",
        "icosim.agents:*Strategy.actions"),
    _ep("engine.Sale.submit_bid", "run_s on churn", "icosim.engine:Sale.submit_bid"),
    _ep("engine.Sale.voluntary_withdraw", "run_s on churn",
        "icosim.engine:Sale.voluntary_withdraw"),
    _ep("engine.Sale.poke", "run_s on churn", "icosim.engine:Sale.poke"),
    _ep("engine.Sale.compute_advice", "run_s on churn",
        "icosim.engine:Sale.compute_advice"),
    _ep("engine.Sale.advance_block", "run_s on sweep",
        "icosim.engine:Sale.advance_block"),
    _ep("engine.Sale.run_automatic_withdrawals", "run_s on sweep",
        "icosim.engine:Sale.run_automatic_withdrawals"),
    _ep("engine.Sale.recompute_valuation", "run_s on sweep",
        "icosim.engine:Sale.recompute_valuation"),
    _ep("engine.Sale.conservation_report", "run_s on sweep",
        "icosim.engine:Sale.conservation_report"),
    _ep("engine.Sale.finalize", "run_s on all", "icosim.engine:Sale.finalize"),
    _ep("book.BucketList.insert_with_advice", "run_s on churn",
        "icosim.book:BucketList.insert_with_advice"),
    _ep("book.BucketList.find_advice", "run_s on churn",
        "icosim.book:BucketList.find_advice"),
    _ep("book.BucketList.insert_scanned", "run_s on churn",
        "icosim.book:BucketList.insert_scanned"),
    _ep("book.BucketList.unlink", "run_s on churn", "icosim.book:BucketList.unlink"),
    _ep("book.Bucket.add", "run_s on churn", "icosim.book:Bucket.add"),
    _ep("book.Bucket.remove", "run_s on churn, not on sweep",
        "icosim.book:Bucket.remove"),
    _ep("book.verify_poke", "run_s on churn", "icosim.engine:verify_poke"),
    _ep("book.OrderBook.kick_bucket", "run_s on sweep",
        "icosim.book:OrderBook.kick_bucket"),
    _ep("book.OrderBook.scale_bucket", "run_s on sweep",
        "icosim.book:OrderBook.scale_bucket"),
    _ep("ledger.RefundLedger.credit", "run_s on churn",
        "icosim.ledger:RefundLedger.credit"),
    _ep("ledger.RefundLedger.total", "run_s on churn",
        "icosim.ledger:RefundLedger.total"),
    _ep("ledger.conservation_audit", "run_s on churn",
        "icosim.engine:conservation_audit"),
    _ep("gas.GasMeter.charge", "run_s on churn, sweep", "icosim.gas:GasMeter.charge"),
    _ep("pricing.purchase_power", "run_s on churn", "icosim.engine:purchase_power"),
    _ep("pricing.voluntary_refund", "run_s on churn",
        "icosim.engine:voluntary_refund"),
    _ep("pricing.committed_balance", "run_s on churn",
        "icosim.engine:committed_balance"),
    _ep("trace.TraceBuilder.event", "run_s on corpus most",
        "icosim.trace:TraceBuilder.event"),
    _ep("trace.TraceBuilder.block", "run_s on corpus most",
        "icosim.trace:TraceBuilder.block"),
    _ep("trace.TraceBuilder.allocation", "run_s on corpus most",
        "icosim.trace:TraceBuilder.allocation"),
    _ep("trace.Trace.render", "run_s on corpus most", "icosim.trace:Trace.render"),
    _ep("trace.body_digest", "run_s on corpus most (twice per CLI run)",
        "icosim.trace:body_digest"),
    _ep("trace.parse_trace", "referee_s on churn",
        "icosim.cli:parse_trace", "icosim.trace:parse_trace"),
    _ep("analysis.audit_trace", "referee_s and run_s on sweep",
        "icosim.cli:audit_trace", "icosim.analysis:audit_trace"),
    _ep("analysis._Auditor.on_event", "referee_s and run_s on sweep",
        "icosim.analysis:_Auditor.on_event"),
    _ep("analysis._Auditor.on_step3", "referee_s and run_s on sweep",
        "icosim.analysis:_Auditor.on_step3"),
    _ep("analysis._Auditor.on_block", "referee_s and run_s on sweep",
        "icosim.analysis:_Auditor.on_block"),
    _ep("analysis._Auditor.on_alloc", "referee_s and run_s on sweep",
        "icosim.analysis:_Auditor.on_alloc"),
    _ep("analysis._Auditor.finish", "referee_s and run_s on sweep",
        "icosim.analysis:_Auditor.finish"),
    _ep("cli.main", "run_s on corpus", "icosim.cli:main"),
    _ep("cli.build_parser", "run_s on corpus", "icosim.cli:build_parser"),
)

LAYERS: tuple[str, ...] = tuple(dict.fromkeys(e.layer for e in ENTRY_POINTS))

# Entry points that may record zero calls on a workload: idle by design
# (sweep never withdraws or pokes, corpus has no strategies) or only on
# some seeds (churn's whale scales a bucket on some).  Every other entry
# point must record calls on that workload, or the traced run fails.
# That covers the spans each workload exists for (Bucket.remove,
# Sale.poke and voluntary_withdraw on churn; kick_bucket,
# recompute_valuation and on_step3 on sweep; build_parser on corpus), and
# it is also the check that every wrap took effect: no entry point may be
# idle on every workload, so each one is seen called somewhere.
MAY_BE_IDLE: dict[str, frozenset[str]] = {
    "churn": frozenset({"book.OrderBook.scale_bucket"}),
    "sweep": frozenset({"engine.Sale.voluntary_withdraw", "engine.Sale.poke",
                        "book.BucketList.insert_scanned", "book.Bucket.remove",
                        "book.verify_poke", "pricing.voluntary_refund",
                        "pricing.committed_balance"}),
    "corpus": frozenset({"agents.Strategy.actions"}),
}
_NEVER_REQUIRED = frozenset.intersection(*MAY_BE_IDLE.values())
if _NEVER_REQUIRED:
    raise ValueError(f"entry points idle on every workload: {sorted(_NEVER_REQUIRED)}")


def _resolve(site: str) -> list[tuple[object, str]]:
    """The (owner, attribute) pairs a site names; empty if it is gone."""
    module_name, path = site.split(":")
    try:
        owner = importlib.import_module(module_name)
    except ImportError:
        return []
    if path.startswith("*"):
        base_name, attr = path[1:].split(".")
        base = getattr(owner, base_name, None)
        if not isinstance(base, type):
            return []
        return [(cls, attr) for cls in vars(owner).values()
                if isinstance(cls, type) and issubclass(cls, base)
                and cls is not base and attr in vars(cls)]
    *parents, attr = path.split(".")
    for part in parents:
        owner = getattr(owner, part, None)
        if owner is None:
            return []
    present = attr in vars(owner) if isinstance(owner, type) else hasattr(owner, attr)
    return [(owner, attr)] if present else []


class Tracer:
    """Wraps every entry point while recording and records one span per call."""

    def __init__(self) -> None:
        self.names = [e.name for e in ENTRY_POINTS]
        self.missing: list[str] = []        # entry points no longer in the program
        self.reset()

    def reset(self) -> None:
        self.span_name = array("i")
        self.span_parent = array("i")
        self.span_start = array("q")
        self.span_end = array("q")
        self._stack: list[int] = []

    def _wrap(self, name_id: int, fn):
        names, parents = self.span_name, self.span_parent
        starts, ends, stack = self.span_start, self.span_end, self._stack
        clock = time.perf_counter_ns

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(starts)
            names.append(name_id)
            parents.append(stack[-1] if stack else -1)
            starts.append(0)
            ends.append(0)
            stack.append(index)
            starts[index] = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                ends[index] = clock()
                stack.pop()
        return traced

    @contextlib.contextmanager
    def recording(self):
        """Wrap every entry point still present and record fresh spans."""
        self.reset()
        self.missing = []
        installed = []
        try:
            for name_id, entry in enumerate(ENTRY_POINTS):
                targets = [t for site in entry.sites for t in _resolve(site)]
                if not targets:
                    self.missing.append(entry.name)
                for owner, attr in targets:
                    original = vars(owner)[attr]
                    setattr(owner, attr, self._wrap(name_id, original))
                    installed.append((owner, attr, original))
            yield self
        finally:
            for owner, attr, original in reversed(installed):
                setattr(owner, attr, original)

    def summary(self) -> dict[str, float]:
        """``<entry>.calls`` and ``.self_s``, ``<layer>.self_s`` and ``root_s``."""
        n = len(self.span_start)
        durations = [self.span_end[i] - self.span_start[i] for i in range(n)]
        covered = [0] * n
        for i, parent in enumerate(self.span_parent):
            if parent >= 0:
                covered[parent] += durations[i]
        calls = [0] * len(self.names)
        self_ns = [0] * len(self.names)
        root_ns = 0
        for i, name_id in enumerate(self.span_name):
            calls[name_id] += 1
            self_ns[name_id] += durations[i] - covered[i]
            if self.span_parent[i] < 0:
                root_ns += durations[i]
        out: dict[str, float] = {layer: 0.0 for layer in LAYERS}
        for k, entry in enumerate(ENTRY_POINTS):
            if entry.name not in self.missing:
                out[f"{entry.name}.calls"] = calls[k]
                out[f"{entry.name}.self_s"] = self_ns[k] / 1e9
                out[entry.layer] += self_ns[k] / 1e9
        for layer in LAYERS:
            out[f"{layer}.self_s"] = out.pop(layer)
        out["root_s"] = root_ns / 1e9
        return out

    def dump(self, path) -> None:
        """Write the recorded spans: name, start ns, end ns, parent span index."""
        rows = ["name\tstart_ns\tend_ns\tparent"]
        rows += [f"{self.names[self.span_name[i]]}\t{self.span_start[i]}\t"
                 f"{self.span_end[i]}\t{self.span_parent[i]}"
                 for i in range(len(self.span_start))]
        path.write_text("\n".join(rows) + "\n", encoding="utf-8")
