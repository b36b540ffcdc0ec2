"""Bidder strategies, the scenario runner and the paired signaling run.

Strategies are asked once per block, with the stage number and the
valuation left by the previous block, and answer with transaction rows
in the scenario's own shape (``scenario``'s module docstring).  Every
fixed kind is one ``Planned`` schedule of rows by stage; only
``Reactive`` watches the book.
The runner applies explicitly scheduled transactions first (file
order), then asks each strategy in roster order, so a scenario is fully
determined by its normalized form.
"""

from __future__ import annotations

import math
from collections.abc import Callable
from dataclasses import dataclass
from fractions import Fraction

from .analysis import SignalParams, signaling_advantage
from .engine import Sale, SaleConfig
from .errors import IcoError
from .pricing import PriceCurve
from .scenario import AUTO, ScenarioSpec, StrategyDecl, TableStep, ValuationTable
from .trace import Trace, TraceBuilder

# --- demand tables ------------------------------------------------------------


@dataclass(frozen=True)
class BidSpec:
    v: int
    cap: int
    minimum: int | None = None


def bids_from_table(table: ValuationTable) -> list[BidSpec]:
    """Decompose a demand schedule into independent capped bids.

    Level k of the schedule exceeds level k+1 by some amount; that excess
    is exactly the bid that should die once V reaches cap_k.
    """
    out = []
    steps = table.steps
    for i, step in enumerate(steps):
        nxt = steps[i + 1].amount if i + 1 < len(steps) else 0
        out.append(BidSpec(step.amount - nxt, step.cap, step.minimum))
    return out


def table_from_bids(specs) -> ValuationTable:
    """Inverse of bids_from_table, for round-trip checks."""
    by_cap: dict[int, int] = {}
    for spec in specs:
        by_cap[spec.cap] = by_cap.get(spec.cap, 0) + spec.v
    caps = sorted(by_cap)
    steps = []
    for i, cap in enumerate(caps):
        steps.append(TableStep(cap, sum(by_cap[c] for c in caps[i:])))
    return ValuationTable(tuple(steps))


# --- strategies ---------------------------------------------------------------


class Strategy:
    """Base: a roster member asked once per block for its transaction
    rows, given the stage and the valuation the previous block left."""

    def actions(self, stage: int, valuation: int) -> list[tuple]:
        raise NotImplementedError


def _bid(actor: str, v: int, cap: int, minimum: int | None = None,
         fee: int = 0) -> tuple:
    return (actor, "bid", v, cap, minimum, fee, AUTO)


class Planned(Strategy):
    """A buyer who states up front what to send at each stage, and never
    looks at the book."""

    def __init__(self, plan: dict[int, list[tuple]]) -> None:
        self.plan = plan

    def actions(self, stage, valuation):
        return self.plan.get(stage, [])


# Each builder below makes one fixed kind's plan.  Where a withdraw stage
# equals the bid stage, the bids overwrite the withdraw: only they are sent.


def passive(actor: str, entry: int, v: int, cap: int, m: int | None = None,
            fee: int = 0) -> Planned:
    """Single bid at a fixed stage, then silence.  Also the ``whale`` kind:
    a large post-lock entry aimed at displacing low-cap incumbents."""
    return Planned({entry: [_bid(actor, v, cap, m, fee)]})


def table(actor: str, entry: int, steps: ValuationTable) -> Planned:
    """Posts a whole demand schedule as independent bids at one stage."""
    return Planned({entry: [_bid(f"{actor}.{i}", s.v, s.cap, s.minimum)
                            for i, s in enumerate(bids_from_table(steps))]})


def blackout(actor: str, stake: int, stake_cap: int, blind: int, blind_cap: int,
             withdraw: int) -> Planned:
    """Real stake plus disposable blind capital pulled before the lock.

    The blind tranche exists to inflate the valuation other bidders see;
    pulling it at the withdraw stage leaves only the real stake behind.
    """
    plan = {withdraw: [(f"{actor}.e", "withdraw")]}
    plan[0] = [_bid(f"{actor}.s", stake, stake_cap), _bid(f"{actor}.e", blind, blind_cap)]
    return Planned(plan)


def sniper(actor: str, entry: int, withdraw: int, v: int, cap: int) -> Planned:
    """Bids, then tries to leave at a fixed stage (post-lock attempts are
    recorded as rejections rather than suppressed)."""
    plan = {withdraw: [(actor, "withdraw")]}
    plan[entry] = [_bid(actor, v, cap)]
    return Planned(plan)


class Reactive(Strategy):
    """Waits out crowded books: bids once V sinks to the threshold.

    The delay models observation latency; the strategy cannot act before
    stage ``delay`` even if the book already looks attractive.
    """

    def __init__(self, actor: str, v: int, cap: int, threshold: int,
                 delay: int = 1) -> None:
        self.actor = actor
        self.v, self.cap = v, cap
        self.threshold, self.delay = threshold, delay
        self.done = False

    def actions(self, stage, valuation):
        if self.done or stage < self.delay or valuation > self.threshold:
            return []
        self.done = True
        return [_bid(self.actor, self.v, self.cap)]


# keyword arguments are the scenario's field names (scenario.STRATEGY_KINDS)
STRATEGIES: dict[str, Callable[..., Strategy]] = {
    "passive": passive, "table": table, "reactive": Reactive,
    "blackout": blackout, "whale": passive, "sniper": sniper,
}


def build_strategy(decl: StrategyDecl) -> Strategy:
    if decl.kind not in STRATEGIES:
        raise ValueError(f"unknown strategy kind {decl.kind!r}")
    return STRATEGIES[decl.kind](decl.actor, **decl.params)


# --- scenario runner -----------------------------------------------------------


@dataclass
class RunResult:
    sale: Sale
    trace: Trace


def _apply(sale: Sale, row: tuple, builder: TraceBuilder) -> None:
    """Send one transaction row and write its ``ev`` record: the values
    that were sent, with a bid's advice as computed, and the receipt of
    an accepted transaction."""
    stage, actor, kind = sale.stage_index, row[0], row[1]
    receipt = None
    try:
        if kind == "bid":
            _, _, v, cap, m, fee, hint = row
            if hint == AUTO:
                hint = sale.compute_advice(cap, m)
            values = (v, cap, m, fee, hint)
            receipt = sale.submit_bid(actor, v, cap, minimum=m, fee=fee, advice=hint)
        elif kind == "withdraw":
            values = ()
            receipt = sale.voluntary_withdraw(actor)
        elif kind == "poke":
            values = row[2:]
            receipt = sale.poke(row[2], row[3], actor)
        else:
            raise ValueError(f"unknown action kind {kind!r}")
        outcome = "ok"
    except IcoError as err:
        outcome = f"err:{err.code}"
    builder.event(stage, actor, kind, outcome, values, receipt)


def run_scenario(spec: ScenarioSpec, sink=None) -> RunResult:
    """Play a scenario to settlement and return the sale plus its trace.

    With a ``sink``, the trace is handed to it in blocks as it is made
    (see ``TraceBuilder``), and the returned trace holds only the rest."""
    sale = Sale(spec.config)
    strategies = [build_strategy(d) for d in spec.strategies]
    builder = TraceBuilder(spec.normalize(), sink)
    u = spec.config.u
    for stage in range(u + 1):
        rows = list(spec.events.get(stage, ()))  # a copy: a spec may be run again
        for strategy in strategies:
            rows.extend(strategy.actions(stage, sale.V))
        for row in rows:
            _apply(sale, row, builder)
        if stage < u:
            builder.block(sale.advance_block())
    builder.block(sale.finalize())
    for address in sorted(sale.bids):
        bid = sale.bids[address]
        status = bid.status._value_  # the member's own slot, not the Enum property
        if bid.exit_reason:
            status = f"{status}:{bid.exit_reason}"
        builder.allocation(address, bid.tokens, bid.retained, bid.refund_final, status)
    builder.final(sale.final_V, u, sale.proceeds)
    return RunResult(sale=sale, trace=builder.build())


# --- paired signaling experiment ------------------------------------------------


@dataclass(frozen=True)
class SignalOutcome:
    """Measured effect of a blind-capital scare, next to the closed form.

    ``advantage`` is the token-share gain of the manipulator's real stake
    over the honest baseline, blind-tranche tokens excluded (they are the
    cost side, accounted as ``forfeited_bonus``).  ``net_gain`` subtracts
    the forfeit rate; past the breakeven threshold it goes negative.
    """

    params: SignalParams
    elapsed: Fraction                 # withdraw stage over lock stage
    attack_tokens: tuple[int, int, int]  # stake, rival, blind tranche
    base_tokens: tuple[int, int]
    attack_fraction: Fraction
    base_fraction: Fraction
    advantage: Fraction
    predicted_advantage: Fraction
    forfeited_bonus: int
    forfeit_rate: Fraction
    net_gain: Fraction
    attack_trace: Trace
    base_trace: Trace


def signaling_experiment(a: Fraction, b: Fraction, x: int, y: int, *,
                         t: int = 4, u: int = 6, blind: int | None = None,
                         penalty_free: bool = True) -> SignalOutcome:
    """Run attack and baseline worlds and compare token shares.

    The curve ramps from 1+a at stage 0 to 1+b at the lock stage t; the
    manipulator enters both tranches at 0 and pulls the blind one at
    t - 1, so the scared rival enters exactly at the lock rate.
    """
    if blind is None:
        blind = 4 * (x + y)
    for name, value in (("x", x), ("y", y), ("blind", blind)):
        if value <= 0:
            raise ValueError(f"{name} must be a positive amount, got {value}")
    withdraw = t - 1
    if withdraw < 1:
        raise ValueError("need t >= 2 so the blind tranche can be pulled")
    a, b = Fraction(a), Fraction(b)
    params = SignalParams(a, b, Fraction(x), Fraction(y))
    cap = x + y + blind + 1  # above any reachable valuation, never trimmed
    curve = PriceCurve(1 + a, 1 + b, Fraction(1), t, u)
    config = SaleConfig(t=t, u=u, granularity=1, curve=curve,
                        penalty_free_withdrawal=penalty_free)

    attack = ScenarioSpec(config=config, seed=0, strategies=[
        StrategyDecl("mx", "blackout", {
            "stake": x, "stake_cap": cap, "blind": blind, "blind_cap": cap,
            "withdraw": withdraw}),
        StrategyDecl("ty", "reactive", {
            "v": y, "cap": cap, "threshold": x, "delay": 1}),
    ])
    base = ScenarioSpec(config=config, seed=0, strategies=[
        StrategyDecl("mx", "passive", {"entry": 0, "v": x, "cap": cap}),
        StrategyDecl("ty", "passive", {"entry": 0, "v": y, "cap": cap}),
    ])
    run_a = run_scenario(attack)
    run_b = run_scenario(base)

    bids_a, bids_b = run_a.sale.bids, run_b.sale.bids
    tok_x, tok_y, tok_e = bids_a["mx.s"].tokens, bids_a["ty"].tokens, bids_a["mx.e"].tokens
    base_x, base_y = bids_b["mx"].tokens, bids_b["ty"].tokens
    attack_fraction = Fraction(tok_x, tok_x + tok_y)
    base_fraction = Fraction(base_x, base_x + base_y)
    advantage = attack_fraction - base_fraction

    if penalty_free:
        forfeited = 0
    else:
        # a permanent bid is credited once, at its withdrawal (nothing when
        # its refund floors to 0): the rest of its capital is perm_v
        perm_v = bids_a["mx.e"].v - run_a.sale.ledger.entries.get("mx.e", 0)
        forfeited = math.floor(perm_v * (1 + a)) - tok_e
    forfeit_rate = Fraction(forfeited, blind)
    return SignalOutcome(
        params=params, elapsed=Fraction(withdraw, t),
        attack_tokens=(tok_x, tok_y, tok_e), base_tokens=(base_x, base_y),
        attack_fraction=attack_fraction, base_fraction=base_fraction,
        advantage=advantage, predicted_advantage=signaling_advantage(params),
        forfeited_bonus=forfeited, forfeit_rate=forfeit_rate,
        net_gain=advantage - forfeit_rate,
        attack_trace=run_a.trace, base_trace=run_b.trace)
