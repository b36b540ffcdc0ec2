"""Bidder strategies, the scenario runner and the paired signaling run.

Strategies are small state machines fed one view per block: the stage
number and the valuation left by the previous block.  The runner applies
explicitly scheduled transactions first (file order), then asks each
strategy in roster order, so a scenario is fully determined by its
normalized form.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from .analysis import SignalParams, signaling_advantage
from .engine import Sale, SaleConfig
from .errors import IcoError
from .pricing import PriceCurve
from .scenario import AUTO, Action, ScenarioSpec, StrategyDecl, TableStep, ValuationTable
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


@dataclass(frozen=True)
class StageView:
    stage: int
    valuation: int


class Strategy:
    """Base: a roster member asked once per block for its transactions."""

    actor: str

    def actions(self, view: StageView) -> list[Action]:
        raise NotImplementedError

    def _bid(self, actor: str, v: int, cap: int, minimum: int | None = None,
             fee: int = 0) -> Action:
        return Action(actor, "bid",
                      {"v": v, "cap": cap, "m": minimum, "fee": fee,
                       "advice": AUTO})


class Passive(Strategy):
    """Single bid at a fixed stage, then silence."""

    def __init__(self, actor: str, v: int, cap: int, entry: int = 0,
                 m: int | None = None, fee: int = 0) -> None:
        self.actor = actor
        self.v, self.cap, self.entry = v, cap, entry
        self.minimum, self.fee = m, fee

    def actions(self, view):
        if view.stage != self.entry:
            return []
        return [self._bid(self.actor, self.v, self.cap, self.minimum, self.fee)]


class TableBidder(Strategy):
    """Posts a whole demand schedule as independent bids at one stage."""

    def __init__(self, actor: str, steps: ValuationTable, entry: int = 0) -> None:
        self.actor = actor
        self.table = steps
        self.entry = entry

    def actions(self, view):
        if view.stage != self.entry:
            return []
        return [self._bid(f"{self.actor}.{i}", s.v, s.cap, s.minimum)
                for i, s in enumerate(bids_from_table(self.table))]


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

    def actions(self, view):
        if self.done or view.stage < self.delay or view.valuation > self.threshold:
            return []
        self.done = True
        return [self._bid(self.actor, self.v, self.cap)]


class BlindManipulator(Strategy):
    """Real stake plus disposable blind capital pulled before the lock.

    The blind tranche exists to inflate the valuation other bidders see;
    pulling it at the withdraw stage leaves only the real stake behind.
    """

    def __init__(self, actor: str, stake: int, stake_cap: int, blind: int,
                 blind_cap: int, withdraw: int) -> None:
        self.actor = actor
        self.stake, self.stake_cap = stake, stake_cap
        self.blind, self.blind_cap = blind, blind_cap
        self.withdraw = withdraw

    @property
    def stake_address(self) -> str:
        return f"{self.actor}.s"

    @property
    def blind_address(self) -> str:
        return f"{self.actor}.e"

    def actions(self, view):
        if view.stage == 0:
            return [self._bid(self.stake_address, self.stake, self.stake_cap),
                    self._bid(self.blind_address, self.blind, self.blind_cap)]
        if view.stage == self.withdraw:
            return [Action(self.blind_address, "withdraw", {})]
        return []


class WhalePushout(Strategy):
    """Large post-lock entry aimed at displacing low-cap incumbents."""

    def __init__(self, actor: str, v: int, cap: int, entry: int) -> None:
        self.actor = actor
        self.v, self.cap, self.entry = v, cap, entry

    def actions(self, view):
        if view.stage != self.entry:
            return []
        return [self._bid(self.actor, self.v, self.cap)]


class Sniper(Strategy):
    """Bids, then tries to leave at a fixed stage (post-lock attempts are
    recorded as rejections rather than suppressed)."""

    def __init__(self, actor: str, v: int, cap: int, entry: int,
                 withdraw: int) -> None:
        self.actor = actor
        self.v, self.cap = v, cap
        self.entry, self.withdraw = entry, withdraw

    def actions(self, view):
        if view.stage == self.entry:
            return [self._bid(self.actor, self.v, self.cap)]
        if view.stage == self.withdraw:
            return [Action(self.actor, "withdraw", {})]
        return []


# keyword arguments are the scenario's field names (scenario.STRATEGY_KINDS)
STRATEGIES: dict[str, type[Strategy]] = {
    "passive": Passive, "table": TableBidder, "reactive": Reactive,
    "blackout": BlindManipulator, "whale": WhalePushout, "sniper": Sniper,
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


def _apply(sale: Sale, action: Action, builder: TraceBuilder) -> None:
    stage = sale.stage_index
    if action.kind == "bid":
        p = action.params
        hint = p["advice"]
        if hint == AUTO:
            hint = sale.compute_advice(p["cap"], p["m"])
        detail = {"v": p["v"], "cap": p["cap"], "m": p["m"], "fee": p["fee"],
                  "advice": hint}
        try:
            receipt = sale.submit_bid(action.actor, p["v"], p["cap"],
                                      minimum=p["m"], fee=p["fee"], advice=hint)
        except IcoError as err:
            builder.event(stage, action.actor, "bid", f"err:{err.code}", detail)
            return
        detail.update(b=receipt.b, status=receipt.status.value)
        builder.event(stage, action.actor, "bid", "ok", detail)
    elif action.kind == "withdraw":
        try:
            r = sale.voluntary_withdraw(action.actor)
        except IcoError as err:
            builder.event(stage, action.actor, "withdraw", f"err:{err.code}", {})
            return
        builder.event(stage, action.actor, "withdraw", "ok",
                      {"refund": r.refund, "fee_back": r.fee_returned,
                       "perm_v": r.permanent_v, "perm_b": r.permanent_b})
    elif action.kind == "poke":
        p = action.params
        detail = {"x": p["x"], "target": sorted(p["target"])}
        try:
            report = sale.poke(p["x"], p["target"], action.actor)
        except IcoError as err:
            builder.event(stage, action.actor, "poke", f"err:{err.code}", detail)
            return
        detail.update(activated=sorted(report.activated), fee=report.fee_total)
        builder.event(stage, action.actor, "poke", "ok", detail)
    else:
        raise ValueError(f"unknown action kind {action.kind!r}")


def run_scenario(spec: ScenarioSpec) -> RunResult:
    """Play a scenario to settlement and return the sale plus its trace."""
    sale = Sale(spec.config)
    strategies = [build_strategy(d) for d in spec.strategies]
    builder = TraceBuilder(spec.normalize())
    schedule: dict[int, list[Action]] = {}
    for event in spec.events:
        schedule.setdefault(event.stage, []).append(event.action)

    u = spec.config.u
    for stage in range(u + 1):
        view = StageView(stage, sale.V)
        actions = schedule.pop(stage, [])
        for strategy in strategies:
            actions.extend(strategy.actions(view))
        for action in actions:
            _apply(sale, action, builder)
        if stage < u:
            builder.block(sale.advance_block())
        else:
            sale.finalize()
            builder.block(sale.block_log[-1])
            for address in sorted(sale.bids):
                bid = sale.bids[address]
                status = bid.status.value
                if bid.exit_reason:
                    status = f"{status}:{bid.exit_reason}"
                builder.allocation(address, sale.allocations.get(address, 0),
                                   sale.retained.get(address, 0),
                                   sale.final_refunds.get(address, 0), status)
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
    a, b = Fraction(a), Fraction(b)
    params = SignalParams(a, b, Fraction(x), Fraction(y))
    if blind is None:
        blind = 4 * (x + y)
    withdraw = t - 1
    if withdraw < 1:
        raise ValueError("need t >= 2 so the blind tranche can be pulled")
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

    tok_x = run_a.sale.allocations["mx.s"]
    tok_y = run_a.sale.allocations.get("ty", 0)
    tok_e = run_a.sale.allocations.get("mx.e", 0)
    base_x = run_b.sale.allocations["mx"]
    base_y = run_b.sale.allocations["ty"]
    attack_fraction = Fraction(tok_x, tok_x + tok_y)
    base_fraction = Fraction(base_x, base_x + base_y)
    advantage = attack_fraction - base_fraction

    if penalty_free:
        forfeited = 0
    else:
        perm_v, perm_b = run_a.sale.permanent["mx.e"]
        forfeited = math.floor(perm_v * (1 + a)) - perm_b
    forfeit_rate = Fraction(forfeited, blind)
    return SignalOutcome(
        params=params, elapsed=Fraction(withdraw, t),
        attack_tokens=(tok_x, tok_y, tok_e), base_tokens=(base_x, base_y),
        attack_fraction=attack_fraction, base_fraction=base_fraction,
        advantage=advantage, predicted_advantage=signaling_advantage(params),
        forfeited_bonus=forfeited, forfeit_rate=forfeit_rate,
        net_gain=advantage - forfeit_rate,
        attack_trace=run_a.trace, base_trace=run_b.trace)
