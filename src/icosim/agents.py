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
from .book import HEAD
from .engine import Sale, SaleConfig
from .errors import IcoError, NonMonotoneTable
from .pricing import PriceCurve
from .scenario import ScenarioSpec, ScheduledEvent, StrategyDecl
from .trace import Trace, TraceBuilder

# --- demand tables ------------------------------------------------------------


@dataclass(frozen=True)
class TableStep:
    """One level of a demand schedule: want ``amount`` while V < cap."""

    cap: int
    amount: int
    minimum: int | None = None


@dataclass(frozen=True)
class ValuationTable:
    steps: tuple[TableStep, ...]

    def __post_init__(self) -> None:
        caps = [s.cap for s in self.steps]
        amounts = [s.amount for s in self.steps]
        if any(a <= 0 for a in amounts) or any(c <= 0 for c in caps):
            raise NonMonotoneTable("table entries must be positive")
        if caps != sorted(set(caps)):
            raise NonMonotoneTable(f"caps must strictly increase, got {caps}")
        if amounts != sorted(set(amounts), reverse=True):
            raise NonMonotoneTable(
                f"amounts must strictly decrease, got {amounts}")

    def evaluate(self, valuation: int) -> int:
        """Demand at a given valuation: the Σ of bids whose cap exceeds it."""
        for step in self.steps:
            if step.cap > valuation:
                return step.amount
        return 0


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


@dataclass(frozen=True)
class Action:
    actor: str
    kind: str  # bid | withdraw | poke
    params: dict


class Strategy:
    """Base: a roster member asked once per block for its transactions."""

    actor: str

    def actions(self, view: StageView) -> list[Action]:
        raise NotImplementedError

    def _bid(self, actor: str, v: int, cap: int, minimum: int | None = None,
             fee: int = 0) -> Action:
        return Action(actor, "bid",
                      {"v": v, "cap": cap, "m": minimum, "fee": fee,
                       "advice": "auto"})


class Passive(Strategy):
    """Single bid at a fixed stage, then silence."""

    def __init__(self, actor: str, v: int, cap: int, entry: int = 0,
                 minimum: int | None = None, fee: int = 0) -> None:
        self.actor = actor
        self.v, self.cap, self.entry = v, cap, entry
        self.minimum, self.fee = minimum, fee

    def actions(self, view):
        if view.stage != self.entry:
            return []
        return [self._bid(self.actor, self.v, self.cap, self.minimum, self.fee)]


class TableBidder(Strategy):
    """Posts a whole demand schedule as independent bids at one stage."""

    def __init__(self, actor: str, table: ValuationTable, entry: int = 0) -> None:
        self.actor = actor
        self.table = table
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


def _steps_from_text(text: str) -> ValuationTable:
    steps = []
    for part in text.split(","):
        bits = part.split(":")
        if len(bits) not in (2, 3):
            raise NonMonotoneTable(f"bad table step {part!r}")
        cap, amount = int(bits[0]), int(bits[1])
        minimum = int(bits[2]) if len(bits) == 3 else None
        steps.append(TableStep(cap, amount, minimum))
    return ValuationTable(tuple(steps))


def build_strategy(decl: StrategyDecl) -> Strategy:
    p = decl.params

    def opt_int(key: str, default: int = 0) -> int:
        raw = p.get(key)
        return default if raw in (None, "-") else int(raw)

    if decl.kind == "passive":
        minimum = None if p.get("m", "-") == "-" else int(p["m"])
        return Passive(decl.actor, int(p["v"]), int(p["cap"]),
                       entry=int(p["entry"]), minimum=minimum,
                       fee=opt_int("fee"))
    if decl.kind == "table":
        return TableBidder(decl.actor, _steps_from_text(p["steps"]),
                           entry=int(p["entry"]))
    if decl.kind == "reactive":
        return Reactive(decl.actor, int(p["v"]), int(p["cap"]),
                        int(p["threshold"]), delay=opt_int("delay", 1))
    if decl.kind == "blackout":
        return BlindManipulator(decl.actor, int(p["stake"]), int(p["stake_cap"]),
                                int(p["blind"]), int(p["blind_cap"]),
                                int(p["withdraw"]))
    if decl.kind == "whale":
        return WhalePushout(decl.actor, int(p["v"]), int(p["cap"]),
                            entry=int(p["entry"]))
    if decl.kind == "sniper":
        return Sniper(decl.actor, int(p["v"]), int(p["cap"]),
                      entry=int(p["entry"]), withdraw=int(p["withdraw"]))
    raise ValueError(f"unknown strategy kind {decl.kind!r}")


# --- scenario runner -----------------------------------------------------------


@dataclass
class RunResult:
    sale: Sale
    trace: Trace


def _event_action(event: ScheduledEvent) -> Action:
    p = event.params
    if event.action == "bid":
        return Action(event.actor, "bid", {
            "v": int(p["v"]), "cap": int(p["cap"]),
            "m": None if p.get("m", "-") == "-" else int(p["m"]),
            "fee": int(p.get("fee", "0") or 0),
            "advice": p.get("advice", "auto"),
        })
    if event.action == "withdraw":
        return Action(event.actor, "withdraw", {})
    if event.action == "poke":
        return Action(event.actor, "poke", {
            "x": int(p["x"]), "target": p["target"].split("+")})
    raise ValueError(f"unknown event action {event.action!r}")


def _apply(sale: Sale, action: Action, builder: TraceBuilder) -> None:
    stage = sale.stage_index
    if action.kind == "bid":
        p = action.params
        hint = p.get("advice", "auto")
        if hint == "auto":
            hint = sale.compute_advice(p["cap"], p["m"])
        elif hint == "head":
            hint = HEAD
        elif hint in ("-", None):
            hint = None
        else:
            hint = int(hint)
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
    schedule: dict[int, list[ScheduledEvent]] = {}
    for event in spec.events:
        schedule.setdefault(event.stage, []).append(event)

    u = spec.config.u
    for stage in range(u + 1):
        view = StageView(stage, sale.V)
        actions = [_event_action(e) for e in schedule.get(stage, [])]
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
            "stake": str(x), "stake_cap": str(cap), "blind": str(blind),
            "blind_cap": str(cap), "withdraw": str(withdraw)}),
        StrategyDecl("ty", "reactive", {
            "v": str(y), "cap": str(cap), "threshold": str(x), "delay": "1"}),
    ])
    base = ScenarioSpec(config=config, seed=0, strategies=[
        StrategyDecl("mx", "passive", {"entry": "0", "v": str(x),
                                       "cap": str(cap)}),
        StrategyDecl("ty", "passive", {"entry": "0", "v": str(y),
                                       "cap": str(cap)}),
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
