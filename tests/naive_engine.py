"""Reference engine for equivalence tests: per-bid exact rationals in a
sorted array, no buckets, no pointer, no gas.

Deliberately structured nothing like the production engine: every active
bid carries its own exact scaled value, groups are rebuilt from scratch
on demand, and the valuation is recomputed by summing group floors.  It
shares only the protocol's rounding contract (floors at group level and
at payout) and the validation rules, so any disagreement in results
points at a real defect rather than a modeling choice.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction

from icosim.book import HEAD
from icosim.scenario import AUTO


@dataclass
class NaiveBid:
    address: str
    v: int
    cap: int
    minimum: int | None
    fee: int
    entry_stage: int
    b: int
    status: str = "active"  # active | dormant | permanent | used
    value: Fraction = Fraction(0)
    tok: Fraction = Fraction(0)
    perm_v: int = 0
    perm_b: int = 0


@dataclass
class NaiveConfig:
    t: int
    u: int
    granularity: int
    p0: Fraction
    pt: Fraction
    pu: Fraction
    penalty_free: bool = False
    min_bid_deadline: int | None = None


class NaiveSale:
    def __init__(self, cfg: NaiveConfig) -> None:
        self.cfg = cfg
        self.stage = 0
        self.bids: dict[str, NaiveBid] = {}
        self.refunds: dict[str, int] = {}
        self.fee_earnings: dict[str, int] = {}
        self.seen_pokes: set[tuple[int, frozenset[str]]] = set()
        self.block_v: list[int] = []
        self.events: list[tuple[str, str, str]] = []  # actor, action, ok|code
        self.allocations: dict[str, int] = {}
        self.final_refunds: dict[str, int] = {}
        self.retained: dict[str, int] = {}
        self.final_v: int | None = None

    # -- price ramp, written out longhand --

    def power(self, s: int) -> Fraction:
        c = self.cfg
        if c.t > 0 and s <= c.t:
            return c.p0 + (c.pt - c.p0) * Fraction(s, c.t)
        return c.pt + (c.pu - c.pt) * Fraction(s - c.t, c.u - c.t)

    # -- views --

    def active_groups(self) -> dict[int, list[NaiveBid]]:
        groups: dict[int, list[NaiveBid]] = {}
        for bid in self.bids.values():
            if bid.status == "active":
                groups.setdefault(bid.cap, []).append(bid)
        return groups

    def valuation(self) -> int:
        return sum(math.floor(sum(b.value for b in group))
                   for group in self.active_groups().values())

    def _credit(self, address: str, amount: int) -> None:
        if amount:
            self.refunds[address] = self.refunds.get(address, 0) + amount

    # -- transactions --

    def submit(self, address: str, v: int, cap: int, minimum: int | None,
               fee: int, advice) -> str:
        code = self._submit_code(address, v, cap, minimum, fee, advice)
        if code == "ok":
            b = math.floor(v * self.power(self.stage))
            bid = NaiveBid(address, v, cap, minimum, fee, self.stage, b)
            if minimum is None:
                bid.value = Fraction(v)
                bid.tok = Fraction(b)
            else:
                bid.status = "dormant"
            self.bids[address] = bid
        self.events.append((address, "bid", code))
        return code

    def _submit_code(self, address, v, cap, minimum, fee, advice) -> str:
        g = self.cfg.granularity
        if address in self.bids:
            return "AddressReused"
        if not isinstance(v, int) or v <= 0:
            return "NegativeAmount"
        if not isinstance(fee, int) or fee < 0:
            return "NegativeAmount"
        if cap <= 0 or cap % g:
            return "CapNotAligned"
        if minimum is None:
            if fee:
                return "InvalidMinimum"
        else:
            if minimum <= 0 or minimum % g:
                return "InvalidMinimum"
            if minimum >= cap:
                return "InvalidMinimum"
            deadline = self.cfg.min_bid_deadline
            if deadline is not None and self.stage > deadline:
                return "InvalidMinimum"
        if self.stage >= self.cfg.t and cap <= self.valuation():
            return "CapTooLow"
        return self._advice_code(cap if minimum is None else minimum,
                                 minimum is None, advice)

    def _advice_code(self, key: int, active: bool, advice) -> str:
        """The book's check of an insertion hint, over the keys it holds:
        caps of active bids, or minimums of dormant ones.  Joining an
        existing key needs no hint; a new key needs the largest smaller
        key, or HEAD when there is none."""
        if advice == AUTO:
            return "ok"
        if active:
            keys = {b.cap for b in self.bids.values() if b.status == "active"}
        else:
            keys = {b.minimum for b in self.bids.values() if b.status == "dormant"}
        if key in keys:
            return "ok"
        if advice is None:
            return "AdviceRequired"
        predecessor = max((k for k in keys if k < key), default=HEAD)
        return "ok" if advice == predecessor else "BadAdvice"

    def withdraw(self, address: str) -> str:
        bid = self.bids.get(address)
        if bid is None:
            code = "UnknownBid"
        elif self.stage >= self.cfg.t:
            code = "WithdrawalLocked"
        elif bid.status == "dormant":
            bid.status = "used"
            self._credit(address, bid.v + bid.fee)
            code = "ok"
        elif bid.status != "active":
            code = "NotActive"
        elif self.cfg.penalty_free:
            bid.status = "used"
            self._credit(address, bid.v)
            code = "ok"
        else:
            refund = bid.v * (self.cfg.t - self.stage) // self.cfg.t
            pa = self.power(bid.entry_stage)
            bid.perm_v = bid.v - refund
            bid.perm_b = math.floor(
                Fraction(bid.v * self.stage, self.cfg.t)
                * (pa - (pa - self.cfg.pu) / 3))
            bid.status = "permanent"
            self._credit(address, refund)
            code = "ok"
        self.events.append((address, "withdraw", code))
        return code

    def poke(self, x: int, target: list[str], poker: str) -> str:
        code = self._poke_code(x, target)
        if code == "ok":
            self.seen_pokes.add((x, frozenset(target)))
            minimums = sorted({self.bids[a].minimum for a in target
                               if self.bids[a].status == "dormant"})
            fee_total = 0
            for m in minimums:
                for bid in self.bids.values():
                    if bid.status == "dormant" and bid.minimum == m:
                        bid.status = "active"
                        bid.value = Fraction(bid.v)
                        bid.tok = Fraction(bid.b)
                        fee_total += bid.fee
            if fee_total:
                self.fee_earnings[poker] = self.fee_earnings.get(poker, 0) + fee_total
        self.events.append((poker, "poke", code))
        return code

    def _poke_code(self, x: int, target: list[str]) -> str:
        if not isinstance(x, int) or x <= 0:
            return "NegativeAmount"
        if not target or len(set(target)) != len(target):
            return "InvalidTarget"
        for address in target:
            bid = self.bids.get(address)
            if bid is None:
                return "UnknownBid"
            if bid.status not in ("dormant", "active"):
                return "InvalidTarget"
        bids = [self.bids[a] for a in target]
        if any(b.minimum is not None and b.minimum > x for b in bids):
            return "InvalidTarget"
        if sum(b.v for b in bids) < x:
            return "InvalidTarget"
        if (x, frozenset(target)) in self.seen_pokes:
            return "DuplicatePoke"
        return "ok"

    # -- block close --

    def sweep(self) -> None:
        while True:
            groups = self.active_groups()
            if not groups:
                return
            v_now = self.valuation()
            low = min(groups)
            if v_now <= low:
                return
            group = groups[low]
            live = math.floor(sum(b.value for b in group))
            if v_now - live >= low:
                for bid in group:
                    bid.status = "used"
                    self._credit(bid.address, bid.v)
            else:
                keep = 1 - Fraction(v_now - low, live)
                for bid in group:
                    bid.value *= keep
                    bid.tok *= keep

    def close_block(self) -> None:
        if self.stage >= self.cfg.t:
            self.sweep()
        self.block_v.append(self.valuation())
        self.stage += 1

    def finalize(self) -> None:
        assert self.stage == self.cfg.u
        self.sweep()
        self.final_v = self.valuation()
        self.block_v.append(self.final_v)
        for bid in self.bids.values():
            if bid.status == "active":
                kept = math.floor(bid.value)
                self.allocations[bid.address] = math.floor(bid.tok)
                self.retained[bid.address] = kept
                self.final_refunds[bid.address] = bid.v - kept
                self._credit(bid.address, bid.v - kept)
            elif bid.status == "dormant":
                self.allocations[bid.address] = 0
                self.retained[bid.address] = 0
                self.final_refunds[bid.address] = bid.v + bid.fee
                self._credit(bid.address, bid.v + bid.fee)
            elif bid.status == "permanent":
                self.allocations[bid.address] = bid.perm_b
                self.retained[bid.address] = 0
            else:
                self.allocations[bid.address] = 0
                self.retained[bid.address] = 0


def run_naive(spec) -> NaiveSale:
    """Drive the oracle from a parsed scenario's explicit events."""
    cfg = NaiveConfig(
        t=spec.config.t, u=spec.config.u, granularity=spec.config.granularity,
        p0=Fraction(spec.config.curve.p0), pt=Fraction(spec.config.curve.pt),
        pu=Fraction(spec.config.curve.pu),
        penalty_free=spec.config.penalty_free_withdrawal,
        min_bid_deadline=spec.config.min_bid_deadline)
    sale = NaiveSale(cfg)
    for stage in range(cfg.u + 1):
        for action in spec.events.get(stage, ()):
            p = action.params
            if action.kind == "bid":
                sale.submit(action.actor, p["v"], p["cap"], p["m"], p["fee"],
                            p["advice"])
            elif action.kind == "withdraw":
                sale.withdraw(action.actor)
            elif action.kind == "poke":
                sale.poke(p["x"], p["target"], action.actor)
        if stage < cfg.u:
            sale.close_block()
        else:
            sale.finalize()
    return sale
