"""Block-driven sale engine: bids, withdrawals, pokes and settlement.

One instance simulates one sale.  Each block, user transactions arrive
in order (submissions, voluntary withdrawals, pokes), then the block is
closed: from the lock stage onward the automatic-withdrawal loop trims
the book until no active bid's personal cap sits below the valuation,
charging gas per pointer move and deferring leftover work to the next
block when the meter runs dry.  At the final stage allocations become
claimable, pull-style, one claim per address.

The valuation V counts active capital only: dormant bids wait in the
minimum-keyed book, voluntarily withdrawn capital moves to a permanent
commitment outside V.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Iterable, Sequence

from .book import OrderBook, verify_poke
from .errors import (
    AddressReused, AlreadyClaimed, CapNotAligned, CapTooLow, ConservationDrift,
    DuplicatePoke, GasExhausted, InvalidMinimum, InvalidTarget, NotActive, NotEnded,
    SaleEnded, StageOutOfRange, UnknownBid, WithdrawalLocked,
)
from .gas import GasMeter, GasOp, GasSchedule
from .ledger import (
    Amount, Bid, BidStatus, ConservationReport, RefundLedger, conservation_audit,
    require_amount,
)
from .pricing import PriceCurve, committed_balance, purchase_power, voluntary_refund


@dataclass(frozen=True)
class SaleConfig:
    t: int
    u: int
    granularity: Amount
    curve: PriceCurve
    gas: GasSchedule = GasSchedule()
    penalty_free_withdrawal: bool = False
    min_bid_deadline: int | None = None  # last stage accepting bids with minimums

    def __post_init__(self) -> None:
        require_amount(self.granularity, "granularity", allow_zero=False)
        if (self.curve.t, self.curve.u) != (self.t, self.u):
            raise StageOutOfRange("price curve thresholds must match the sale's")


@dataclass(frozen=True)
class SubmitReceipt:
    address: str
    stage: int
    v: Amount
    b: Amount
    cap: Amount
    minimum: Amount | None
    fee: Amount
    status: BidStatus


@dataclass(frozen=True)
class WithdrawReceipt:
    address: str
    stage: int
    refund: Amount
    fee_returned: Amount
    permanent_v: Amount
    permanent_b: Amount
    was_dormant: bool


@dataclass(frozen=True)
class PokeReport:
    stage: int
    poker: str
    x: Amount
    activated: tuple[str, ...]
    fee_total: Amount


@dataclass(frozen=True)
class WithdrawalBatch:
    """One iteration of the automatic-withdrawal loop."""

    stage: int
    cap: Amount
    kind: str  # "kick" | "scale"
    size: int
    live_capital: Amount          # bucket capital before this iteration (S)
    q: Fraction | None            # scale iterations only
    removed: Amount               # live capital taken out of V
    credited: Amount              # face capital credited to members (kicks)
    refunds: tuple[tuple[str, Amount], ...]  # per-member live refunds (kicks)


@dataclass(frozen=True)
class BlockSummary:
    stage: int
    V: Amount
    gas_spent: int
    boundary: Amount
    carryover: bool
    batches: tuple[WithdrawalBatch, ...]
    dormant: Amount
    permanent: Amount
    pending_refunds: Amount
    fees_escrowed: Amount
    fees_paid: Amount
    refunds: Amount
    proceeds: Amount
    deposits: Amount


@dataclass(frozen=True)
class ClaimReceipt:
    address: str
    tokens: Amount
    refund: Amount


class Sale:
    """Mutable sale state plus the protocol operations."""

    def __init__(self, config: SaleConfig) -> None:
        self.config = config
        self.stage_index = 0
        self.book = OrderBook()
        self.bids: dict[str, Bid] = {}
        self.ledger = RefundLedger()
        self.meter = GasMeter(config.gas)
        self.V: Amount = 0
        self.dormant_total: Amount = 0
        self.permanent_total: Amount = 0
        self.pending_refunds: Amount = 0
        self.fees_escrowed: Amount = 0
        self.proceeds: Amount = 0
        self.deposits_total: Amount = 0
        self.permanent: dict[str, tuple[Amount, Amount]] = {}
        self.block_log: list[BlockSummary] = []
        self.finalized = False
        self.final_V: Amount | None = None
        self.allocations: dict[str, Amount] = {}
        self.final_refunds: dict[str, Amount] = {}
        self.retained: dict[str, Amount] = {}
        self._seen_pokes: set[tuple[Amount, frozenset[str]]] = set()
        self._claimed: set[str] = set()

    # --- views ------------------------------------------------------------

    @property
    def locked(self) -> bool:
        return self.stage_index >= self.config.t

    def compute_advice(self, cap: Amount, minimum: Amount | None = None):
        """Off-chain helper a bidder (or their indexer) would run: find the
        insertion hint for the book this bid will join."""
        target = self.book.minimums if minimum is not None else self.book.caps
        return target.find_advice(minimum if minimum is not None else cap)

    def recompute_valuation(self) -> Amount:
        """Sum of live bucket capital; each bucket caches its own floor, so
        only buckets changed since the last call pay a Fraction multiply."""
        return sum(bucket.effective() for bucket in self.book.caps)

    def conservation_report(self) -> ConservationReport:
        return conservation_audit(self)

    # --- step 1: submissions ------------------------------------------------

    def submit_bid(self, address: str, v: Amount, cap: Amount, *,
                   minimum: Amount | None = None, fee: Amount = 0,
                   advice=None) -> SubmitReceipt:
        if self.finalized:
            raise SaleEnded("sale already finalized")
        if address in self.bids:
            raise AddressReused(f"{address} already has a bid")
        require_amount(v, "bid capital", allow_zero=False)
        require_amount(fee, "poke fee")
        g = self.config.granularity
        if cap <= 0 or cap % g:
            raise CapNotAligned(f"cap {cap} is not a positive multiple of {g}")
        if minimum is None:
            if fee:
                raise InvalidMinimum("poke fee without a personal minimum")
        else:
            if minimum <= 0 or minimum % g:
                raise InvalidMinimum(f"minimum {minimum} is not a positive multiple of {g}")
            if minimum >= cap:
                raise InvalidMinimum(f"minimum {minimum} must lie below the cap {cap}")
            deadline = self.config.min_bid_deadline
            if deadline is not None and self.stage_index > deadline:
                raise InvalidMinimum(f"minimum bids closed after stage {deadline}")
        if self.locked and cap <= self.V:
            raise CapTooLow(f"cap {cap} does not exceed the current valuation {self.V}")

        self.meter.charge(GasOp.BID_SUBMIT)
        b = math.floor(v * purchase_power(self.config.curve, self.stage_index))
        if minimum is not None:
            bucket_list, key = self.book.minimums, minimum
        else:
            bucket_list, key = self.book.caps, cap
        if bucket_list.get(key) is None:
            self.meter.charge(GasOp.ADVICE_CHECK)
        bucket = bucket_list.insert_with_advice(key, advice)
        bucket.add(address, v, b)

        status = BidStatus.DORMANT if minimum is not None else BidStatus.ACTIVE
        self.bids[address] = Bid(
            address=address, v=v, b=b, cap=cap, entry_stage=self.stage_index,
            status=status, minimum=minimum, poke_fee=fee,
            entry_scale=bucket.scale if minimum is None else Fraction(1),
        )
        if status is BidStatus.ACTIVE:
            self.V += v
        else:
            self.dormant_total += v
        self.deposits_total += v + fee
        self.fees_escrowed += fee
        return SubmitReceipt(address, self.stage_index, v, b, cap, minimum, fee, status)

    # --- step 2: voluntary withdrawals --------------------------------------

    def voluntary_withdraw(self, address: str) -> WithdrawReceipt:
        if self.finalized:
            raise SaleEnded("sale already finalized")
        bid = self.bids.get(address)
        if bid is None:
            raise UnknownBid(address)
        if self.locked:
            raise WithdrawalLocked(f"stage {self.stage_index} is at or past the lock")
        if bid.status is BidStatus.DORMANT:
            # Never counted toward the valuation, so cancelling is free:
            # full capital back plus the escrowed poke fee.
            self.book.minimums.remove_member(bid.minimum, address)
            bid.set_status(BidStatus.USED, "cancelled_dormant")
            self.dormant_total -= bid.v
            self.fees_escrowed -= bid.poke_fee
            refund = bid.v + bid.poke_fee
            self.ledger.credit(address, refund)
            return WithdrawReceipt(address, self.stage_index, refund,
                                   bid.poke_fee, 0, 0, was_dormant=True)
        if bid.status is not BidStatus.ACTIVE:
            raise NotActive(f"{address} is {bid.status.value}")
        self.book.caps.remove_member(bid.cap, address)
        self.V -= bid.v
        if self.config.penalty_free_withdrawal:
            bid.set_status(BidStatus.USED, "voluntary")
            self.ledger.credit(address, bid.v)
            return WithdrawReceipt(address, self.stage_index, bid.v, 0, 0, 0,
                                   was_dormant=False)
        refund = voluntary_refund(bid.v, self.stage_index, self.config.t)
        perm_v = bid.v - refund
        perm_b = committed_balance(bid.v, self.stage_index, bid.entry_stage,
                                   self.config.curve)
        bid.set_status(BidStatus.PERMANENT, "voluntary")
        bid.b = perm_b
        self.permanent[address] = (perm_v, perm_b)
        self.permanent_total += perm_v
        self.ledger.credit(address, refund)
        return WithdrawReceipt(address, self.stage_index, refund, 0,
                               perm_v, perm_b, was_dormant=False)

    # --- pokes ---------------------------------------------------------------

    def poke(self, x: Amount, target: Iterable[str], poker: str) -> PokeReport:
        if self.finalized:
            raise SaleEnded("sale already finalized")
        require_amount(x, "claimed valuation", allow_zero=False)
        addresses = list(target)
        if not addresses:
            raise InvalidTarget("empty target set")
        bids = []
        for address in addresses:
            bid = self.bids.get(address)
            if bid is None:
                raise UnknownBid(address)
            if bid.status not in (BidStatus.DORMANT, BidStatus.ACTIVE):
                raise InvalidTarget(f"{address} is {bid.status.value}")
            bids.append(bid)
        if not verify_poke(x, bids):
            raise InvalidTarget(f"target set cannot certify valuation {x}")
        key = (x, frozenset(addresses))
        if key in self._seen_pokes:
            raise DuplicatePoke("identical poke already rewarded")

        # Eligibility is shared across a minimum bucket, so the whole
        # bucket of every targeted dormant bid migrates at once.
        min_keys = sorted({bid.minimum for bid in bids
                           if bid.status is BidStatus.DORMANT})
        waking: list[Bid] = []
        for m in min_keys:
            bucket = self.book.minimums.get(m)
            waking.extend(self.bids[e.address] for e in bucket.members.values())
        self.meter.charge(GasOp.POKE_STORE, len(waking))
        self._seen_pokes.add(key)

        fee_total = 0
        activated = []
        for bid in waking:
            self.book.minimums.remove_member(bid.minimum, bid.address)
            cap_bucket = self.book.caps.insert_scanned(bid.cap)
            entry = cap_bucket.add(bid.address, bid.v, bid.b)
            bid.entry_scale = entry.entry_scale
            bid.set_status(BidStatus.ACTIVE)
            self.dormant_total -= bid.v
            self.V += bid.v
            self.fees_escrowed -= bid.poke_fee
            fee_total += bid.poke_fee
            activated.append(bid.address)
        self.ledger.pay_fee(poker, fee_total)
        return PokeReport(self.stage_index, poker, x, tuple(activated), fee_total)

    # --- step 3: automatic withdrawals ---------------------------------------

    def run_automatic_withdrawals(self) -> tuple[list[WithdrawalBatch], bool]:
        """Trim the book until V <= every active cap, or gas runs out.

        Returns the iteration batches and whether work was carried over
        to the next block (gas exhausted mid-loop).
        """
        if self.stage_index < self.config.t:
            raise StageOutOfRange("automatic withdrawals start at the lock stage")
        batches: list[WithdrawalBatch] = []
        carryover = False
        loop_started = False
        while True:
            bucket = self.book.caps.head
            if bucket is None or self.V <= bucket.key:
                break
            try:
                if not loop_started:
                    self.meter.charge(GasOp.LOOP_INIT)
                    loop_started = True
                self.meter.charge(GasOp.POINTER_MOVE)
            except GasExhausted:
                carryover = True
                break
            live = bucket.effective()
            if self.V - live >= bucket.key:
                refunds, removed, credited = self.book.kick_bucket(bucket)
                for address, _live_part in refunds:
                    bid = self.bids[address]
                    bid.set_status(BidStatus.USED, "kicked")
                    self.ledger.credit(address, bid.v)
                self.V -= removed
                self.pending_refunds -= credited - removed
                batches.append(WithdrawalBatch(
                    self.stage_index, bucket.key, "kick", len(refunds), live,
                    None, removed, credited, tuple(refunds)))
            else:
                q = Fraction(self.V - bucket.key, live)
                removed = self.book.scale_bucket(bucket, q)
                self.V -= removed
                self.pending_refunds += removed
                batches.append(WithdrawalBatch(
                    self.stage_index, bucket.key, "scale", len(bucket.members),
                    live, q, removed, 0, ()))
        return batches, carryover

    # --- step 4: block close ---------------------------------------------------

    def advance_block(self) -> BlockSummary:
        """Close the current block and move to the next stage."""
        if self.finalized or self.stage_index >= self.config.u:
            raise SaleEnded(f"stage {self.stage_index} is the final stage")
        batches: list[WithdrawalBatch] = []
        carryover = False
        if self.stage_index >= self.config.t:
            batches, carryover = self.run_automatic_withdrawals()
        summary = self._close_block(batches, carryover)
        self.stage_index += 1
        self.meter.reset()
        return summary

    def _close_block(self, batches: Sequence[WithdrawalBatch],
                     carryover: bool) -> BlockSummary:
        recomputed = self.recompute_valuation()
        if self.V != recomputed:
            raise ConservationDrift(self.V, recomputed)
        summary = BlockSummary(
            stage=self.stage_index, V=self.V, gas_spent=self.meter.spent,
            boundary=self.book.boundary, carryover=carryover,
            batches=tuple(batches), dormant=self.dormant_total,
            permanent=self.permanent_total, pending_refunds=self.pending_refunds,
            fees_escrowed=self.fees_escrowed, fees_paid=self.ledger.fees_paid,
            refunds=self.ledger.total(), proceeds=self.proceeds,
            deposits=self.deposits_total,
        )
        self.block_log.append(summary)
        self.conservation_report()
        return summary

    # --- final stage -----------------------------------------------------------

    def finalize(self) -> dict[str, Amount]:
        """Settle the final block and compute every address's allocation.

        Active bids receive their (scale-adjusted) token balance and the
        unspent remainder of their capital; permanent bids their recorded
        balance; dormant bids that never woke get everything back, poke
        fee included; used bids were settled when they exited.
        """
        if self.finalized:
            raise SaleEnded("sale already finalized")
        if self.stage_index != self.config.u:
            raise NotEnded(f"stage {self.stage_index} of {self.config.u}")
        batches, carryover = self.run_automatic_withdrawals()
        if carryover:
            raise GasExhausted("final block cannot settle the book in one gas budget")
        self.final_V = self.V
        summary = self._close_block(batches, carryover)

        for bucket in list(self.book.caps):
            live = bucket.effective()
            retained_sum = 0
            for entry in bucket.members.values():
                bid = self.bids[entry.address]
                kept = bucket.member_effective(entry)
                self.retained[entry.address] = kept
                self.allocations[entry.address] = bucket.member_tokens(entry)
                refund = bid.v - kept
                self.final_refunds[entry.address] = refund
                self.ledger.credit(entry.address, refund)
                retained_sum += kept
            self.proceeds += retained_sum
            self.pending_refunds -= bucket.total_v - live
            self.V -= live
        for bucket in list(self.book.minimums):
            for entry in bucket.members.values():
                bid = self.bids[entry.address]
                refund = bid.v + bid.poke_fee
                self.allocations[entry.address] = 0
                self.final_refunds[entry.address] = refund
                self.retained[entry.address] = 0
                self.ledger.credit(entry.address, refund)
                self.dormant_total -= bid.v
                self.fees_escrowed -= bid.poke_fee
        for address, (perm_v, perm_b) in self.permanent.items():
            self.allocations[address] = perm_b
            self.retained.setdefault(address, 0)
        for address, bid in self.bids.items():
            if bid.status is BidStatus.USED:
                self.allocations.setdefault(address, 0)
                self.retained.setdefault(address, 0)
        self.finalized = True
        self.conservation_report()
        return dict(self.allocations)

    def claim(self, address: str) -> ClaimReceipt:
        """Pull-based payout: each address collects exactly once."""
        if not self.finalized:
            raise NotEnded("allocations are not claimable before finalization")
        if address not in self.allocations:
            raise UnknownBid(address)
        if address in self._claimed:
            raise AlreadyClaimed(address)
        self._claimed.add(address)
        return ClaimReceipt(address, self.allocations[address],
                            self.final_refunds.get(address, 0))
