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

from dataclasses import dataclass, field
from fractions import Fraction
from typing import Iterable, Sequence

from .book import OrderBook, verify_poke
from .errors import (
    AddressReused, AlreadyClaimed, CapNotAligned, CapTooLow, ConservationDrift,
    DuplicatePoke, GasExhausted, InvalidMinimum, InvalidTarget, NotActive, NotEnded,
    SaleEnded, StageOutOfRange, UnknownBid, WithdrawalLocked,
)
from .gas import GasMeter, GasSchedule
from .ledger import (
    Amount, Bid, BidStatus, Pots, RefundLedger, conservation_audit, require_amount,
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


@dataclass(slots=True)
class WithdrawReceipt:
    refund: Amount
    fee_back: Amount
    perm_v: Amount
    perm_b: Amount


@dataclass(slots=True)
class PokeReport:
    activated: tuple[str, ...]
    fee: Amount


@dataclass(slots=True)
class WithdrawalBatch:
    """One iteration of the automatic-withdrawal loop.

    Not frozen, which would set each field through ``object.__setattr__``:
    one is made per kick or scale, nothing writes it after construction and
    nothing hashes it."""

    stage: int
    cap: Amount
    kind: str  # "kick" | "scale"
    size: int
    live_capital: Amount          # bucket capital before this iteration (S)
    q: Fraction | None            # scale iterations only
    removed: Amount               # live capital taken out of V
    credited: Amount              # face capital credited to members (kicks)
    addrs: tuple[str, ...]        # members kicked out (kicks)


@dataclass(slots=True)
class BlockSummary:
    """One closed block.  Made once per block and, like ``WithdrawalBatch``,
    never written after construction nor hashed, so it is not frozen."""

    stage: int
    V: Amount
    gas_spent: int
    boundary: Amount
    carryover: bool
    batches: tuple[WithdrawalBatch, ...]
    pots: Pots


class Sale:
    """Mutable sale state plus the protocol operations."""

    def __init__(self, config: SaleConfig) -> None:
        self.config = config
        self.stage_index = 0
        self.book = OrderBook()
        self.bids: dict[str, Bid] = {}
        self.ledger = RefundLedger()
        self.meter = GasMeter(config.gas)
        # (stage, numerator, denominator) of the last stage a bid was priced at
        self._power: tuple[int, int, int] = (-1, 0, 1)
        # the valuation and the pots the ledger does not keep, named as in Pots
        self.V: Amount = 0
        self.dormant: Amount = 0
        self.permanent: Amount = 0
        self.pending: Amount = 0
        self.escrow: Amount = 0
        self.proceeds: Amount = 0
        self.deposits: Amount = 0
        self.finalized = False
        self.final_V: Amount | None = None
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
        """Sum of live bucket capital over the whole cap book, from scratch.

        ``finalize`` checks V against it; every other block close checks
        the cap book's running sum, which re-counts only changed buckets.
        """
        return sum(bucket.effective() for bucket in self.book.caps)

    def conservation_report(self) -> Pots:
        """Every pot now; raises ConservationViolation if a unit is lost."""
        pots = Pots(self.dormant, self.permanent, self.pending, self.escrow,
                    self.ledger.fees_paid, self.ledger.total(), self.proceeds,
                    self.deposits)
        conservation_audit(self.V, pots)
        return pots

    # --- step 1: submissions ------------------------------------------------

    def submit_bid(self, address: str, v: Amount, cap: Amount, *,
                   minimum: Amount | None = None, fee: Amount = 0,
                   advice=None) -> Bid:
        """Gas: a refusal by the field checks below (``AddressReused``,
        ``NegativeAmount``, ``CapNotAligned``, ``InvalidMinimum``,
        ``CapTooLow``) spends none.  A refusal by the insertion hint, which
        only a new bucket checks (``AdviceRequired``, ``BadAdvice``), keeps
        the ``bid_submit`` and ``advice_check`` gas already charged, as a
        reverted transaction pays for its work, and changes nothing else."""
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

        self.meter.charge("bid_submit")
        stage, num, den = self._power
        if stage != self.stage_index:
            num, den = purchase_power(self.config.curve, self.stage_index).as_integer_ratio()
            self._power = (self.stage_index, num, den)
        b = v * num // den
        if minimum is not None:
            bucket_list, key = self.book.minimums, minimum
        else:
            bucket_list, key = self.book.caps, cap
        if bucket_list.get(key) is None:
            self.meter.charge("advice_check")
        bucket = bucket_list.insert_with_advice(key, advice)

        status = BidStatus.DORMANT if minimum is not None else BidStatus.ACTIVE
        bid = Bid(address=address, v=v, b=b, cap=cap, entry_stage=self.stage_index,
                  status=status, minimum=minimum, poke_fee=fee)
        bucket.add(bid)
        self.bids[address] = bid
        if status is BidStatus.ACTIVE:
            self.V += v
        else:
            self.dormant += v
        self.deposits += v + fee
        self.escrow += fee
        return bid

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
            self.dormant -= bid.v
            self.escrow -= bid.poke_fee
            refund = bid.v + bid.poke_fee
            self.ledger.credit(address, refund)
            return WithdrawReceipt(refund, bid.poke_fee, 0, 0)
        if bid.status is not BidStatus.ACTIVE:
            raise NotActive(f"{address} is {bid.status.value}")
        self.book.caps.remove_member(bid.cap, address)
        self.V -= bid.v
        if self.config.penalty_free_withdrawal:
            bid.set_status(BidStatus.USED, "voluntary")
            self.ledger.credit(address, bid.v)
            return WithdrawReceipt(bid.v, 0, 0, 0)
        refund = voluntary_refund(bid.v, self.stage_index, self.config.t)
        perm_v = bid.v - refund
        perm_b = committed_balance(bid.v, self.stage_index, bid.entry_stage,
                                   self.config.curve)
        bid.set_status(BidStatus.PERMANENT, "voluntary")
        bid.tokens = perm_b
        self.permanent += perm_v
        self.ledger.credit(address, refund)
        return WithdrawReceipt(refund, 0, perm_v, perm_b)

    # --- pokes ---------------------------------------------------------------

    def poke(self, x: Amount, target: Iterable[str], poker: str) -> PokeReport:
        if self.finalized:
            raise SaleEnded("sale already finalized")
        require_amount(x, "claimed valuation", allow_zero=False)
        addresses = list(target)
        if not addresses:
            raise InvalidTarget("empty target set")
        named = frozenset(addresses)
        if len(named) != len(addresses):
            raise InvalidTarget("target set names an address twice")
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
        key = (x, named)
        if key in self._seen_pokes:
            raise DuplicatePoke("identical poke already rewarded")

        # Eligibility is shared across a minimum bucket, so the whole
        # bucket of every targeted dormant bid migrates at once.
        min_keys = sorted({bid.minimum for bid in bids
                           if bid.status is BidStatus.DORMANT})
        waking: list[Bid] = []
        for m in min_keys:
            waking.extend(self.book.minimums.get(m).members.values())
        self.meter.charge("store", len(waking))
        self._seen_pokes.add(key)

        fee = 0
        activated = []
        for bid in waking:
            # remove first: it reads the entry_scale that add overwrites
            self.book.minimums.remove_member(bid.minimum, bid.address)
            self.book.caps.insert_scanned(bid.cap).add(bid)
            bid.set_status(BidStatus.ACTIVE)
            self.dormant -= bid.v
            self.V += bid.v
            self.escrow -= bid.poke_fee
            fee += bid.poke_fee
            activated.append(bid.address)
        self.ledger.pay_fee(poker, fee)
        return PokeReport(tuple(activated), fee)

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
                    self.meter.charge("loop_base")
                    loop_started = True
                self.meter.charge("pointer_move")
            except GasExhausted:
                carryover = True
                break
            live = bucket.effective()
            if self.V - live >= bucket.key:
                members, removed, credited = self.book.kick_bucket(bucket)
                for bid in members:
                    bid.set_status(BidStatus.USED, "kicked")
                    self.ledger.credit(bid.address, bid.v)
                self.V -= removed
                self.pending -= credited - removed
                batches.append(WithdrawalBatch(
                    self.stage_index, bucket.key, "kick", len(members), live,
                    None, removed, credited, tuple(bid.address for bid in members)))
            else:
                q = Fraction(self.V - bucket.key, live)
                removed = self.book.scale_bucket(bucket, q)
                self.V -= removed
                self.pending += removed
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
        summary = self._close_block(batches, carryover, self.book.caps.live_total())
        self.stage_index += 1
        self.meter.reset()
        return summary

    def _close_block(self, batches: Sequence[WithdrawalBatch],
                     carryover: bool, recomputed: Amount) -> BlockSummary:
        if self.V != recomputed:
            raise ConservationDrift(self.V, recomputed)
        return BlockSummary(
            stage=self.stage_index, V=self.V, gas_spent=self.meter.spent,
            boundary=self.book.boundary, carryover=carryover,
            batches=tuple(batches), pots=self.conservation_report(),
        )

    # --- final stage -----------------------------------------------------------

    def finalize(self) -> BlockSummary:
        """Close the final block, then settle every bid still in a book.

        Active bids receive their (scale-adjusted) token balance and the
        unspent remainder of their capital; dormant bids that never woke
        get everything back, poke fee included.  Each settled amount is
        written onto the bid; permanent and used bids were settled when
        they exited.  Returns the final block's summary (taken before this
        settlement), as ``advance_block`` returns each earlier one.
        """
        if self.finalized:
            raise SaleEnded("sale already finalized")
        if self.stage_index != self.config.u:
            raise NotEnded(f"stage {self.stage_index} of {self.config.u}")
        batches, carryover = self.run_automatic_withdrawals()
        if carryover:
            raise GasExhausted("final block cannot settle the book in one gas budget")
        self.final_V = self.V
        summary = self._close_block(batches, carryover, self.recompute_valuation())

        for bucket in list(self.book.caps):
            live = bucket.effective()
            retained_sum = 0
            for address, bid in bucket.members.items():
                bid.retained = bucket.member_effective(bid)
                bid.tokens = bucket.member_tokens(bid)
                bid.refund_final = bid.v - bid.retained
                self.ledger.credit(address, bid.refund_final)
                retained_sum += bid.retained
            self.proceeds += retained_sum
            self.pending -= bucket.total_v - live
            self.V -= live
        for bucket in list(self.book.minimums):
            for address, bid in bucket.members.items():
                bid.refund_final = bid.v + bid.poke_fee
                self.ledger.credit(address, bid.refund_final)
                self.dormant -= bid.v
                self.escrow -= bid.poke_fee
        self.finalized = True
        self.conservation_report()
        return summary

    def claim(self, address: str) -> Bid:
        """Pull-based payout: each address collects its settled bid once."""
        if not self.finalized:
            raise NotEnded("allocations are not claimable before finalization")
        bid = self.bids.get(address)
        if bid is None:
            raise UnknownBid(address)
        if address in self._claimed:
            raise AlreadyClaimed(address)
        self._claimed.add(address)
        return bid
