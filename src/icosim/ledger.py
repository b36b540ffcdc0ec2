"""Money, bid records and the conservation audit.

All money is held in integer minimal units (by convention 10**18 units
per whole token).  Fractional formulas are evaluated exactly with
rationals and floored to integers only where units actually move, so
bookkeeping identities hold to the unit.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from fractions import Fraction

from .errors import ConservationViolation, NegativeAmount

# Minimal units per whole token under the default deployment convention.
UNIT = 10 ** 18

Amount = int


def require_amount(value: int, what: str = "amount", allow_zero: bool = True) -> int:
    """Validate an integer amount; negative money is always a bug."""
    if not isinstance(value, int) or isinstance(value, bool):
        raise NegativeAmount(f"{what} must be an integer amount, got {value!r}")
    if value < 0 or (value == 0 and not allow_zero):
        raise NegativeAmount(f"{what} must be {'>= 0' if allow_zero else '> 0'}, got {value}")
    return value


class BidStatus(str, Enum):
    DORMANT = "dormant"
    ACTIVE = "active"
    PERMANENT = "permanent"
    USED = "used"


# Legal status transitions.  "Inactive" is the absence of a Bid record.
# dormant bids exit either by poke (-> active) or by cancelling before the
# lock / being refunded at the end (-> used).
_TRANSITIONS = {
    (BidStatus.DORMANT, BidStatus.ACTIVE),
    (BidStatus.DORMANT, BidStatus.USED),
    (BidStatus.ACTIVE, BidStatus.PERMANENT),
    (BidStatus.ACTIVE, BidStatus.USED),
}


@dataclass(slots=True)
class Bid:
    """One address's bid.  An address bids at most once, ever.

    ``v`` and ``b`` are the capital and token balance recorded at entry and
    never change after it; partial automatic withdrawals scale them lazily
    through the bucket scale.  This record is itself the member of its
    book bucket.  ``Bucket.add`` sets ``entry_scale`` to the bucket scale
    at joining, so late joiners are not charged for earlier scalings;
    nothing else writes it.  It is the int 1 for a bid that joined a
    never-rescaled bucket, an exact Fraction otherwise.  ``b`` can floor
    to zero only for a ``v`` far below realistic units.

    ``tokens``, ``retained`` and ``refund_final`` are the bid's settled
    outcome, named as in the ``alloc`` trace record.  A voluntary
    withdrawal that leaves a permanent commitment writes ``tokens``;
    ``Sale.finalize`` writes all three for active and dormant bids.  A bid
    that exits otherwise keeps them at 0: its refund was credited when it
    exited.
    """

    address: str
    v: Amount
    b: Amount
    cap: Amount
    entry_stage: int
    status: BidStatus
    minimum: Amount | None = None
    poke_fee: Amount = 0
    entry_scale: int | Fraction = 1
    exit_reason: str | None = None  # voluntary | kicked | cancelled_dormant
    tokens: Amount = 0
    retained: Amount = 0
    refund_final: Amount = 0

    def __post_init__(self) -> None:
        require_amount(self.v, "bid capital", allow_zero=False)
        require_amount(self.cap, "personal cap", allow_zero=False)
        require_amount(self.b, "token balance")
        if self.minimum is not None:
            require_amount(self.minimum, "personal minimum", allow_zero=False)
        require_amount(self.poke_fee, "poke fee")

    def set_status(self, new: BidStatus, reason: str | None = None) -> None:
        if (self.status, new) not in _TRANSITIONS:
            raise NegativeAmount(  # pragma: no cover - programming error guard
                f"illegal status transition {self.status.value} -> {new.value}")
        self.status = new
        if reason is not None:
            self.exit_reason = reason


@dataclass
class RefundLedger:
    """Cumulative native-token refunds per address, plus poke fees paid out.

    Entries only grow; a refund is recorded at the moment units become
    claimable by the address, never reversed.  ``credit`` keeps a running
    total, so ``total()`` is O(1) however many addresses were refunded.
    """

    entries: dict[str, Amount] = field(default_factory=dict)
    fees_paid: Amount = 0
    fee_earnings: dict[str, Amount] = field(default_factory=dict)
    _total: Amount = field(default=0, init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        self._total = sum(self.entries.values())

    def credit(self, address: str, amount: Amount) -> None:
        require_amount(amount, "refund credit")
        if amount:
            self.entries[address] = self.entries.get(address, 0) + amount
            self._total += amount

    def pay_fee(self, poker: str, amount: Amount) -> None:
        require_amount(amount, "poke fee payout")
        self.fees_paid += amount
        if amount:
            self.fee_earnings[poker] = self.fee_earnings.get(poker, 0) + amount

    def total(self) -> Amount:
        return self._total


@dataclass(frozen=True)
class ConservationReport:
    """Where every deposited unit currently sits.

    The headline identity: deposits = active + permanent + refunds + fees
    (escrowed or paid), with the remaining fields carrying capital that
    is merely in transit (dormant, accrued-but-unmaterialized refunds,
    post-sale proceeds).
    """

    deposits: Amount
    active_v: Amount
    dormant_v: Amount
    permanent_v: Amount
    pending_refunds: Amount
    refunds: Amount
    fees_escrowed: Amount
    fees_paid: Amount
    proceeds: Amount

    @property
    def held(self) -> Amount:
        return (self.active_v + self.dormant_v + self.permanent_v
                + self.pending_refunds + self.fees_escrowed + self.proceeds)

    @property
    def delta(self) -> Amount:
        return self.deposits - (self.held + self.refunds + self.fees_paid)


def conservation_audit(state) -> ConservationReport:
    """Check the sale-wide conservation identity on a live engine state.

    Raises ConservationViolation if a single unit is unaccounted for,
    otherwise returns the component breakdown.
    """
    report = ConservationReport(
        deposits=state.deposits_total,
        active_v=state.V,
        dormant_v=state.dormant_total,
        permanent_v=state.permanent_total,
        pending_refunds=state.pending_refunds,
        refunds=state.ledger.total(),
        fees_escrowed=state.fees_escrowed,
        fees_paid=state.ledger.fees_paid,
        proceeds=state.proceeds,
    )
    if report.delta != 0:
        raise ConservationViolation(report.delta, report)
    return report
