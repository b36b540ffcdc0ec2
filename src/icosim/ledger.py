"""Money, bid records, the money pots and the conservation audit.

All money is held in integer minimal units (by convention 10**18 units
per whole token).  Fractional formulas are evaluated exactly with
rationals and floored to integers only where units actually move, so
bookkeeping identities hold to the unit.

``Pots`` names every pot a deposited unit can sit in besides the
valuation V, as the sale and the ``blk`` trace record name them.
``conservation_audit`` is the one place the identity is written:
deposits equal V plus every other pot.  ``RefundLedger`` alone writes
the refunds and fees-paid pots.
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
    if type(value) is not int and (not isinstance(value, int) or isinstance(value, bool)):
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


@dataclass(slots=True)
class Pots:
    """A snapshot of every pot besides the valuation V, named and ordered as
    the pot keys of a ``blk`` trace record.  Made once per block, never
    written after construction nor hashed, so it is not frozen."""

    dormant: Amount
    permanent: Amount
    pending: Amount
    escrow: Amount
    fees_paid: Amount
    refunds: Amount
    proceeds: Amount
    deposits: Amount


def conservation_audit(V: Amount, pots: Pots) -> None:
    """Raise ConservationViolation unless every deposited unit is in V or
    in one of the other pots."""
    delta = pots.deposits - (V + pots.dormant + pots.permanent + pots.pending
                             + pots.escrow + pots.fees_paid + pots.refunds
                             + pots.proceeds)
    if delta:
        raise ConservationViolation(delta, pots)
