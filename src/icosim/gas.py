"""Per-block gas metering and the capacity planning helpers.

Gas costs are configuration, defaulted to a snapshot of mainnet-like
figures: a 6.7M block limit, 40k to initiate the withdrawal loop, 19
per pointer move inside it, and 5k per storage write when poking a
dormant bid awake.  The helpers answer the two sizing questions the
protocol depends on: how many pointer moves fit in one block, and how
coarse the cap grid must be so the pointer can always keep up.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from enum import Enum

from .errors import GasExhausted, ReserveTooLarge, ZeroMoves
from .ledger import Amount, require_amount


class GasOp(Enum):
    """A metered operation; its value names its ``GasSchedule`` field."""

    BID_SUBMIT = "bid_submit"
    ADVICE_CHECK = "advice_check"
    POKE_STORE = "store"
    LOOP_INIT = "loop_base"
    POINTER_MOVE = "pointer_move"


@dataclass(frozen=True)
class GasSchedule:
    """Gas per operation; the field names are the scenario's ``gas`` keys."""

    block_limit: int = 6_700_000
    loop_base: int = 40_000
    pointer_move: int = 19
    store: int = 5_000
    bid_submit: int = 50_000
    advice_check: int = 2_000

    def __post_init__(self) -> None:
        for f in fields(self):
            require_amount(getattr(self, f.name), f.name)

    def cost_of(self, op: GasOp) -> int:
        return getattr(self, op.value)


def pointer_move_capacity(schedule: GasSchedule, reserved: int = 0) -> int:
    """Pointer moves one block can hold after reserving gas for other traffic."""
    require_amount(reserved, "reserved gas")
    budget = schedule.block_limit - schedule.loop_base - reserved
    if budget <= 0:
        raise ReserveTooLarge(
            f"reserve {reserved} leaves no loop budget in a {schedule.block_limit} block")
    return budget // schedule.pointer_move


def poke_capacity(schedule: GasSchedule) -> int:
    """Upper bound on dormant bids one block of pokes can activate."""
    return schedule.block_limit // schedule.store


def min_granularity(max_capital_per_block: Amount, moves_per_block: int) -> Amount:
    """Smallest cap-grid spacing that keeps the pointer from lagging.

    With at most ``max_capital_per_block`` fresh capital per block the
    valuation climbs at most that much, so the pointer crosses at most
    capital/G occupied buckets; G strictly above capital/moves makes the
    per-block move budget sufficient.
    """
    require_amount(max_capital_per_block, "capital bound")
    if moves_per_block <= 0:
        raise ZeroMoves("need at least one pointer move per block")
    return max_capital_per_block // moves_per_block + 1


class GasMeter:
    """Counts gas within the current block; reset at each block boundary."""

    def __init__(self, schedule: GasSchedule) -> None:
        self.schedule = schedule
        self.spent = 0

    @property
    def remaining(self) -> int:
        return self.schedule.block_limit - self.spent

    def charge(self, op: GasOp, multiplicity: int = 1) -> int:
        """Consume gas for ``multiplicity`` repetitions of ``op``.

        Raises GasExhausted, leaving ``spent`` untouched, if the charge
        would cross the block limit.  Returns the remaining budget.
        """
        if multiplicity < 0:
            raise NegativeMultiplicity(multiplicity)  # pragma: no cover
        cost = self.schedule.cost_of(op) * multiplicity
        if self.spent + cost > self.schedule.block_limit:
            raise GasExhausted(
                f"{op.value} x{multiplicity} needs {cost}, only {self.remaining} left")
        self.spent += cost
        return self.remaining

    def reset(self) -> None:
        self.spent = 0


class NegativeMultiplicity(ValueError):
    pass
