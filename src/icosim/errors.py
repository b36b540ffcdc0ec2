"""Exception types shared by the crowdsale simulator.

Every rejection the engine or tooling can produce has its own class so
that traces can record a stable error code (the class name) and tests
can assert on exact failure modes.
"""

from __future__ import annotations


class IcoError(Exception):
    """Base class for all simulator errors."""

    @property
    def code(self) -> str:
        return type(self).__name__


# --- amounts / bookkeeping ------------------------------------------------

class NegativeAmount(IcoError):
    """An amount went negative or a non-integer was used as money."""


class ConservationViolation(IcoError):
    """Money entering the sale no longer equals money held plus money paid out."""

    def __init__(self, delta: int, pots: object) -> None:
        super().__init__(f"conservation broken by {delta} units")
        self.delta = delta
        self.pots = pots


class ConservationDrift(IcoError):
    """The tracked valuation no longer equals the live capital the book holds."""

    def __init__(self, tracked: int, recomputed: int) -> None:
        super().__init__(f"valuation drift: tracked {tracked}, book holds {recomputed}")


# --- stages / pricing -----------------------------------------------------

class StageOutOfRange(IcoError):
    """Stage index outside [0, u]."""


class WithdrawalLocked(IcoError):
    """Voluntary withdrawal attempted at or after the lock stage."""


class InvalidCurve(IcoError):
    """Price curve knots are not positive and non-increasing."""


# --- order book -----------------------------------------------------------

class BadAdvice(IcoError):
    """Insertion hint does not bracket the new key."""


class AdviceRequired(IcoError):
    """No hint given and no bucket with the key exists."""


class InvalidFraction(IcoError):
    """Scaling factor outside the open interval (0, 1)."""


class UnknownBid(IcoError):
    """Address has no bid on record."""


# --- engine ---------------------------------------------------------------

class AddressReused(IcoError):
    """An address may submit at most one bid for the lifetime of the sale."""


class CapTooLow(IcoError):
    """Post-lock submissions must name a cap strictly above the current valuation."""


class CapNotAligned(IcoError):
    """Personal cap is not an exact multiple of the bucket granularity."""


class InvalidMinimum(IcoError):
    """Personal minimum is misaligned, not below the cap, or no longer accepted."""


class NotActive(IcoError):
    """Operation requires an active (or, where stated, dormant) bid."""


class InvalidTarget(IcoError):
    """Poke target set fails the activation conditions."""


class DuplicatePoke(IcoError):
    """Identical poke already executed; only the first earns the fee."""


class SaleEnded(IcoError):
    """No further blocks: the sale is past its final stage."""


class NotEnded(IcoError):
    """Finalization-only operation attempted before the final stage."""


class AlreadyClaimed(IcoError):
    """Each address may pull its payout exactly once."""


# --- gas ------------------------------------------------------------------

class GasExhausted(IcoError):
    """Charge would push the block meter past the block gas limit."""


class ReserveTooLarge(IcoError):
    """Reserved gas leaves no room for the withdrawal loop."""


class ZeroMoves(IcoError):
    """Granularity bound is undefined for zero pointer moves per block."""


# --- agents / analysis ----------------------------------------------------

class NonMonotoneTable(IcoError):
    """Valuation table must map higher thresholds to equal or smaller contributions."""


# --- scenario / trace tooling ----------------------------------------------

class ParseError(IcoError):
    """Malformed scenario or trace file."""

    def __init__(self, message: str, line: int, column: int = 1) -> None:
        super().__init__(f"line {line}, column {column}: {message}")
        self.message = message
        self.line = line
        self.column = column


class DigestMismatch(IcoError):
    """Replay produced a different record stream than the stored trace."""
