"""Purchase-power curve and the voluntary-withdrawal settlement formulas.

The curve maps a stage to a rational purchase-power multiplier (1 plus
the early-bird bonus), linearly interpolated between three knots: p0 at
stage 0, pt at the lock stage t, pu at the final stage u.  Everything is
exact: the knots are rationals, and each integer amount written to the
ledger (refund, committed balance, a bid's token balance) is one floor
division over integer numerators and denominators, never a product of
rationals.  ``Sale`` takes each stage's power once, as a
numerator/denominator pair, and prices every bid of that stage as
``v * num // den``.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .errors import InvalidCurve, StageOutOfRange, WithdrawalLocked
from .ledger import Amount, require_amount


@dataclass(frozen=True)
class PriceCurve:
    """Piecewise-linear, non-increasing purchase-power multiplier."""

    p0: Fraction
    pt: Fraction
    pu: Fraction
    t: int
    u: int

    def __post_init__(self) -> None:
        if not (0 <= self.t < self.u):
            raise InvalidCurve(f"need 0 <= t < u, got t={self.t} u={self.u}")
        if not (self.p0 >= self.pt >= self.pu > 0):
            raise InvalidCurve(
                f"knots must be non-increasing and positive: {self.p0} {self.pt} {self.pu}")


def purchase_power(curve: PriceCurve, s: int) -> Fraction:
    """Multiplier p(s): tokens granted per unit of capital at stage s."""
    if not (0 <= s <= curve.u):
        raise StageOutOfRange(f"stage {s} outside [0, {curve.u}]")
    if s <= curve.t and curve.t > 0:
        return curve.p0 + (curve.pt - curve.p0) * Fraction(s, curve.t)
    return curve.pt + (curve.pu - curve.pt) * Fraction(s - curve.t, curve.u - curve.t)


def voluntary_refund(v: Amount, s: int, t: int) -> Amount:
    """Capital returned when cancelling at stage s < t: the unelapsed part of v."""
    require_amount(v, "bid capital")
    if s >= t:
        raise WithdrawalLocked(f"stage {s} is at or past the lock stage {t}")
    if s < 0:
        raise StageOutOfRange(f"stage {s} is negative")
    return v * (t - s) // t


def committed_balance(v: Amount, s: int, entry: int, curve: PriceCurve) -> Amount:
    """Token balance kept by the elapsed share of a cancelled bid.

    The elapsed fraction s/t of the capital stays committed, but one
    third of its remaining bonus (entry-stage power minus final power)
    is forfeited, so cancelling is never free while any bonus remains.
    """
    require_amount(v, "bid capital")
    if s >= curve.t:
        raise WithdrawalLocked(f"stage {s} is at or past the lock stage {curve.t}")
    if not (0 <= entry <= s):
        raise StageOutOfRange(f"entry stage {entry} outside [0, {s}]")
    p0, pt, pu, t = curve.p0, curve.pt, curve.pu, curve.t
    # the entry-stage power pa = num/den on the p0..pt segment (entry < t)
    num = (p0.numerator * pt.denominator * t
           + (pt.numerator * p0.denominator - p0.numerator * pt.denominator) * entry)
    den = p0.denominator * pt.denominator * t
    # (v*s/t) * (pa - (pa - pu)/3) == v*s*(2*pa + pu) / (3*t), over integers
    return (v * s * (2 * num * pu.denominator + pu.numerator * den)
            // (3 * t * den * pu.denominator))
