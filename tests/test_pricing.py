from __future__ import annotations

import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from icosim.engine import Sale, SaleConfig
from icosim.errors import InvalidCurve, StageOutOfRange, WithdrawalLocked
from icosim.gas import GasSchedule
from icosim.pricing import (
    PriceCurve, committed_balance, purchase_power, voluntary_refund,
)


class TestCurveShape:
    def setup_method(self):
        self.curve = PriceCurve(Fraction(6, 5), Fraction(11, 10), 1, t=100, u=200)

    def test_endpoints(self):
        assert purchase_power(self.curve, 0) == Fraction(6, 5)
        assert purchase_power(self.curve, 100) == Fraction(11, 10)
        assert purchase_power(self.curve, 200) == 1

    def test_linear_interiors(self):
        # midpoint of each leg sits exactly halfway between its endpoints
        assert purchase_power(self.curve, 50) == Fraction(23, 20)
        assert purchase_power(self.curve, 150) == Fraction(21, 20)

    def test_monotone_nonincreasing_everywhere(self):
        values = [purchase_power(self.curve, s) for s in range(201)]
        assert all(a >= b for a, b in zip(values, values[1:]))

    def test_out_of_range(self):
        with pytest.raises(StageOutOfRange):
            purchase_power(self.curve, 201)
        with pytest.raises(StageOutOfRange):
            purchase_power(self.curve, -1)


def test_degenerate_lock_at_zero():
    # with t=0 the whole sale runs on the second leg, pt at the open
    curve = PriceCurve(Fraction(3, 2), Fraction(3, 2), 1, t=0, u=10)
    assert purchase_power(curve, 0) == Fraction(3, 2)
    assert purchase_power(curve, 5) == Fraction(5, 4)
    assert purchase_power(curve, 10) == 1


def test_below_par_tail_is_legal():
    curve = PriceCurve(Fraction(6, 5), Fraction(11, 10), Fraction(9, 10), t=5, u=10)
    assert purchase_power(curve, 10) == Fraction(9, 10)


@pytest.mark.parametrize("p0,pt,pu,t,u", [
    (1, Fraction(11, 10), 1, 5, 10),      # rises across the first leg
    (Fraction(11, 10), 1, Fraction(11, 10), 5, 10),  # rises across the second
    (0, 0, 0, 5, 10),                      # power must stay positive
    (Fraction(6, 5), Fraction(11, 10), 1, 10, 10),
    (Fraction(6, 5), Fraction(6, 5), 1, 10, 5),
    (Fraction(6, 5), Fraction(11, 10), 1, -1, 5),
])
def test_invalid_curves_rejected(p0, pt, pu, t, u):
    with pytest.raises(InvalidCurve):
        PriceCurve(p0, pt, pu, t=t, u=u)


class TestVoluntaryRefund:
    def test_linear_decay(self):
        assert voluntary_refund(100, 0, 4) == 100
        assert voluntary_refund(100, 1, 4) == 75
        assert voluntary_refund(100, 3, 4) == 25

    def test_floor_division(self):
        assert voluntary_refund(7, 1, 3) == 4   # floor(14/3)
        assert voluntary_refund(1, 1, 2) == 0

    def test_locked_after_threshold(self):
        with pytest.raises(WithdrawalLocked):
            voluntary_refund(100, 4, 4)
        with pytest.raises(WithdrawalLocked):
            voluntary_refund(100, 0, 0)


class TestCommittedBalance:
    def setup_method(self):
        self.curve = PriceCurve(Fraction(6, 5), Fraction(11, 10), 1, t=4, u=8)

    def test_worked_example(self):
        # v=100 cancelled at s=2, entered at 0 with power 6/5: half the
        # capital stays, minus a third of its bonus, floor(50 * 17/15)
        assert committed_balance(100, 2, 0, self.curve) == 56

    def test_zero_when_nothing_vested(self):
        assert committed_balance(100, 0, 0, self.curve) == 0

    def test_locked_at_threshold(self):
        with pytest.raises(WithdrawalLocked):
            committed_balance(100, 4, 0, self.curve)

    def test_entry_after_cancel_refused(self):
        with pytest.raises(StageOutOfRange):
            committed_balance(100, 1, 2, self.curve)

    def test_late_entry_uses_entry_power(self):
        # entering at s=2 (power 23/20) and cancelling at s=3
        expected = int(Fraction(100 * 3, 4) * (Fraction(23, 20) - Fraction(3, 20) / 3))
        assert committed_balance(100, 3, 2, self.curve) == expected == 82

    def test_refund_and_commitment_bracket_face_value(self):
        rng = random.Random(77)
        for _ in range(500):
            t = rng.randint(1, 40)
            u = t + rng.randint(1, 20)
            s = rng.randint(0, t - 1)
            v = rng.randint(1, 10**6)
            pa = 1 + Fraction(rng.randint(0, 50), 100)
            curve = PriceCurve(pa, pa, 1, t=t, u=u)
            refund = voluntary_refund(v, s, t)
            kept = committed_balance(v, s, 0, curve)
            # never pays out more token value than the original bonus bid
            assert refund + kept <= v * pa
            # the kept balance covers at least the vested principal at par
            assert kept >= (v * s) // t


# knots as small ints or rationals with awkward denominators, then sorted
# into a legal non-increasing curve
_KNOT = st.one_of(st.integers(1, 3),
                  st.fractions(Fraction(1, 10**3), 3, max_denominator=10**6))


@st.composite
def _curves(draw):
    p0, pt, pu = sorted((draw(_KNOT) for _ in range(3)), reverse=True)
    t = draw(st.integers(1, 30))
    return PriceCurve(p0, pt, pu, t=t, u=t + draw(st.integers(1, 30)))


@settings(deadline=None, max_examples=150)
@given(_curves(), st.lists(st.integers(1, 10**24), min_size=1, max_size=4))
def test_bid_balance_is_the_exact_rational_floor_at_every_stage(curve, vs):
    """``Sale`` prices a bid as v*num//den; the rational formula is
    floor(v * p(s))."""
    sale = Sale(SaleConfig(curve.t, curve.u, 1, curve,
                           gas=GasSchedule(block_limit=10**12)))
    for s in range(curve.u + 1):
        for i, v in enumerate(vs):
            bid = sale.submit_bid(f"s{s}.{i}", v, 10**30,
                                  advice=sale.compute_advice(10**30))
            assert bid.b == math.floor(v * purchase_power(curve, s))
        if s < curve.u:
            sale.advance_block()


@settings(deadline=None, max_examples=400)
@given(_curves(), st.integers(1, 10**24), st.data())
def test_committed_balance_is_the_exact_rational_floor(curve, v, data):
    s = data.draw(st.integers(0, curve.t - 1))
    entry = data.draw(st.integers(0, s))
    pa = purchase_power(curve, entry)
    expected = math.floor(Fraction(v * s, curve.t) * (pa - (pa - curve.pu) / 3))
    assert committed_balance(v, s, entry, curve) == expected
