from __future__ import annotations

import random
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from icosim.errors import ConservationViolation, NegativeAmount
from icosim.ledger import (
    Bid, BidStatus, Pots, RefundLedger, conservation_audit, require_amount,
)


def test_require_amount_accepts_plain_ints():
    assert require_amount(0) == 0
    assert require_amount(7, allow_zero=False) == 7


@pytest.mark.parametrize("bad", [-1, 1.5, Fraction(1, 2), "3", True])
def test_require_amount_rejects_non_amounts(bad):
    with pytest.raises(NegativeAmount):
        require_amount(bad)


def test_require_amount_zero_gate():
    with pytest.raises(NegativeAmount):
        require_amount(0, allow_zero=False)


def _bid(**kw):
    base = dict(address="a", v=10, b=12, cap=100, entry_stage=0,
                status=BidStatus.ACTIVE)
    base.update(kw)
    return Bid(**base)


class TestBid:
    def test_legal_transitions(self):
        d = _bid(status=BidStatus.DORMANT, minimum=50)
        d.set_status(BidStatus.ACTIVE)
        d.set_status(BidStatus.USED, "kicked")
        assert d.exit_reason == "kicked"

        a = _bid()
        a.set_status(BidStatus.PERMANENT, "voluntary")
        assert a.status is BidStatus.PERMANENT

    def test_illegal_transitions_refused(self):
        done = _bid()
        done.set_status(BidStatus.USED)
        for target in BidStatus:
            with pytest.raises(NegativeAmount):
                done.set_status(target)

    def test_validation(self):
        with pytest.raises(NegativeAmount):
            _bid(v=0)
        with pytest.raises(NegativeAmount):
            _bid(minimum=-5)
        with pytest.raises(NegativeAmount):
            _bid(poke_fee=-1)


class TestRefundLedger:
    def test_credit_accumulates(self):
        led = RefundLedger()
        led.credit("a", 5)
        led.credit("a", 7)
        led.credit("b", 1)
        assert led.entries == {"a": 12, "b": 1}
        assert led.total() == 13

    def test_zero_credit_leaves_no_entry(self):
        led = RefundLedger()
        led.credit("a", 0)
        led.pay_fee("p", 0)
        assert led.entries == {} and led.fee_earnings == {}
        assert led.fees_paid == 0

    def test_fee_payouts_tracked_separately(self):
        led = RefundLedger()
        led.pay_fee("p", 6)
        led.pay_fee("p", 2)
        assert led.fee_earnings == {"p": 8}
        assert led.fees_paid == 8
        assert led.total() == 0

    def test_negative_refused(self):
        led = RefundLedger()
        with pytest.raises(NegativeAmount):
            led.credit("a", -1)
        assert led.total() == 0

    @given(st.dictionaries(st.sampled_from("abcd"), st.integers(0, 10**20),
                           max_size=3),
           st.lists(st.tuples(st.sampled_from("abcdef"),
                              st.integers(-2, 10**20)), max_size=30))
    def test_running_total_matches_entries(self, seeded, credits):
        led = RefundLedger(entries=dict(seeded))
        assert led.total() == sum(seeded.values())
        for address, amount in credits:
            if amount < 0:
                with pytest.raises(NegativeAmount):
                    led.credit(address, amount)
            else:
                led.credit(address, amount)
            assert led.total() == sum(led.entries.values())


def test_conservation_audit_balanced():
    pots = Pots(dormant=10, permanent=0, pending=5, escrow=0, fees_paid=0,
                refunds=5, proceeds=20, deposits=100)
    assert conservation_audit(60, pots) is None


def test_conservation_audit_detects_drift():
    pots = Pots(0, 0, 0, 0, 0, 0, 0, deposits=100)
    with pytest.raises(ConservationViolation) as exc:
        conservation_audit(60, pots)
    assert exc.value.delta == 40
    assert exc.value.pots is pots


def test_conservation_random_partitions():
    # any way of splitting deposits over V and the other seven pots
    # balances; one unit more or less in any of the nine amounts fails
    rng = random.Random(4021)
    for _ in range(200):
        V, *held = [rng.randint(0, 50) for _ in range(8)]
        amounts = [V, *held, V + sum(held)]
        conservation_audit(amounts[0], Pots(*amounts[1:]))
        amounts[rng.randrange(len(amounts))] += rng.choice((-1, 1))
        with pytest.raises(ConservationViolation):
            conservation_audit(amounts[0], Pots(*amounts[1:]))
