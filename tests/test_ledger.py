from __future__ import annotations

import random
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from icosim.errors import ConservationViolation, NegativeAmount
from icosim.ledger import (
    Bid, BidStatus, ConservationReport, RefundLedger, conservation_audit,
    require_amount,
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


class _StubState:
    """Minimal duck-typed engine state for the audit."""

    def __init__(self, **kw):
        self.deposits_total = kw.get("deposits", 0)
        self.V = kw.get("V", 0)
        self.dormant_total = kw.get("dormant", 0)
        self.permanent_total = kw.get("permanent", 0)
        self.pending_refunds = kw.get("pending", 0)
        self.fees_escrowed = kw.get("escrow", 0)
        self.proceeds = kw.get("proceeds", 0)
        self.ledger = RefundLedger()


def test_conservation_audit_balanced():
    state = _StubState(deposits=100, V=60, dormant=10, pending=5, proceeds=20)
    state.ledger.credit("a", 5)
    report = conservation_audit(state)
    assert report.delta == 0
    assert report.held == 95


def test_conservation_audit_detects_drift():
    state = _StubState(deposits=100, V=60)
    with pytest.raises(ConservationViolation) as exc:
        conservation_audit(state)
    assert exc.value.delta == 40
    assert isinstance(exc.value.report, ConservationReport)


def test_conservation_random_partitions():
    # any way of splitting deposits across the pots balances; off-by-one fails
    rng = random.Random(4021)
    for _ in range(200):
        parts = [rng.randint(0, 50) for _ in range(6)]
        state = _StubState(deposits=sum(parts), V=parts[0], dormant=parts[1],
                           permanent=parts[2], pending=parts[3],
                           escrow=parts[4], proceeds=parts[5])
        assert conservation_audit(state).delta == 0
        state.deposits_total += 1
        with pytest.raises(ConservationViolation):
            conservation_audit(state)
