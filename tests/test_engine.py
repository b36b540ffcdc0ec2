from __future__ import annotations

import contextlib
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from icosim.engine import Sale, SaleConfig
from icosim.errors import (
    AddressReused, AlreadyClaimed, BadAdvice, CapNotAligned, CapTooLow,
    ConservationDrift, DuplicatePoke, GasExhausted, IcoError, InvalidMinimum,
    InvalidTarget, NegativeAmount, NotActive, NotEnded, SaleEnded,
    StageOutOfRange, UnknownBid, WithdrawalLocked,
)
from icosim.gas import GasSchedule
from icosim.ledger import Bid, BidStatus
from icosim.pricing import PriceCurve

AMPLE = GasSchedule(block_limit=10**12)
FLAT = Fraction(1)


def make_sale(t, u, *, g=1, p0=FLAT, pt=FLAT, pu=FLAT, gas=AMPLE, **kw):
    curve = PriceCurve(Fraction(p0), Fraction(pt), Fraction(pu), t=t, u=u)
    return Sale(SaleConfig(t, u, g, curve, gas=gas, **kw))


def bid(sale, address, v, cap, **kw):
    advice = sale.compute_advice(cap, kw.get("minimum"))
    return sale.submit_bid(address, v, cap, advice=advice, **kw)


@pytest.mark.parametrize("t,u", [(2, 3), (1, 4), (0, 2), (5, 3)])
def test_config_refuses_a_curve_with_other_thresholds(t, u):
    curve = PriceCurve(FLAT, FLAT, FLAT, t=1, u=3)
    with pytest.raises(StageOutOfRange, match="thresholds must match"):
        SaleConfig(t, u, 1, curve)
    assert SaleConfig(1, 3, 1, curve).curve is curve


class TestSubmission:
    def test_receipt_and_balances(self):
        sale = make_sale(4, 8, p0=Fraction(6, 5), pt=Fraction(11, 10))
        r = bid(sale, "a", 100, 500)
        assert (r.v, r.b, r.cap, r.status) == (100, 120, 500, BidStatus.ACTIVE)
        assert r is sale.bids["a"] is sale.book.caps.get(500).members["a"]
        assert sale.V == 100 and sale.deposits_total == 100

    def test_bonus_decays_with_entry_stage(self):
        sale = make_sale(4, 8, p0=Fraction(6, 5), pt=Fraction(11, 10))
        bid(sale, "early", 100, 500)
        sale.advance_block()
        sale.advance_block()
        r = bid(sale, "later", 100, 500)
        assert r.b == 115        # floor(100 * 23/20)

    def test_address_reuse_refused(self):
        sale = make_sale(1, 2)
        bid(sale, "a", 10, 50)
        with pytest.raises(AddressReused):
            bid(sale, "a", 10, 60)

    def test_cap_alignment(self):
        sale = make_sale(1, 2, g=10)
        with pytest.raises(CapNotAligned):
            bid(sale, "a", 10, 25)
        with pytest.raises(CapNotAligned):
            bid(sale, "a", 10, 0)
        bid(sale, "a", 10, 30)

    def test_minimum_validation(self):
        sale = make_sale(2, 4, g=10)
        with pytest.raises(InvalidMinimum):
            bid(sale, "a", 10, 50, minimum=15)    # misaligned
        with pytest.raises(InvalidMinimum):
            bid(sale, "a", 10, 50, minimum=50)    # must stay below the cap
        with pytest.raises(InvalidMinimum):
            bid(sale, "a", 10, 50, fee=3)         # fee needs a minimum
        r = bid(sale, "a", 10, 50, minimum=30, fee=3)
        assert r.status is BidStatus.DORMANT
        assert sale.dormant_total == 10 and sale.fees_escrowed == 3
        assert sale.V == 0

    def test_minimum_deadline(self):
        sale = make_sale(3, 6, min_bid_deadline=1)
        bid(sale, "a", 10, 50, minimum=20)
        sale.advance_block()
        bid(sale, "b", 10, 50, minimum=20)        # deadline stage still open
        sale.advance_block()
        with pytest.raises(InvalidMinimum):
            bid(sale, "c", 10, 50, minimum=20)
        bid(sale, "c", 10, 50)                    # plain bids unaffected

    def test_amount_validation(self):
        sale = make_sale(1, 2)
        with pytest.raises(NegativeAmount):
            bid(sale, "a", 0, 50)
        with pytest.raises(NegativeAmount):
            bid(sale, "a", -5, 50)
        with pytest.raises(NegativeAmount):
            bid(sale, "a", 10, 50, minimum=20, fee=-1)

    def test_post_lock_cap_must_clear_valuation(self):
        sale = make_sale(1, 3)
        bid(sale, "a", 50, 100)
        sale.advance_block()
        with pytest.raises(CapTooLow):
            bid(sale, "b", 10, 50)
        bid(sale, "b", 10, 51)

    def test_low_cap_accepted_before_lock(self):
        # pre-lock the valuation may sit above a cap; the first sweep fixes it
        sale = make_sale(2, 4)
        bid(sale, "a", 60, 100)
        r = bid(sale, "b", 10, 30)
        assert r.status is BidStatus.ACTIVE
        assert sale.V == 70

    def test_bad_advice_burns_gas_changes_nothing(self):
        gas = GasSchedule(block_limit=10**9, bid_submit=50_000,
                          advice_check=2_000)
        sale = make_sale(1, 2, gas=gas)
        bid(sale, "a", 10, 50)
        spent = sale.meter.spent
        with pytest.raises(BadAdvice):
            sale.submit_bid("b", 10, 80, advice="head")
        assert sale.meter.spent == spent + 50_000 + 2_000
        assert "b" not in sale.bids and sale.V == 10
        assert sale.deposits_total == 10

    def test_joining_existing_bucket_skips_advice_gas(self):
        gas = GasSchedule(block_limit=10**9, bid_submit=50_000,
                          advice_check=2_000)
        sale = make_sale(1, 2, gas=gas)
        sale.submit_bid("a", 10, 50, advice="head")
        sale.submit_bid("b", 10, 50)              # join: no hint, no check
        assert sale.meter.spent == 2 * 50_000 + 2_000


class TestVoluntaryWithdrawal:
    def test_split_between_refund_and_commitment(self):
        sale = make_sale(4, 8, p0=Fraction(6, 5), pt=Fraction(11, 10))
        bid(sale, "a", 100, 500)
        sale.advance_block()
        sale.advance_block()
        r = sale.voluntary_withdraw("a")
        assert r.refund == 50 and r.permanent_v == 50 and r.permanent_b == 56
        assert sale.V == 0 and sale.permanent_total == 50
        assert sale.ledger.entries == {"a": 50}
        assert sale.bids["a"].status is BidStatus.PERMANENT

    def test_committed_tokens_pay_out_at_the_end(self):
        sale = make_sale(4, 8, p0=Fraction(6, 5), pt=Fraction(11, 10))
        bid(sale, "a", 100, 500)
        sale.advance_block()
        sale.advance_block()
        sale.voluntary_withdraw("a")
        for _ in range(6):
            sale.advance_block()
        allocations = sale.finalize()
        assert allocations == {"a": 56}
        r = sale.claim("a")
        assert (r.tokens, r.refund) == (56, 0)

    def test_penalty_free_mode_returns_everything(self):
        sale = make_sale(4, 8, p0=Fraction(6, 5), pt=Fraction(11, 10),
                         penalty_free_withdrawal=True)
        bid(sale, "a", 100, 500)
        sale.advance_block()
        r = sale.voluntary_withdraw("a")
        assert r.refund == 100 and r.permanent_v == 0 and r.permanent_b == 0
        assert sale.bids["a"].status is BidStatus.USED

    def test_dormant_cancel_is_free(self):
        sale = make_sale(2, 4)
        bid(sale, "a", 50, 100, minimum=30, fee=7)
        sale.advance_block()
        r = sale.voluntary_withdraw("a")
        assert r.refund == 57 and r.fee_returned == 7 and r.was_dormant
        assert sale.dormant_total == 0 and sale.fees_escrowed == 0
        assert sale.ledger.entries == {"a": 57}

    def test_locked_and_invalid_cases(self):
        sale = make_sale(1, 3)
        bid(sale, "a", 10, 50)
        with pytest.raises(UnknownBid):
            sale.voluntary_withdraw("nobody")
        sale.advance_block()
        with pytest.raises(WithdrawalLocked):
            sale.voluntary_withdraw("a")

    def test_withdrawn_bid_cannot_withdraw_again(self):
        sale = make_sale(4, 8)
        bid(sale, "a", 100, 500)
        sale.advance_block()
        sale.voluntary_withdraw("a")
        with pytest.raises(NotActive):
            sale.voluntary_withdraw("a")


class TestPoke:
    def setup_method(self):
        self.sale = make_sale(3, 4, p0=Fraction(6, 5), pt=Fraction(11, 10))
        for name in ("d0", "d1", "d2"):
            bid(self.sale, name, 10, 60, minimum=30, fee=2)

    def test_exact_certificate_wakes_the_group(self):
        report = self.sale.poke(30, ["d0", "d1", "d2"], poker="keeper")
        assert sorted(report.activated) == ["d0", "d1", "d2"]
        assert report.fee_total == 6
        assert self.sale.V == 30 and self.sale.dormant_total == 0
        assert self.sale.fees_escrowed == 0
        assert self.sale.ledger.fee_earnings == {"keeper": 6}

    def test_under_minimum_rejected(self):
        with pytest.raises(InvalidTarget):
            self.sale.poke(29, ["d0", "d1", "d2"], poker="keeper")

    def test_unfunded_claim_rejected(self):
        with pytest.raises(InvalidTarget):
            self.sale.poke(31, ["d0", "d1", "d2"], poker="keeper")

    def test_duplicate_poke_rejected(self):
        self.sale.poke(30, ["d0", "d1", "d2"], poker="keeper")
        with pytest.raises(DuplicatePoke):
            self.sale.poke(30, ["d2", "d1", "d0"], poker="other")

    def test_target_validation(self):
        with pytest.raises(InvalidTarget):
            self.sale.poke(30, [], poker="keeper")
        with pytest.raises(UnknownBid):
            self.sale.poke(30, ["d0", "ghost"], poker="keeper")
        with pytest.raises(NegativeAmount):
            self.sale.poke(0, ["d0"], poker="keeper")

    def test_whole_minimum_bucket_migrates(self):
        # d3 shares the minimum but is not named; eligibility is bucket-wide
        bid(self.sale, "d3", 10, 60, minimum=30, fee=2)
        report = self.sale.poke(30, ["d0", "d1", "d2"], poker="keeper")
        assert sorted(report.activated) == ["d0", "d1", "d2", "d3"]
        assert report.fee_total == 8
        assert self.sale.V == 40

    def test_active_bids_may_certify_funding(self):
        bid(self.sale, "whale", 100, 600)
        report = self.sale.poke(30, ["whale", "d0"], poker="keeper")
        assert sorted(report.activated) == ["d0", "d1", "d2"]

    def test_woken_tokens_keep_entry_bonus(self):
        self.sale.poke(30, ["d0", "d1", "d2"], poker="keeper")
        assert self.sale.bids["d0"].b == 12   # floor(10 * 6/5) from stage 0


class TestAutomaticWithdrawals:
    def test_kick_refunds_full_face_value(self):
        sale = make_sale(1, 2)
        bid(sale, "small", 50, 60)
        bid(sale, "mid", 30, 100)
        bid(sale, "whale", 40, 200)
        sale.advance_block()
        summary = sale.advance_block()
        assert summary.V == 70
        [batch] = summary.batches
        assert batch.kind == "kick" and batch.cap == 60
        assert batch.addrs == ("small",)
        assert sale.ledger.entries == {"small": 50}
        assert sale.bids["small"].status is BidStatus.USED
        assert sale.bids["small"].exit_reason == "kicked"

    def test_scale_lands_exactly_on_cap(self):
        sale = make_sale(1, 2)
        bid(sale, "a1", 30, 79)
        bid(sale, "a2", 30, 79)
        sale.advance_block()
        bid(sale, "whale", 50, 200)
        summary = sale.advance_block()
        assert summary.V == 79
        [batch] = summary.batches
        assert batch.kind == "scale" and batch.q == Fraction(31, 60)
        assert batch.removed == 31
        assert sale.pending_refunds == 31

    def test_carryover_resumes_next_block(self):
        gas = GasSchedule(block_limit=40_038, loop_base=40_000,
                          pointer_move=19, store=0,
                          bid_submit=0, advice_check=0)
        sale = make_sale(1, 4, gas=gas)
        for i, cap in enumerate((20, 30, 40)):
            bid(sale, f"a{i}", 10, cap)
        bid(sale, "big", 100, 1000)
        sale.advance_block()

        choked = sale.advance_block()     # two moves fit, third kick deferred
        assert choked.carryover
        assert choked.V == 110 and choked.boundary == 30
        assert [b.cap for b in choked.batches] == [20, 30]

        resumed = sale.advance_block()
        assert not resumed.carryover
        assert resumed.V == 100 and resumed.boundary == 40
        assert [b.cap for b in resumed.batches] == [40]

        sale.advance_block()
        sale.finalize()
        assert sale.final_V == 100
        assert sale.retained["big"] == 100

    def test_final_block_must_settle(self):
        gas = GasSchedule(block_limit=40_019, loop_base=40_000,
                          pointer_move=19, store=0,
                          bid_submit=0, advice_check=0)
        sale = make_sale(1, 2, gas=gas)
        for i, cap in enumerate((20, 30, 40)):
            bid(sale, f"a{i}", 10, cap)
        bid(sale, "big", 100, 1000)
        sale.advance_block()
        assert sale.advance_block().carryover
        with pytest.raises(GasExhausted):
            sale.finalize()


class TestFinalization:
    def make_settled(self):
        sale = make_sale(1, 2)
        bid(sale, "a1", 30, 79)
        bid(sale, "a2", 30, 79)
        sale.advance_block()
        bid(sale, "whale", 50, 200)
        sale.advance_block()
        return sale

    def test_scaled_members_split_the_bucket_floor(self):
        sale = self.make_settled()
        allocations = sale.finalize()
        assert sale.final_V == 79
        # floor(30 * 29/60) per member; the missing unit flows to refunds
        assert sale.retained == {"a1": 14, "a2": 14, "whale": 50}
        assert sale.final_refunds == {"a1": 16, "a2": 16, "whale": 0}
        assert allocations == {"a1": 14, "a2": 14, "whale": 50}
        assert sale.proceeds == 78
        assert sale.pending_refunds == 0
        report = sale.conservation_report()
        assert report.deposits == 110 and report.delta == 0

    def test_sleeping_dormant_bid_fully_refunded(self):
        sale = make_sale(1, 2)
        bid(sale, "a", 50, 100)
        bid(sale, "z", 10, 40, minimum=20, fee=3)
        sale.advance_block()
        sale.advance_block()
        sale.finalize()
        assert sale.allocations["z"] == 0
        assert sale.final_refunds["z"] == 13
        r = sale.claim("z")
        assert (r.tokens, r.refund) == (0, 13)

    def test_claim_rules(self):
        sale = self.make_settled()
        with pytest.raises(NotEnded):
            sale.claim("a1")
        sale.finalize()
        r = sale.claim("a1")
        assert (r.tokens, r.refund) == (14, 16)
        with pytest.raises(AlreadyClaimed):
            sale.claim("a1")
        with pytest.raises(UnknownBid):
            sale.claim("nobody")

    def test_lifecycle_guards(self):
        sale = self.make_settled()
        with pytest.raises(SaleEnded):
            sale.advance_block()          # stage u has no next block
        sale.finalize()
        with pytest.raises(SaleEnded):
            sale.finalize()
        with pytest.raises(SaleEnded):
            bid(sale, "late", 10, 500)
        early = make_sale(1, 3)
        bid(early, "a", 10, 50)
        early.advance_block()
        with pytest.raises(NotEnded):
            early.finalize()

    def test_kicked_bid_claims_nothing_further(self):
        sale = make_sale(1, 2)
        bid(sale, "small", 50, 60)
        bid(sale, "whale", 100, 200)
        sale.advance_block()
        sale.advance_block()
        sale.finalize()
        # face value was credited at the kick, the claim pays zero on top
        assert sale.ledger.entries["small"] == 50
        r = sale.claim("small")
        assert (r.tokens, r.refund) == (0, 0)


class TestValuationSelfCheck:
    def test_drift_is_an_ico_error(self):
        assert issubclass(ConservationDrift, IcoError)

    def test_corrupted_valuation_stops_the_block(self):
        sale = make_sale(1, 3)
        bid(sale, "a", 10, 50)
        sale.V += 1
        with pytest.raises(ConservationDrift):
            sale.advance_block()

    def test_capital_slipped_into_a_cached_bucket_stops_the_block(self):
        sale = make_sale(1, 3)
        bid(sale, "a", 10, 50)
        sale.advance_block()                  # the bucket's live capital is now cached
        sale.book.caps.get(50).add(Bid("ghost", 5, 5, 50, 1, BidStatus.ACTIVE))
        with pytest.raises(ConservationDrift):
            sale.advance_block()


class TestInvariants:
    def _random_sale(self, rng):
        u = rng.randint(2, 12)
        t = rng.randint(1, max(1, u - 1))
        a = rng.choice((Fraction(0), Fraction(1, 5)))
        sale = make_sale(t, u, p0=1 + a, pt=1 + a / 2)
        names = iter(f"b{i}" for i in range(1000))
        for s in range(u + 1):
            for _ in range(rng.randint(0, 4)):
                name = next(names)
                v = rng.randint(1, 200)
                cap = rng.randint(1, 300)
                try:
                    if rng.random() < 0.25 and cap > 1:
                        bid(sale, name, v, cap, minimum=rng.randint(1, cap - 1),
                            fee=rng.randint(0, 3))
                    else:
                        bid(sale, name, v, cap)
                except IcoError:
                    pass
            if not sale.locked and rng.random() < 0.4:
                active = [b.address for b in sale.bids.values()
                          if b.status in (BidStatus.ACTIVE, BidStatus.DORMANT)]
                if active:
                    sale.voluntary_withdraw(rng.choice(active))
            if rng.random() < 0.3:
                dormant = [b for b in sale.bids.values()
                           if b.status is BidStatus.DORMANT]
                if dormant:
                    x = max(b.minimum for b in dormant)
                    try:
                        sale.poke(x, [b.address for b in dormant], poker="k")
                    except IcoError:
                        pass
            if s < u:
                sale.advance_block()
        return sale

    def test_conservation_and_settled_monotonicity(self):
        rng = random.Random(2024)
        for _ in range(60):
            sale = self._random_sale(rng)
            sale.finalize()
            sale.conservation_report()    # raises on any lost unit
            settled = [blk.V for blk in sale.block_log
                       if blk.stage >= sale.config.t and not blk.carryover]
            # settled post-lock valuations never decrease
            for earlier, later in zip(settled, settled[1:]):
                assert earlier <= later
            assert sale.final_V == sale.block_log[-1].V
            # every deposited unit ends as refund, fee, proceeds or commitment
            report = sale.conservation_report()
            assert report.deposits == (report.refunds + report.fees_paid
                                       + report.proceeds + report.permanent_v)


# withdrawals and poke targets name live bids by index, so most of them
# reach the book; few caps, so pokes often wake bids into scaled buckets
_BOOK_OPS = st.lists(st.one_of(
    st.tuples(st.just("bid"), st.integers(1, 60), st.integers(2, 4),
              st.one_of(st.none(), st.integers(1, 3)), st.integers(0, 2)),
    st.tuples(st.just("withdraw"), st.integers(0, 20)),
    # x None claims the largest minimum among the targets
    st.tuples(st.just("poke"), st.lists(st.integers(0, 20), min_size=1, max_size=4),
              st.one_of(st.none(), st.integers(1, 300))),
    st.tuples(st.just("advance")),
), min_size=10, max_size=60)


def _assert_book_holds_the_bids(sale):
    """The cap book holds exactly the ACTIVE bids, the minimum book exactly
    the DORMANT ones, each under its own key, as the sale's own records."""
    for book, status, key_of in ((sale.book.caps, BidStatus.ACTIVE, lambda b: b.cap),
                                 (sale.book.minimums, BidStatus.DORMANT,
                                  lambda b: b.minimum)):
        held = set()
        for bucket in book:
            assert bucket.members, bucket.key
            for address, member in bucket.members.items():
                assert member is sale.bids[address]
                assert key_of(member) == bucket.key
                held.add(address)
        assert held == {a for a, b in sale.bids.items() if b.status is status}


@settings(deadline=None, max_examples=200)
@given(st.integers(0, 2), _BOOK_OPS)
def test_book_membership_matches_bid_status(t, ops):
    sale = make_sale(t, t + 8, g=10, p0=Fraction(6, 5), pt=Fraction(11, 10))
    for n, op in enumerate(ops):
        live = sorted(a for a, b in sale.bids.items()
                      if b.status in (BidStatus.ACTIVE, BidStatus.DORMANT))
        if op[0] == "advance":
            if sale.stage_index < sale.config.u:
                sale.advance_block()      # a drift here is a failure, not a rejection
        else:
            with contextlib.suppress(IcoError):
                if op[0] == "bid":
                    _, v, cap, minimum, fee = op
                    if minimum is None or minimum >= cap:
                        bid(sale, f"a{n}", v, 10 * cap)
                    else:
                        bid(sale, f"a{n}", v, 10 * cap, minimum=10 * minimum, fee=fee)
                elif op[0] == "withdraw" and live:
                    sale.voluntary_withdraw(live[op[1] % len(live)])
                elif op[0] == "poke" and live:
                    _, picks, x = op
                    target = sorted({live[i % len(live)] for i in picks})
                    if x is None:
                        x = max(sale.bids[a].minimum or 1 for a in target)
                    sale.poke(x, target, poker="keeper")
        _assert_book_holds_the_bids(sale)
    while sale.stage_index < sale.config.u:
        sale.advance_block()
    sale.finalize()
    _assert_book_holds_the_bids(sale)
