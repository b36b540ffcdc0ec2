from __future__ import annotations

import random
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import example, given, settings, strategies as st

from icosim.agents import (
    SignalParams, advantage_bound, breakeven_schedule, breakeven_threshold,
    directional_bound, manipulated_fraction, run_scenario, signaling_advantage,
    truthful_fraction,
)
from icosim.analysis import (
    _ALLOC_STATUSES, _SHAPE, _SWEEP, ALLOC_FIELDS, BLOCK_FIELDS, EVENT_FIELDS, FINAL_FIELDS,
    SCENARIO_ECHOES, SWEEP_KINDS, AuditReport, _Auditor, _Position, audit_trace,
    satisfaction_check,
)
from icosim.cli import main as cli_main
from icosim.errors import ParseError
from icosim.scenario import parse as parse_scenario
from icosim.trace import Trace, parse_amount, read_fields

from conftest import bench_module
from test_golden import ALL_KINDS_ROWS

SCENARIO_DIR = Path(__file__).resolve().parent.parent / "scenarios"


def random_params(rng):
    b = Fraction(rng.randint(0, 400), 1000)
    a = b + Fraction(rng.randint(1, 400), 1000)
    x = Fraction(rng.randint(0, 10**6))
    y = Fraction(rng.randint(0, 10**6))
    if x + y == 0:
        x = Fraction(1)
    return SignalParams(a, b, x, y)


class TestSignalAlgebra:
    def test_advantage_is_the_share_difference(self):
        rng = random.Random(40)
        for _ in range(2000):
            p = random_params(rng)
            gain = signaling_advantage(p)
            assert gain == manipulated_fraction(p) - truthful_fraction(p)
            assert 0 <= gain <= advantage_bound(p.a, p.b)
            assert gain <= directional_bound(p)

    def test_matched_stakes_reduce_cleanly(self):
        # equal stakes: gain is (A - B) / (2 (A + B)) whatever the scale
        for scale in (1, 7, 10**9):
            p = SignalParams(Fraction(1, 5), Fraction(1, 10),
                             Fraction(scale), Fraction(scale))
            assert signaling_advantage(p) == Fraction(1, 46)
        assert Fraction(1, 46) == Fraction(3, 138)

    def test_truthful_share_ignores_the_bonus(self):
        p = SignalParams(Fraction(1, 2), Fraction(0), Fraction(30), Fraction(70))
        assert truthful_fraction(p) == Fraction(30, 100)

    def test_directional_bound_tightens_with_stake_order(self):
        a, b = Fraction(1, 5), Fraction(1, 10)
        small_x = SignalParams(a, b, Fraction(1), Fraction(100))
        big_x = SignalParams(a, b, Fraction(100), Fraction(1))
        A, B = small_x.A, small_x.B
        assert directional_bound(small_x) == (A - B) / (A + 2 * B)
        assert directional_bound(big_x) == (A - B) / (2 * A + B)
        even = SignalParams(a, b, Fraction(5), Fraction(5))
        assert directional_bound(even) == min((A - B) / (A + 2 * B),
                                              (A - B) / (2 * A + B))

    def test_bound_is_approached_but_never_crossed(self):
        # sweep stake ratios; the supremum (a - b) / 3 is not attained
        a, b = Fraction(1, 5), Fraction(1, 10)
        best = max(signaling_advantage(SignalParams(a, b, Fraction(k), Fraction(100)))
                   for k in range(1, 300))
        assert best < advantage_bound(a, b)

    def test_param_validation(self):
        with pytest.raises(ValueError):
            SignalParams(Fraction(1, 10), Fraction(1, 5), Fraction(1), Fraction(1))
        with pytest.raises(ValueError):
            SignalParams(Fraction(1, 5), Fraction(1, 5), Fraction(1), Fraction(1))
        with pytest.raises(ValueError):
            SignalParams(Fraction(1, 5), Fraction(1, 10), Fraction(0), Fraction(0))


class TestBreakeven:
    def test_halving_schedule(self):
        a, b = Fraction(1, 5), Fraction(1, 10)
        assert breakeven_schedule(a, b, 3) == [Fraction(1, 2), Fraction(1, 4),
                                               Fraction(1, 8)]
        assert breakeven_threshold(a, b, 1) == Fraction(1, 2)
        assert breakeven_threshold(a, b, 3) == Fraction(1, 8)

    def test_recursion_matches_closed_form(self):
        rng = random.Random(91)
        for _ in range(200):
            b = Fraction(rng.randint(0, 50), 100)
            a = b + Fraction(rng.randint(1, 50), 100)
            schedule = breakeven_schedule(a, b, 20)
            for n, p in enumerate(schedule, start=1):
                assert p == breakeven_threshold(a, b, n)

    def test_validation(self):
        with pytest.raises(ValueError):
            breakeven_threshold(Fraction(1, 10), Fraction(1, 5))
        with pytest.raises(ValueError):
            breakeven_threshold(Fraction(1, 5), Fraction(1, 10), 0)

    @pytest.mark.parametrize("n", [0, -1])
    @pytest.mark.parametrize("rounds", [breakeven_threshold, breakeven_schedule])
    def test_no_rounds_is_refused(self, rounds, n):
        with pytest.raises(ValueError, match="need n >= 1"):
            rounds(Fraction(1, 5), Fraction(1, 10), n)


class TestSatisfaction:
    def test_each_region(self):
        rows = [("keeps", 10, 100, 10),      # cap above V: full stake
                ("gone", 10, 50, 0),         # cap below V: nothing
                ("edge", 10, 79, 4)]         # cap at V: any partial amount
        report = satisfaction_check(79, rows)
        assert report.ok and report.checked == 3

    def test_failures_carry_expectations(self):
        rows = [("keeps", 10, 100, 9), ("gone", 10, 50, 1), ("edge", 10, 79, 11)]
        report = satisfaction_check(79, rows)
        assert not report.ok
        expected = {f.address: f.expected for f in report.failures}
        assert expected == {"keeps": "== 10", "gone": "== 0",
                            "edge": "in [0, 10]"}


# --- forged-trace audits -------------------------------------------------------

WHALE_TEXT = "\n".join([
    "ico-scenario\t1",
    "sale\tt=1\tu=2\tgranularity=1",
    "curve\tp0=1\tpt=1\tpu=1",
    "seed\t11",
    "event\t0\ta1\tbid\tv=30\tcap=79",
    "event\t0\ta2\tbid\tv=30\tcap=79",
    "event\t1\twhale\tbid\tv=50\tcap=200",
]) + "\n"

KICK_TEXT = "\n".join([
    "ico-scenario\t1",
    "sale\tt=1\tu=2\tgranularity=1",
    "curve\tp0=1\tpt=1\tpu=1",
    "seed\t2",
    "event\t0\tsmall\tbid\tv=50\tcap=60",
    "event\t0\tbig\tbid\tv=100\tcap=200",
]) + "\n"


@pytest.fixture(scope="module")
def whale_trace():
    return run_scenario(parse_scenario(WHALE_TEXT)).trace


@pytest.fixture(scope="module")
def kick_trace():
    return run_scenario(parse_scenario(KICK_TEXT)).trace


def edited(trace, prefix, old, new, nth=0):
    """Copy a trace with one targeted single-line edit."""
    body = list(trace.body)
    hits = [i for i, line in enumerate(body) if line.startswith(prefix)]
    line = body[hits[nth]]
    assert old in line, f"{old!r} not found in {line!r}"
    body[hits[nth]] = line.replace(old, new)
    return Trace(body=body)


def repeated(trace, prefix):
    """Copy a trace with the first line starting ``prefix`` written twice."""
    body = list(trace.body)
    i = next(i for i, line in enumerate(body) if line.startswith(prefix))
    body.insert(i + 1, body[i])
    return Trace(body=body)


def bundled_trace(name):
    return run_scenario(parse_scenario((SCENARIO_DIR / f"{name}.tsv").read_text())).trace


def checks(trace):
    return {v.check for v in audit_trace(trace).violations}


def forged(records, sale="sale\tt=1\tu=2\tgranularity=1"):
    return Trace(body=["ico-trace\t2", f"scn\t{sale}"] + list(records))


def blk(stage, V, deposits, carry=0, **kw):
    vals = dict(gas=0, boundary=0, dormant=0, permanent=0, pending=0,
                escrow=0, fees_paid=0, refunds=0, proceeds=0)
    vals.update(kw)
    return (f"blk\t{stage}\tV={V}\tgas={vals['gas']}\tboundary={vals['boundary']}"
            f"\tcarry={carry}\tdormant={vals['dormant']}"
            f"\tpermanent={vals['permanent']}\tpending={vals['pending']}"
            f"\tescrow={vals['escrow']}\tfees_paid={vals['fees_paid']}"
            f"\trefunds={vals['refunds']}\tproceeds={vals['proceeds']}"
            f"\tdeposits={deposits}")


class TestAuditorOnHonestRuns:
    def test_clean_reports(self, whale_trace, kick_trace):
        for trace in (whale_trace, kick_trace):
            report = audit_trace(trace)
            assert report.clean
            assert report.blocks == 3
            assert report.lag_stages == []
        assert audit_trace(whale_trace).final_v == 79

    def test_report_lines_render(self, whale_trace):
        report = audit_trace(whale_trace)
        assert report.lines() == ["audit\tclean\tblocks=3\tcount=0"]
        forged_report = audit_trace(edited(whale_trace, "fin", "V=79", "V=78"))
        lines = forged_report.lines()
        assert lines[0].startswith("audit\tviolation")
        assert any("check=final-mismatch" in line for line in lines[1:])


class TestForgedAggregates:
    def test_inflated_block_valuation(self, whale_trace):
        flagged = checks(edited(whale_trace, "blk\t1", "V=79", "V=80"))
        assert "ledger-mismatch:V" in flagged
        assert "conservation" in flagged

    def test_gas_over_limit(self, whale_trace):
        flagged = checks(edited(whale_trace, "blk\t1", "gas=92019",
                                "gas=6700001"))
        assert flagged == {"gas-over-limit"}

    def test_boundary_decrease(self, whale_trace):
        flagged = checks(edited(whale_trace, "blk\t2", "boundary=79",
                                "boundary=0"))
        assert "boundary-decrease" in flagged

    def test_hidden_deposit(self, whale_trace):
        flagged = checks(edited(whale_trace, "blk\t2", "deposits=110",
                                "deposits=111"))
        assert "ledger-mismatch:deposits" in flagged
        assert "conservation" in flagged

    def test_valuation_decrease_between_settled_blocks(self):
        # the monotone claim covers settled post-lock blocks only, so the
        # drop is staged between blocks 1 and 2 of a t=1 sale
        trace = forged([
            "ev\t0\t1\ta\tbid\tok\tv=100\tcap=200\tm=-\tfee=0",
            blk(0, 100, 100),
            blk(1, 100, 100),
            blk(2, 90, 100),
            "alloc\ta\ttokens=90\tretained=90\trefund_final=10\tstatus=active",
            "fin\tV=90\tstage=2\tproceeds=90",
        ])
        flagged = checks(trace)
        assert "valuation-decrease" in flagged
        assert "ledger-mismatch:V" in flagged


class TestMalformedBlockRecords:
    """``on_block`` reads amounts through the field reader: errors keep
    their wording and name the bad field's own column."""

    @pytest.mark.parametrize("old,new,bad", [
        ("V=79", "V=seventy", "seventy"),          # first amount
        ("pending=31", "pending=1.5", "1.5"),     # a middle one
        ("deposits=110", "deposits=", ""),        # the last one
    ])
    def test_bad_amount_names_line_and_column(self, whale_trace, old, new, bad):
        trace = edited(whale_trace, "blk\t2", old, new)
        line_no, line = next((i, line) for i, line in enumerate(trace.body, start=1)
                             if line.startswith("blk\t2"))
        with pytest.raises(ParseError) as exc:
            audit_trace(trace)
        assert (exc.value.line, exc.value.column) == (line_no, line.index(new) + 1)
        assert f"expected an integer amount, got {bad!r}" in str(exc.value)

    def test_first_bad_amount_in_record_order_is_reported(self, whale_trace):
        trace = edited(whale_trace, "blk\t2", "dormant=0", "dormant=x")
        trace = edited(trace, "blk\t2", "gas=0", "gas=y")
        with pytest.raises(ParseError, match="got 'y'"):
            audit_trace(trace)

    def test_duplicate_key_is_a_parse_error(self, whale_trace):
        trace = edited(whale_trace, "blk\t2", "\tdeposits=", "\tV=79\tdeposits=")
        with pytest.raises(ParseError, match="duplicate key"):
            audit_trace(trace)


class TestMalformedStoredRecords:
    """A stored record the auditor cannot read is a ParseError at its line,
    naming the bad field's column; never a bare KeyError or ValueError."""

    @pytest.mark.parametrize("prefix,old,new,message", [
        ("s3\t", "\tcap=79", "", "s3 record needs cap="),
        ("ev\t0\t1\t", "\tv=30", "", "ev record needs v="),
        ("ev\t0\t1\t", "v=30", "v=abc", "expected an integer amount, got 'abc'"),
        ("ev\t0\t1\t", "fee=0", "fee=", "expected an integer amount, got ''"),
        ("ev\t0\t1\t", "m=-", "m=q", "expected an integer amount, got 'q'"),
        ("s3\t", "n=2", "broken", "expected key=value, got 'broken'"),
        ("s3\t", "q=31/60", "q=1/0", "expected an integer or num/den rational"),
        ("s3\t", "out=31", "out=x", "expected an integer amount, got 'x'"),
        ("alloc\t", "retained=14", "retained=x", "expected an integer amount, got 'x'"),
        ("alloc\t", "\tstatus=active", "", "alloc record needs status="),
        ("fin\t", "stage=2", "stage=two", "expected an integer amount, got 'two'"),
        ("blk\t1", "\tV=79", "", "blk record needs V="),
        ("scn\tsale\t", "granularity=1", "granularity=0", "granularity must be > 0, got 0"),
        ("ev\t", "0\t1\t", "x\t1\t", "expected an integer amount, got 'x'"),
        ("s3\t", "1\t1\tscale", "x\t1\tscale", "expected an integer amount, got 'x'"),
        ("blk\t", "0\tV=", "x\tV=", "expected an integer amount, got 'x'"),
    ])
    def test_names_line_and_column(self, whale_trace, prefix, old, new, message):
        trace = edited(whale_trace, prefix, old, new)
        line_no, line = next((i, line) for i, line in enumerate(trace.body, start=1)
                             if line.startswith(prefix))
        with pytest.raises(ParseError) as exc:
            audit_trace(trace)
        column = line.index(new) + 1 if new else 1
        assert (exc.value.line, exc.value.column) == (line_no, column)
        assert str(exc.value).startswith(f"line {line_no}, column {column}: {message}")

    def test_sixth_sweep_field_is_named_at_its_own_column(self, whale_trace):
        trace = edited(whale_trace, "s3\t", "n=2", "broken")
        with pytest.raises(ParseError) as exc:
            audit_trace(trace)
        assert exc.value.column == 21

    def test_short_record(self, whale_trace):
        first = next(line for line in whale_trace.body if line.startswith("ev\t0\t1\t"))
        trace = edited(whale_trace, "ev\t0\t1\t", first, "ev\t0\t1\ta1\tbid")
        with pytest.raises(ParseError, match="ev record has 5 fields, needs 6"):
            audit_trace(trace)

    def test_bad_scenario_echo(self, whale_trace):
        trace = edited(whale_trace, "scn\tsale\t", "u=2", "u=x")
        with pytest.raises(ParseError) as exc:
            audit_trace(trace)
        assert (exc.value.line, exc.value.column) == (3, 14)


class TestForgedSweeps:
    def test_scale_not_landing_on_cap(self, whale_trace):
        flagged = checks(edited(whale_trace, "s3", "out=31", "out=30"))
        assert "scale-exactness" in flagged

    def test_kick_short_credit(self, kick_trace):
        flagged = checks(edited(kick_trace, "s3", "credited=50", "credited=49"))
        assert "kick-credit" in flagged

    def test_kick_wrong_removal(self, kick_trace):
        flagged = checks(edited(kick_trace, "s3", "out=50", "out=49"))
        assert "kick-out" in flagged

    def test_kick_membership_hidden(self, kick_trace):
        flagged = checks(edited(kick_trace, "s3", "addrs=small", "addrs=-"))
        assert "kick-members" in flagged

    def test_kick_without_clearance(self, kick_trace):
        flagged = checks(edited(kick_trace, "s3", "live=50", "live=149"))
        assert "kick-condition" in flagged

    def test_scale_fraction_out_of_range(self, whale_trace):
        flagged = checks(edited(whale_trace, "s3", "q=31/60", "q=1"))
        assert "scale-fraction" in flagged

    def test_sweep_before_lock(self, kick_trace):
        flagged = checks(edited(kick_trace, "s3", "s3\t1", "s3\t0"))
        assert "early-sweep" in flagged
        assert "stage-order" in flagged


class TestForgedEvents:
    def test_rule_breaking_acceptances(self):
        trace = forged([
            "ev\t0\t1\ta\tbid\tok\tv=10\tcap=15\tm=-\tfee=0",
            "ev\t0\t2\ta\tbid\tok\tv=10\tcap=20\tm=-\tfee=0",
            "ev\t0\t3\tb\tbid\tok\tv=10\tcap=40\tm=25\tfee=0",
            blk(0, 20, 40, dormant=10),
            "ev\t1\t4\tc\tbid\tok\tv=5\tcap=20\tm=-\tfee=0",
            blk(1, 25, 45, dormant=10),
            blk(2, 25, 45, dormant=10),
            "alloc\ta\ttokens=20\tretained=20\trefund_final=0\tstatus=active",
            "alloc\tb\ttokens=0\tretained=0\trefund_final=10\tstatus=dormant",
            "alloc\tc\ttokens=5\tretained=5\trefund_final=0\tstatus=active",
            "fin\tV=25\tstage=2\tproceeds=25",
        ], sale="sale\tt=1\tu=2\tgranularity=10")
        flagged = checks(trace)
        assert {"misaligned-cap", "address-reuse", "bad-minimum",
                "accepted-low-cap"} <= flagged

    def test_withdrawal_after_lock(self):
        trace = forged([
            "ev\t0\t1\ta\tbid\tok\tv=100\tcap=200\tm=-\tfee=0",
            blk(0, 100, 100),
            "ev\t1\t2\ta\twithdraw\tok\trefund=100\tfee_back=0\tperm_v=0\tperm_b=0",
            blk(1, 0, 100, refunds=100),
            blk(2, 0, 100, refunds=100),
            "alloc\ta\ttokens=0\tretained=0\trefund_final=0\tstatus=used:voluntary",
            "fin\tV=0\tstage=2\tproceeds=0",
        ])
        assert checks(trace) == {"late-withdrawal"}

    def test_withdrawal_shortchanged(self):
        trace = forged([
            "ev\t0\t1\ta\tbid\tok\tv=100\tcap=200\tm=-\tfee=0",
            "ev\t0\t2\ta\twithdraw\tok\trefund=90\tfee_back=0\tperm_v=0\tperm_b=0",
            blk(0, 0, 100, refunds=90),
            blk(1, 0, 100, refunds=90),
            blk(2, 0, 100, refunds=90),
            "alloc\ta\ttokens=0\tretained=0\trefund_final=0\tstatus=used:voluntary",
            "fin\tV=0\tstage=2\tproceeds=0",
        ])
        flagged = checks(trace)
        assert "refund-mismatch" in flagged
        assert "conservation" in flagged

    def test_poke_with_uncertified_claim(self):
        trace = forged([
            "ev\t0\t1\td0\tbid\tok\tv=10\tcap=60\tm=30\tfee=0",
            blk(0, 0, 10, dormant=10),
            "ev\t1\t2\tk\tpoke\tok\tx=40\ttarget=d0\tactivated=d0\tfee=0",
            blk(1, 10, 10),
            blk(2, 10, 10),
            "alloc\td0\ttokens=10\tretained=10\trefund_final=0\tstatus=active",
            "fin\tV=10\tstage=2\tproceeds=10",
        ])
        assert "poke-verify" in checks(trace)

    def test_poke_naming_an_address_twice(self):
        # counted twice, a's v=10 would certify x=20
        trace = forged([
            "ev\t0\t1\ta\tbid\tok\tv=10\tcap=60\tm=15\tfee=0",
            blk(0, 0, 10, dormant=10),
            "ev\t1\t2\tk\tpoke\tok\tx=20\ttarget=a+a\tactivated=a\tfee=0",
            blk(1, 10, 10),
            blk(2, 10, 10),
            "alloc\ta\ttokens=10\tretained=10\trefund_final=0\tstatus=active",
            "fin\tV=10\tstage=2\tproceeds=10",
        ])
        assert checks(trace) == {"poke-verify"}

    def test_withdrawal_repeated(self):
        trace = repeated(bundled_trace("blackout"), "ev\t3\t3\tmx.e\twithdraw\tok")
        assert "withdraw-status" in checks(trace)

    def test_poke_waking_a_minimum_above_x(self):
        trace = edited(bundled_trace("poke"), "ev\t1\t4\tkeeper\tpoke", "x=30", "x=29")
        details = [v.detail for v in audit_trace(trace).violations
                   if v.check == "poke-verify"]
        assert {f"{a} minimum above x=29" for a in ("d0", "d1", "d2")} <= set(details)

    def test_poke_waking_non_dormant(self):
        trace = forged([
            "ev\t0\t1\ta\tbid\tok\tv=10\tcap=60\tm=-\tfee=0",
            blk(0, 10, 10),
            "ev\t1\t2\tk\tpoke\tok\tx=10\ttarget=a\tactivated=a\tfee=0",
            blk(1, 10, 10),
            blk(2, 10, 10),
            "alloc\ta\ttokens=10\tretained=10\trefund_final=0\tstatus=active",
            "fin\tV=10\tstage=2\tproceeds=10",
        ])
        assert "poke-not-dormant" in checks(trace)

    def test_poke_fee_misreported(self):
        trace = forged([
            "ev\t0\t1\td0\tbid\tok\tv=40\tcap=60\tm=30\tfee=5",
            blk(0, 0, 45, dormant=40, escrow=5),
            "ev\t1\t2\tk\tpoke\tok\tx=30\ttarget=d0\tactivated=d0\tfee=3",
            blk(1, 40, 45, fees_paid=5),
            blk(2, 40, 45, fees_paid=5),
            "alloc\td0\ttokens=40\tretained=40\trefund_final=0\tstatus=active",
            "fin\tV=40\tstage=2\tproceeds=40",
        ])
        assert "poke-fee" in checks(trace)

    def test_event_attributed_to_wrong_block(self, whale_trace):
        flagged = checks(edited(whale_trace, "ev\t1", "ev\t1", "ev\t0"))
        assert "stage-order" in flagged


class TestForgedSettlement:
    def test_truncated_run(self, whale_trace):
        cut = whale_trace.body.index(
            next(l for l in whale_trace.body if l.startswith("blk\t1")))
        assert "truncated" in checks(Trace(body=whale_trace.body[:cut + 1]))

    def test_missing_allocation(self, whale_trace):
        body = [l for l in whale_trace.body if not l.startswith("alloc\ta1")]
        flagged = checks(Trace(body=body))
        assert "missing-alloc" in flagged
        assert "final-conservation" in flagged

    def test_cap_rule_violated_in_allocation(self, whale_trace):
        doctored = edited(whale_trace, "alloc\twhale",
                          "tokens=50\tretained=50\trefund_final=0",
                          "tokens=50\tretained=49\trefund_final=1")
        flagged = checks(doctored)
        assert "satisfaction" in flagged
        assert "ledger-mismatch:proceeds" in flagged

    def test_allocation_split_broken(self, whale_trace):
        doctored = edited(whale_trace, "alloc\ta1", "refund_final=16",
                          "refund_final=17")
        assert "alloc-split" in checks(doctored)

    def test_allocation_written_twice(self, whale_trace):
        assert "duplicate-alloc" in checks(repeated(whale_trace, "alloc\ta1"))

    def test_dormant_allocation_split_broken(self):
        trace = run_scenario(parse_scenario("\n".join([
            "ico-scenario\t1",
            "sale\tt=1\tu=2\tgranularity=1",
            "curve\tp0=1\tpt=1\tpu=1",
            "seed\t3",
            "event\t0\td\tbid\tv=10\tcap=60\tm=30\tfee=2",
        ]) + "\n")).trace
        assert audit_trace(trace).clean
        doctored = edited(trace, "alloc\td", "refund_final=12", "refund_final=11")
        assert "alloc-split" in checks(doctored)

    @pytest.mark.parametrize("status", ["activeX", "active:bogus"])
    def test_forged_status_spelling(self, whale_trace, status):
        doctored = edited(whale_trace, "alloc\twhale", "status=active", f"status={status}")
        assert "alloc-status" in checks(doctored)

    def test_final_stage_and_value(self, whale_trace):
        assert "final-stage" in checks(edited(whale_trace, "fin", "stage=2",
                                              "stage=1"))
        assert "final-mismatch" in checks(edited(whale_trace, "fin", "V=79",
                                                 "V=78"))

    def test_final_value_read_before_any_settled_block(self):
        # no block has settled, so no final line is expected: the record is read
        with pytest.raises(ParseError, match="line 3"):
            audit_trace(forged(["fin\tV=None\tstage=2\tproceeds=0"]))

    def test_final_record_repeated(self, whale_trace):
        report = audit_trace(repeated(whale_trace, "fin"))
        fin_line = len(whale_trace.body)
        assert [(v.check, v.detail) for v in report.violations] == [
            ("after-final", f"1 body lines follow the final record at line {fin_line}")]

    def test_record_after_the_final_one(self, whale_trace):
        body = whale_trace.body
        # an echoed scenario record, out of the echo
        assert checks(Trace(body=body + [body[1]])) == {"after-final", "echo-order"}
        # the last allocation moved after the settlement record
        moved = body[:-2] + [body[-1], body[-2]]
        assert moved[-1].startswith("alloc\t")
        assert "after-final" in checks(Trace(body=moved))

    def test_stale_pointer_unexcused(self):
        # V sits above the lowest active cap, no carryover claimed
        trace = forged([
            "ev\t0\t1\ta\tbid\tok\tv=100\tcap=10\tm=-\tfee=0",
            "ev\t0\t2\tb\tbid\tok\tv=100\tcap=200\tm=-\tfee=0",
            blk(0, 200, 200),
            blk(1, 200, 200),
            blk(2, 200, 200),
            "alloc\ta\ttokens=100\tretained=100\trefund_final=0\tstatus=active",
            "alloc\tb\ttokens=100\tretained=100\trefund_final=0\tstatus=active",
            "fin\tV=200\tstage=2\tproceeds=200",
        ])
        flagged = checks(trace)
        assert "stale-pointer" in flagged
        assert "satisfaction" in flagged      # the low cap kept its stake

    def test_carryover_excuses_the_lag_then_expires(self):
        rows = [
            "ev\t0\t1\ta\tbid\tok\tv=100\tcap=10\tm=-\tfee=0",
            "ev\t0\t2\tb\tbid\tok\tv=100\tcap=200\tm=-\tfee=0",
            blk(0, 200, 200),
            blk(1, 200, 200, carry=1),
            blk(2, 200, 200),
            "alloc\ta\ttokens=100\tretained=100\trefund_final=0\tstatus=active",
            "alloc\tb\ttokens=100\tretained=100\trefund_final=0\tstatus=active",
            "fin\tV=200\tstage=2\tproceeds=200",
        ]
        report = audit_trace(forged(rows))
        assert report.lag_stages == [1]
        flagged = {v.check for v in report.violations}
        assert "pointer-lag" in flagged
        staleness = [v for v in report.violations if v.check == "stale-pointer"]
        assert [v.stage for v in staleness] == [2]

    def test_undrained_pots(self):
        trace = forged([
            "ev\t0\t1\td\tbid\tok\tv=10\tcap=60\tm=30\tfee=2",
            blk(0, 0, 12, dormant=10, escrow=2),
            blk(1, 0, 12, dormant=10, escrow=2),
            blk(2, 0, 12, dormant=10, escrow=2),
            "fin\tV=0\tstage=2\tproceeds=0",
        ])
        flagged = checks(trace)
        assert {"missing-alloc", "undrained-pot", "final-conservation"} <= flagged


# --- mutated stored traces --------------------------------------------------

# the bodies of the bundled scenarios' traces and of the all-kinds golden trace
MUTATION_BODIES = [
    run_scenario(parse_scenario(text)).trace.body
    for text in [path.read_text() for path in sorted(SCENARIO_DIR.glob("*.tsv"))]
    + ["\n".join("\t".join(row) for row in ALL_KINDS_ROWS) + "\n"]]
# (body, line, field) for every field after the tag of every record
MUTATION_SITES = [(b, i, j) for b, body in enumerate(MUTATION_BODIES)
                  for i, line in enumerate(body) for j in range(1, line.count("\t") + 1)]
JUNK = ("", "-", "0", "-1", "x", "1/0", "a+b", "=", "a=b")
# an echoed ``granularity=``: set to 0, it must read as a ParseError
GRANULARITY_SITE = next((b, i, j) for b, i, j in MUTATION_SITES
                        if MUTATION_BODIES[b][i].split("\t")[j].startswith("granularity="))


class TestMutatedStoredTraces:
    """Whatever one field of a stored record says, the auditor returns a
    report or raises ParseError; it never fails any other way."""

    @settings(max_examples=1500, deadline=None)
    @given(st.sampled_from(MUTATION_SITES), st.sampled_from(JUNK + (None,)),
           st.booleans())
    @example(GRANULARITY_SITE, "0", True)
    def test_audit_reports_or_raises_parse_error(self, site, junk, keep_key):
        b, i, j = site
        body = list(MUTATION_BODIES[b])
        fields = body[i].split("\t")
        if junk is None:
            del fields[j]
        else:
            key, sep, _ = fields[j].partition("=")
            fields[j] = f"{key}={junk}" if keep_key and sep else junk
        body[i] = "\t".join(fields)
        try:
            report = audit_trace(Trace(body=body))
        except ParseError:
            return
        assert isinstance(report, AuditReport)


# --- auditor index vs. the full-scan reference --------------------------------


def referee_outcome(auditor, trace):
    """Everything a referee reports: the report's contents, or the error."""
    try:
        referee = auditor()
        referee.feed(trace.body)
        report = referee.finish()
    except ParseError as exc:
        return ("error", exc.line, exc.column, str(exc))
    return ("report", report.violations, report.lag_stages, report.blocks, report.final_v)


class _ScanningAuditor(_Auditor):
    """Reference auditor: kick membership, scale membership and the stale
    pointer are re-derived by scanning every position, as the auditor did
    before it kept a per-cap index.  Used only to check that the index
    flags exactly what the scans flag."""

    def on_step3(self, line: str, line_no: int) -> None:
        fields = line.split("\t")
        kind = fields[3] if len(fields) > 3 else ""
        rec = read_fields(fields, 4, line_no, SWEEP_KINDS.get(kind, _SWEEP), "s3")
        stage = parse_amount(fields[1], line_no, 4)  # column after "s3\t"
        cap, live, out = rec["cap"], rec["live"], rec["out"]
        if stage != self.stage:
            self.flag(stage, "stage-order", f"sweep at stage {stage} in block {self.stage}")
        if stage < self.t:
            self.flag(stage, "early-sweep", "automatic withdrawal before the lock")
        members = [a for a, p in self.pos.items()
                   if p.status == "active" and p.cap == cap]
        if kind == "kick":
            credited, addrs = rec["credited"], rec["addrs"]
            if self.V - live < cap:
                self.flag(stage, "kick-condition",
                          f"V={self.V} live={live} cap={cap}")
            if out != live:
                self.flag(stage, "kick-out", f"out={out} live={live}")
            if sorted(addrs) != sorted(members):
                self.flag(stage, "kick-members",
                          f"cap={cap} listed {sorted(addrs)} tracked {sorted(members)}")
            face = sum(self.pos[a].v for a in addrs if a in self.pos)
            if face != credited:
                self.flag(stage, "kick-credit", f"credited={credited} face={face}")
            for a in addrs:
                if a in self.pos:
                    self.pos[a].status = "used"
            self.V -= out
            self.pending -= credited - out
            self.refunds += credited
        elif kind == "scale":
            q = rec["q"]
            if not (0 < q < 1):
                self.flag(stage, "scale-fraction", f"q={q}")
            if out != self.V - cap:
                self.flag(stage, "scale-exactness",
                          f"out={out} but V-cap={self.V - cap}")
            if not members:
                self.flag(stage, "scale-members", f"no active bids at cap={cap}")
            self.V -= out
            self.pending += out
        else:
            self.flag(stage, "sweep-kind", kind)

    def on_block(self, line: str, line_no: int) -> None:
        fields = line.split("\t")
        rep = read_fields(fields, 2, line_no, BLOCK_FIELDS, "blk")
        stage = parse_amount(fields[1], line_no, 5)  # column after "blk\t"
        if stage != self.stage:
            self.flag(stage, "stage-order",
                      f"block {stage} closed where {self.stage} was expected")
        carry = rep["carry"]

        for name, mine in (("V", self.V), ("dormant", self.dormant),
                           ("permanent", self.permanent), ("pending", self.pending),
                           ("escrow", self.escrow), ("fees_paid", self.fees_paid),
                           ("refunds", self.refunds), ("deposits", self.deposits),
                           ("proceeds", self.proceeds)):
            if rep[name] != mine:
                self.flag(stage, f"ledger-mismatch:{name}",
                          f"reported {rep[name]}, derived {mine}")
        held = (rep["V"] + rep["dormant"] + rep["permanent"] + rep["pending"]
                + rep["escrow"] + rep["fees_paid"] + rep["refunds"]
                + rep["proceeds"])
        if held != rep["deposits"]:
            self.flag(stage, "conservation",
                      f"holdings {held} != deposits {rep['deposits']}")
        if rep["gas"] > self.block_limit:
            self.flag(stage, "gas-over-limit",
                      f"{rep['gas']} > {self.block_limit}")
        if rep["boundary"] < self.prev_boundary:
            self.flag(stage, "boundary-decrease",
                      f"{rep['boundary']} < {self.prev_boundary}")
        self.prev_boundary = rep["boundary"]

        if carry:
            self.report.lag_stages.append(stage)
            self.flag(stage, "pointer-lag",
                      "block closed with the sweep unfinished")
        if stage >= self.t:
            active_caps = [p.cap for p in self.pos.values() if p.status == "active"]
            if not carry and active_caps and min(active_caps) < self.V:
                self.flag(stage, "stale-pointer",
                          f"active cap {min(active_caps)} below valuation {self.V}")
            if not carry:
                if self.last_settled_v is not None and rep["V"] < self.last_settled_v:
                    self.flag(stage, "valuation-decrease",
                              f"{rep['V']} < {self.last_settled_v}")
                self.last_settled_v = rep["V"]
        self.report.blocks += 1
        self.stage += 1


def differential(trace):
    """Audit with the index and with the scans.  Both must report the same,
    or raise the same ParseError (line, column and message).  Returns the
    checks flagged, or the error outcome."""
    outcome = referee_outcome(_Auditor, trace)
    assert outcome == referee_outcome(_ScanningAuditor, trace)
    return {v.check for v in outcome[1]} if outcome[0] == "report" else outcome


CROWDED_KICK_TEXT = "\n".join([
    "ico-scenario\t1",
    "sale\tt=2\tu=3\tgranularity=1",
    "curve\tp0=1\tpt=1\tpu=1",
    "seed\t3",
    "event\t0\tsmall1\tbid\tv=20\tcap=60",
    "event\t0\tsmall2\tbid\tv=30\tcap=60",
    "event\t0\tquit\tbid\tv=5\tcap=60",
    "event\t0\tmid\tbid\tv=10\tcap=80",
    "event\t0\tbig\tbid\tv=100\tcap=200",
    "event\t0\tkeep\tbid\tv=7\tcap=60",
    "event\t0\tquit\twithdraw",       # withdrawn: used
    "event\t1\tkeep\twithdraw",       # withdrawn with a commitment: permanent
]) + "\n"


@pytest.fixture(scope="module")
def crowded_trace():
    return run_scenario(parse_scenario(CROWDED_KICK_TEXT)).trace


class TestAuditorIndexMatchesScan:
    KICK = "addrs=small1+small2"

    def test_honest_run(self, crowded_trace):
        assert differential(crowded_trace) == set()

    @pytest.mark.parametrize("addrs", [
        "small1+quit",            # a withdrawn address
        "small1+small2+keep",     # a permanent address
        "small1+small1",          # one address twice, count still matches
        "small1+mid",             # an address active at another cap
        "small2",                 # a member omitted
        "small1+small2+nobody",   # an address with no position
        "-",
    ])
    def test_kick_membership_forgeries(self, crowded_trace, addrs):
        doctored = edited(crowded_trace, "s3\t2\t1", self.KICK, f"addrs={addrs}")
        assert "kick-members" in differential(doctored)

    @pytest.mark.parametrize("prefix", ["blk\t2", "s3\t2"])
    def test_unreadable_stage_is_the_same_parse_error(self, crowded_trace, prefix):
        doctored = edited(crowded_trace, prefix, prefix, prefix[:-1] + "x")
        line_no = next(i for i, line in enumerate(doctored.body, start=1)
                       if line.startswith(prefix[:-1] + "x"))
        column = len(prefix)  # the stage, right after the tag
        assert differential(doctored)[:3] == ("error", line_no, column)

    def test_reused_address_leaves_its_old_cap(self):
        rows = [
            "ev\t0\t1\ta\tbid\tok\tv=100\tcap=10\tm=-\tfee=0",
            "ev\t0\t2\tb\tbid\tok\tv=100\tcap=200\tm=-\tfee=0",
            "ev\t0\t3\ta\tbid\tok\tv=50\tcap=150\tm=-\tfee=0",
            blk(0, 250, 250),
            "s3\t1\t1\tkick\tcap=10\tn=0\tlive=0\tq=-\tout=0\tcredited=0"
            "\taddrs={}",
            blk(1, 250, 250, boundary=10),
            blk(2, 250, 250, boundary=10),
            "alloc\ta\ttokens=50\tretained=50\trefund_final=0\tstatus=active",
            "alloc\tb\ttokens=100\tretained=100\trefund_final=0\tstatus=active",
            "fin\tV=250\tstage=2\tproceeds=150",
        ]
        kick = rows[4]
        empty = differential(forged(rows[:4] + [kick.format("-")] + rows[5:]))
        assert "address-reuse" in empty and "kick-members" not in empty
        listed = differential(forged(rows[:4] + [kick.format("a")] + rows[5:]))
        assert "kick-members" in listed

    def test_scale_at_a_cap_without_active_bids(self, whale_trace):
        flagged = differential(edited(whale_trace, "s3", "cap=79", "cap=78"))
        assert "scale-members" in flagged

    def test_stale_pointer_behind_withdrawn_and_kicked_caps(self):
        # the two lowest caps leave the book (one withdrawn, one kicked)
        # before the block is checked, so their heap entries are stale
        trace = forged([
            "ev\t0\t1\tw\tbid\tok\tv=30\tcap=5\tm=-\tfee=0",
            "ev\t0\t2\ta\tbid\tok\tv=100\tcap=10\tm=-\tfee=0",
            "ev\t0\t3\tb\tbid\tok\tv=100\tcap=200\tm=-\tfee=0",
            "ev\t0\t4\tc\tbid\tok\tv=50\tcap=120\tm=-\tfee=0",
            "ev\t0\t5\tw\twithdraw\tok\trefund=30\tfee_back=0\tperm_v=0\tperm_b=0",
            blk(0, 250, 280, refunds=30),
            "s3\t1\t1\tkick\tcap=10\tn=1\tlive=100\tq=-\tout=100\tcredited=100"
            "\taddrs=a",
            blk(1, 150, 280, boundary=10, refunds=130),
            blk(2, 150, 280, boundary=10, refunds=130),
            "alloc\ta\ttokens=0\tretained=0\trefund_final=0\tstatus=used:kicked",
            "alloc\tb\ttokens=100\tretained=100\trefund_final=0\tstatus=active",
            "alloc\tc\ttokens=50\tretained=50\trefund_final=0\tstatus=active",
            "alloc\tw\ttokens=0\tretained=0\trefund_final=0\tstatus=used:voluntary",
            "fin\tV=150\tstage=2\tproceeds=150",
        ])
        report = audit_trace(trace)
        stale = [v for v in report.violations if v.check == "stale-pointer"]
        assert [(v.stage, v.detail) for v in stale] == [
            (1, "active cap 120 below valuation 150"),
            (2, "active cap 120 below valuation 150")]
        assert "stale-pointer" in differential(trace)

    def test_randomly_forged_sweeps(self, corpus_runs):
        # rewrite the member list or the cap of one sweep record per trace
        rng = random.Random(77)
        runs, _ = corpus_runs
        forged_count = 0
        for run in runs:
            body = run.trace.body
            sweeps = [i for i, line in enumerate(body) if line.startswith("s3")]
            if not sweeps:
                continue
            bidders = sorted({line.split("\t")[3] for line in body
                              if line.startswith("ev") and "\tbid\tok" in line})
            i = rng.choice(sweeps)
            fields = body[i].split("\t")
            kv = dict(f.split("=", 1) for f in fields[4:])
            addrs = [] if kv["addrs"] == "-" else kv["addrs"].split("+")
            roll = rng.random()
            if roll < 0.25 and addrs:
                addrs.pop(rng.randrange(len(addrs)))
            elif roll < 0.5 and addrs:
                addrs.append(rng.choice(addrs))
            elif roll < 0.75:
                addrs[rng.randrange(len(addrs) + 1):0] = [rng.choice(bidders)]
            else:
                kv["cap"] = str(int(kv["cap"]) + rng.choice((-1, 1)))
            kv["addrs"] = "+".join(addrs) or "-"
            doctored = list(body)
            doctored[i] = "\t".join(fields[:4] + [f"{k}={v}" for k, v in kv.items()])
            differential(Trace(body=doctored))
            forged_count += 1
        assert forged_count > 100


# --- layout and comparison reads vs. the field-by-field reference -------------


class _FieldReadingAuditor(_Auditor):
    """Reference auditor: every record is read field by field, with
    ``read_fields``, as the auditor did before it matched records against
    the writer's layouts (and, for ``blk`` records, compared them with its
    own derived pots).  The handlers are that auditor's.  Used only to check
    that both reads report exactly the same."""

    def on_scenario(self, line: str, line_no: int) -> None:
        fields = line.split("\t")
        table = SCENARIO_ECHOES.get(fields[1]) if len(fields) > 1 else _SHAPE
        if table is not None:
            echo = read_fields(fields, 2, line_no, table, "scn")
            for key in table:  # each names one of the auditor's settings
                setattr(self, key, echo[key])

    def on_event(self, line: str, line_no: int) -> None:
        fields = line.split("\t")
        ok = len(fields) > 5 and fields[5] == "ok"
        table = EVENT_FIELDS.get(fields[4], _SHAPE) if ok else _SHAPE
        rec = read_fields(fields, 6, line_no, table, "ev")
        stage = parse_amount(fields[1], line_no, 4)  # column after "ev\t"
        actor, action = fields[3], fields[4]
        if stage != self.stage:
            self.flag(stage, "stage-order",
                      f"event at stage {stage} inside block {self.stage}")
        if not ok:
            return
        if action == "bid":
            v, cap, m, fee = rec["v"], rec["cap"], rec["m"], rec["fee"]
            old = self.pos.get(actor)
            if old is not None:
                self.flag(stage, "address-reuse", actor)
                self._deactivate(old, "used")  # the new bid replaces it
            if cap <= 0 or cap % self.granularity:
                self.flag(stage, "misaligned-cap", f"{actor} cap={cap}")
            if m is not None and (m <= 0 or m % self.granularity or m >= cap):
                self.flag(stage, "bad-minimum", f"{actor} m={m} cap={cap}")
            if m is None and stage >= self.t and cap <= self.V:
                self.flag(stage, "accepted-low-cap",
                          f"{actor} cap={cap} valuation={self.V}")
            pos = self.pos[actor] = _Position(v, cap, fee, m, "dormant")
            self.deposits += v + fee
            self.escrow += fee
            if m is None:
                self._activate(pos)
                self.V += v
            else:
                self.dormant += v
        elif action == "withdraw":
            pos = self.pos.get(actor)
            if pos is None:
                self.flag(stage, "unknown-actor", actor)
                return
            refund, fee_back, perm_v = rec["refund"], rec["fee_back"], rec["perm_v"]
            if stage >= self.t:
                self.flag(stage, "late-withdrawal", actor)
            if pos.status == "dormant":
                if refund != pos.v + pos.fee or fee_back != pos.fee:
                    self.flag(stage, "refund-mismatch",
                              f"{actor} refund={refund} expected {pos.v + pos.fee}")
                self.dormant -= pos.v
                self.escrow -= fee_back
                pos.status = "used"
            elif pos.status == "active":
                if refund + perm_v != pos.v:
                    self.flag(stage, "refund-mismatch",
                              f"{actor} refund+perm={refund + perm_v} face={pos.v}")
                self.V -= pos.v
                self.permanent += perm_v
                self._deactivate(pos, "permanent" if perm_v else "used")
                pos.perm_b = rec["perm_b"]
            else:
                self.flag(stage, "withdraw-status", f"{actor} is {pos.status}")
            self.refunds += refund
        elif action == "poke":
            x, target = rec["x"], rec["target"]
            known = [a for a in target if a in self.pos]
            if len(known) != len(target):
                self.flag(stage, "poke-verify", "unknown target address")
            elif len(set(target)) != len(target):
                self.flag(stage, "poke-verify", "target names an address twice")
            elif (not target
                  or sum(self.pos[a].v for a in target) < x
                  or any((self.pos[a].minimum or 0) > x for a in target)):
                self.flag(stage, "poke-verify",
                          f"target set does not certify x={x}")
            fee_sum = 0
            for a in rec["activated"]:
                pos = self.pos.get(a)
                if pos is None or pos.status != "dormant":
                    self.flag(stage, "poke-not-dormant", a)
                    continue
                if pos.minimum is not None and pos.minimum > x:
                    self.flag(stage, "poke-verify", f"{a} minimum above x={x}")
                self._activate(pos)
                self.dormant -= pos.v
                self.V += pos.v
                self.escrow -= pos.fee
                fee_sum += pos.fee
            self.fees_paid += fee_sum
            if fee_sum != rec["fee"]:
                self.flag(stage, "poke-fee", f"reported {rec['fee']} != {fee_sum}")

    def on_step3(self, line: str, line_no: int) -> None:
        fields = line.split("\t")
        kind = fields[3] if len(fields) > 3 else ""
        rec = read_fields(fields, 4, line_no, SWEEP_KINDS.get(kind, _SWEEP), "s3")
        stage = parse_amount(fields[1], line_no, 4)  # column after "s3\t"
        cap, live, out = rec["cap"], rec["live"], rec["out"]
        if stage != self.stage:
            self.flag(stage, "stage-order", f"sweep at stage {stage} in block {self.stage}")
        if stage < self.t:
            self.flag(stage, "early-sweep", "automatic withdrawal before the lock")
        if kind == "kick":
            credited, addrs = rec["credited"], rec["addrs"]
            if self.V - live < cap:
                self.flag(stage, "kick-condition",
                          f"V={self.V} live={live} cap={cap}")
            if out != live:
                self.flag(stage, "kick-out", f"out={out} live={live}")
            listed = [self.pos.get(a) for a in addrs]
            # distinct, each active at this cap, and as many as are active
            # there: exactly the tracked member set
            if (len(set(addrs)) != len(addrs)
                    or len(addrs) != self.active_at.get(cap, 0)
                    or any(p is None or p.status != "active" or p.cap != cap
                           for p in listed)):
                members = sorted(a for a, p in self.pos.items()
                                 if p.status == "active" and p.cap == cap)
                self.flag(stage, "kick-members",
                          f"cap={cap} listed {sorted(addrs)} tracked {members}")
            face = sum(p.v for p in listed if p is not None)
            if face != credited:
                self.flag(stage, "kick-credit", f"credited={credited} face={face}")
            for p in listed:
                if p is not None:
                    self._deactivate(p, "used")
            self.V -= out
            self.pending -= credited - out
            self.refunds += credited
        elif kind == "scale":
            q = rec["q"]
            if not (0 < q < 1):
                self.flag(stage, "scale-fraction", f"q={q}")
            if out != self.V - cap:
                self.flag(stage, "scale-exactness",
                          f"out={out} but V-cap={self.V - cap}")
            if not self.active_at.get(cap):
                self.flag(stage, "scale-members", f"no active bids at cap={cap}")
            self.V -= out
            self.pending += out
        else:
            self.flag(stage, "sweep-kind", kind)

    def on_block(self, line: str, line_no: int) -> None:
        fields = line.split("\t")
        rep = read_fields(fields, 2, line_no, BLOCK_FIELDS, "blk")
        stage = parse_amount(fields[1], line_no, 5)  # column after "blk\t"
        if stage != self.stage:
            self.flag(stage, "stage-order",
                      f"block {stage} closed where {self.stage} was expected")
        carry = rep["carry"]

        for name, mine in (("V", self.V), ("dormant", self.dormant),
                           ("permanent", self.permanent), ("pending", self.pending),
                           ("escrow", self.escrow), ("fees_paid", self.fees_paid),
                           ("refunds", self.refunds), ("deposits", self.deposits),
                           ("proceeds", self.proceeds)):
            if rep[name] != mine:
                self.flag(stage, f"ledger-mismatch:{name}",
                          f"reported {rep[name]}, derived {mine}")
        held = (rep["V"] + rep["dormant"] + rep["permanent"] + rep["pending"]
                + rep["escrow"] + rep["fees_paid"] + rep["refunds"]
                + rep["proceeds"])
        if held != rep["deposits"]:
            self.flag(stage, "conservation",
                      f"holdings {held} != deposits {rep['deposits']}")
        if rep["gas"] > self.block_limit:
            self.flag(stage, "gas-over-limit",
                      f"{rep['gas']} > {self.block_limit}")
        if rep["boundary"] < self.prev_boundary:
            self.flag(stage, "boundary-decrease",
                      f"{rep['boundary']} < {self.prev_boundary}")
        self.prev_boundary = rep["boundary"]

        if carry:
            self.report.lag_stages.append(stage)
            self.flag(stage, "pointer-lag",
                      "block closed with the sweep unfinished")
        if stage >= self.t:
            if not carry:
                lowest = self._lowest_active_cap()
                if lowest is not None and lowest < self.V:
                    self.flag(stage, "stale-pointer",
                              f"active cap {lowest} below valuation {self.V}")
                if self.last_settled_v is not None and rep["V"] < self.last_settled_v:
                    self.flag(stage, "valuation-decrease",
                              f"{rep['V']} < {self.last_settled_v}")
                self.last_settled_v = rep["V"]
        self.report.blocks += 1
        self.stage += 1

    def on_alloc(self, line: str, line_no: int) -> None:
        fields = line.split("\t")
        rec = read_fields(fields, 2, line_no, ALLOC_FIELDS, "alloc")
        actor = fields[1]
        tokens, retained, refund = rec["tokens"], rec["retained"], rec["refund_final"]
        status = rec["status"]
        pos = self.pos.get(actor)
        if pos is None:
            self.flag(None, "unknown-alloc", actor)
            return
        if pos.allocated:
            self.flag(None, "duplicate-alloc", actor)
        pos.allocated = True
        if ":" in status:
            pos.exit_reason = status.split(":", 1)[1]
        settled = status.partition(":")[0] if status in _ALLOC_STATUSES else None
        if settled == "active":
            if retained + refund != pos.v or not 0 <= retained <= pos.v:
                self.flag(None, "alloc-split",
                          f"{actor} retained={retained} refund={refund} face={pos.v}")
            self.proceeds += retained
            self.refunds += refund
            pos.retained = retained
        elif settled == "dormant":
            if refund != pos.v + pos.fee or tokens or retained:
                self.flag(None, "alloc-split", f"{actor} dormant refund={refund}")
            self.dormant -= pos.v
            self.escrow -= pos.fee
            self.refunds += refund
        elif settled == "permanent":
            if tokens != pos.perm_b or refund:
                self.flag(None, "alloc-permanent",
                          f"{actor} tokens={tokens} recorded {pos.perm_b}")
        elif settled == "used":
            if tokens or retained or refund:
                self.flag(None, "alloc-used", f"{actor} settled twice")
        else:
            self.flag(None, "alloc-status", f"{actor} status={status}")

    def on_final(self, line: str, line_no: int) -> None:
        fields = line.split("\t")
        rec = read_fields(fields, 1, line_no, FINAL_FIELDS, "fin")
        self.final_v = self.report.final_v = rec["V"]
        if self.final_line is None:  # for the shared ``finish``
            self.final_line = line_no
        stage, proceeds = rec["stage"], rec["proceeds"]
        if stage != self.u or self.stage != self.u + 1:
            self.flag(stage, "final-stage",
                      f"settled at stage {stage}, expected {self.u}")
        if self.last_settled_v is not None and self.final_v != self.last_settled_v:
            self.flag(stage, "final-mismatch",
                      f"final V {self.final_v} != last block {self.last_settled_v}")
        if proceeds != self.proceeds:
            self.flag(stage, "ledger-mismatch:proceeds",
                      f"reported {proceeds}, derived {self.proceeds}")


def same_as_field_reading(trace):
    outcome = referee_outcome(_Auditor, trace)
    assert outcome == referee_outcome(_FieldReadingAuditor, trace)
    return outcome


def forgeries(line):
    """Every forgery of one record line: each value off by one, zero, spelled
    ``079``, ``+79``, ``7_9`` or ``79_``, replaced by junk, by ``-`` or by nothing;
    two neighbouring fields swapped; a key in capitals; an extra or repeated
    key; a dropped field; the record cut short; a field or a trailing field
    that is junk."""
    fields = line.split("\t")
    out = []

    def with_field(j, text):
        out.append("\t".join(fields[:j] + [text] + fields[j + 1:]))

    for j in range(1, len(fields)):
        key, sep, value = fields[j].rpartition("=")
        prefix = key + sep
        if value.isdigit():
            for spelled in (int(value) + 1, int(value) - 1, 0, "0" + value, "+" + value,
                            value[0] + "_" + value[1:] if len(value) > 1 else "0_" + value,
                            value + "_"):
                with_field(j, f"{prefix}{spelled}")
        with_field(j, prefix + "x")
        with_field(j, prefix + "-")
        with_field(j, prefix)
        with_field(j, "x")
        with_field(j, prefix.upper() + value)
        out.append("\t".join(fields[:j] + fields[j + 1:]))
        out.append("\t".join(fields[:j]))
        out.append("\t".join(fields[:j] + ["extra=0"] + fields[j:]))
        out.append("\t".join(fields[:j + 1] + fields[j:]))
        if j + 1 < len(fields):
            out.append("\t".join(fields[:j] + [fields[j + 1], fields[j]] + fields[j + 2:]))
    out += [line + "\textra=0", line + "\tx"]
    return out


def outcome_kinds(body, i, lines):
    """Audit ``body`` with line ``i`` replaced by each of ``lines`` through
    both reads, which must agree; the kinds of outcome seen."""
    kinds = set()
    for line in lines:
        outcome = same_as_field_reading(Trace(body=body[:i] + [line] + body[i + 1:]))
        kinds.add("error" if outcome[0] == "error" else "flagged" if outcome[1] else "clean")
    return kinds


# (body, line) for every block record of the bundled traces
BLOCK_SITES = [(b, i) for b, body in enumerate(MUTATION_BODIES)
               for i, line in enumerate(body) if line.startswith("blk\t")]
# every other record the auditor reads: ``ev``, ``s3``, ``alloc``, ``fin``
# and the echoed ``sale`` and ``gas``
RECORD_PREFIXES = ("ev\t", "s3\t", "alloc\t", "fin\t", "scn\tsale\t", "scn\tgas\t")
RECORD_SITES = [(b, i) for b, body in enumerate(MUTATION_BODIES)
                for i, line in enumerate(body) if line.startswith(RECORD_PREFIXES)]


class TestBlockReadMatchesFieldByField:
    """A block record that matches the auditor's derived pots is checked by
    one comparison; the result must be exactly that of reading it field by
    field, whatever the record says."""

    def test_honest_corpus(self, corpus_runs):
        runs, _ = corpus_runs
        for run in runs:
            assert same_as_field_reading(run.trace)[0] == "report"

    def test_honest_blocks_take_the_comparison(self, corpus_runs, monkeypatch):
        # and every other honest record its layout: none is read field by field
        records = []

        def counting(fields, start, line_no, table, record):
            records.append(record)
            return read_fields(fields, start, line_no, table, record)

        monkeypatch.setattr("icosim.analysis.read_fields", counting)
        runs, _ = corpus_runs
        for body in MUTATION_BODIES + [run.trace.body for run in runs]:
            assert audit_trace(Trace(body=body)).clean
        assert records == []

    @pytest.mark.parametrize("site", BLOCK_SITES)
    def test_forged_bundled_blocks(self, site):
        b, i = site
        body = MUTATION_BODIES[b]
        lines = forgeries(body[i])
        assert len(lines) > 100
        assert outcome_kinds(body, i, lines) == {"error", "flagged", "clean"}

    def test_randomly_forged_corpus_blocks(self, corpus_runs):
        rng = random.Random(11)
        runs, _ = corpus_runs
        for run in runs:
            body = run.trace.body
            i = rng.choice([i for i, line in enumerate(body) if line.startswith("blk\t")])
            line = rng.choice(forgeries(body[i]))
            same_as_field_reading(Trace(body=body[:i] + [line] + body[i + 1:]))


@pytest.fixture(scope="module")
def workloads():
    with bench_module("workloads") as module:
        yield module


class TestRecordReadMatchesFieldByField:
    """A record in the writer's layout is read by one pattern match; the
    result must be exactly that of reading it field by field, whatever the
    record says."""

    @pytest.mark.parametrize("site", RECORD_SITES)
    def test_forged_bundled_records(self, site):
        b, i = site
        body = MUTATION_BODIES[b]
        assert outcome_kinds(body, i, forgeries(body[i])) == {"error", "flagged", "clean"}

    def test_randomly_forged_corpus_records(self, corpus_runs):
        rng = random.Random(13)
        runs, _ = corpus_runs
        kinds = set()
        for run in runs:
            body = run.trace.body
            i = rng.choice([i for i, line in enumerate(body)
                            if line.startswith(RECORD_PREFIXES)])
            kinds |= outcome_kinds(body, i, [rng.choice(forgeries(body[i]))])
        assert kinds == {"error", "flagged", "clean"}

    @pytest.mark.parametrize("name,size,kinds", [
        ("churn", 2_000, ("\twithdraw\tok\t", "\tpoke\tok\t", "\tkick\t")),
        ("sweep", 500, ("\tkick\t", "\tscale\t")),
    ])
    def test_generated_workloads(self, workloads, name, size, kinds):
        (text,) = getattr(workloads, name)(7, size).values()
        body = run_scenario(parse_scenario(text)).trace.body
        assert all(any(kind in line for line in body) for kind in kinds)
        outcome = same_as_field_reading(Trace(body=body))
        assert outcome[0] == "report" and outcome[1] == []  # clean


# --- the scenario echo: once, right after the header --------------------------


class _NoEchoOrderAuditor(_Auditor):
    """The auditor without its echo-order check: what it reported before."""

    def _echo_order(self, line: str, line_no: int, last_echo: int) -> None:
        pass


def echo_forgeries():
    """The bundled ``whale`` trace with its ``scn sale`` record repeated at
    line 4, with its ``scn gas`` record repeated, and with its first ``scn
    event`` record copied after its first ``ev`` record."""
    body = bundled_trace("whale").body
    sale = next(i for i, line in enumerate(body) if line.startswith("scn\tsale\t"))
    gas = next(i for i, line in enumerate(body) if line.startswith("scn\tgas\t"))
    event = next(line for line in body if line.startswith("scn\tevent\t"))
    first_ev = next(i for i, line in enumerate(body) if line.startswith("ev\t"))
    return {
        "repeated-sale": body[:sale + 1] + [body[sale]] + body[sale + 1:],
        "repeated-gas": body[:gas + 1] + [body[gas]] + body[gas + 1:],
        "late-event": body[:first_ev + 1] + [event] + body[first_ev + 1:],
    }


class TestEchoOrder:
    @pytest.mark.parametrize("name,detail,replay_code", [
        ("repeated-sale", "second scn sale record at line 4", 2),
        ("repeated-gas", "second scn gas record at line 6", 2),
        ("late-event", "scn record at line 11 does not follow the header or another "
                       "scn record", 1)])
    def test_forged_echoes_are_flagged(self, tmp_path, capsys, name, detail, replay_code):
        body = echo_forgeries()[name]
        assert same_as_field_reading(Trace(body=body))[0] == "report"
        report = audit_trace(Trace(body=body))
        assert [(v.stage, v.check, v.detail) for v in report.violations] == [
            (None, "echo-order", detail)]
        # what the referee now flags, replay refuses
        stored = tmp_path / "forged.trace.tsv"
        stored.write_text(Trace(body=body).render())
        assert cli_main(["replay", str(stored)]) == replay_code
        if replay_code == 2:
            assert "duplicate" in capsys.readouterr().err

    def test_echo_after_the_final_record(self):
        body = bundled_trace("whale").body
        gas = next(line for line in body if line.startswith("scn\tgas\t"))
        report = audit_trace(Trace(body=body + [gas]))
        assert [v.check for v in report.violations] == ["echo-order", "echo-order",
                                                        "after-final"]

    @pytest.mark.parametrize("size", [1, 2, 3, 5, 2048])
    def test_fed_in_pieces(self, size):
        """The audit is a fold: cut anywhere into ``feed`` calls, the header
        and the echo included, a body gets the report it gets whole."""
        whale = bundled_trace("whale").body
        bodies = [*MUTATION_BODIES, *echo_forgeries().values(),
                  whale[1:], whale[:1] + whale[2:], whale + whale[1:3]]
        for body in bodies:
            auditor = _Auditor()
            for start in range(0, len(body), size):
                auditor.feed(body[start:start + size])
            assert auditor.finish() == audit_trace(Trace(body=body))
        headless = audit_trace(Trace(body=whale[1:])).violations
        assert (None, "echo-order", "scn record at line 1 does not follow the header or "
                "another scn record") in [(v.stage, v.check, v.detail) for v in headless]

    def test_honest_reports_are_unchanged(self, corpus_runs):
        runs, _ = corpus_runs
        bodies = MUTATION_BODIES + [run.trace.body for run in runs[:50]]
        for body in bodies:
            trace = Trace(body=body)
            before = referee_outcome(_NoEchoOrderAuditor, trace)
            assert same_as_field_reading(trace) == before
            assert "echo-order" not in {v.check for v in before[1]}
