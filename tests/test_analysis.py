from __future__ import annotations

import random
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import example, given, settings, strategies as st

from icosim.agents import run_scenario
from icosim.analysis import (
    BLOCK_FIELDS, SWEEP_KINDS, AuditReport, SignalParams, _Auditor, _SWEEP,
    advantage_bound, audit_trace, breakeven_schedule, breakeven_threshold,
    directional_bound, manipulated_fraction, satisfaction_check, signaling_advantage,
    truthful_fraction,
)
from icosim.errors import ParseError
from icosim.scenario import parse as parse_scenario
from icosim.trace import Trace, parse_amount, read_fields

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

    def test_final_stage_and_value(self, whale_trace):
        assert "final-stage" in checks(edited(whale_trace, "fin", "stage=2",
                                              "stage=1"))
        assert "final-mismatch" in checks(edited(whale_trace, "fin", "V=79",
                                                 "V=78"))

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


class _ScanningAuditor(_Auditor):
    """Reference auditor: kick membership, scale membership and the stale
    pointer are re-derived by scanning every position, as the auditor did
    before it kept a per-cap index.  Used only to check that the index
    flags exactly what the scans flag."""

    def on_step3(self, fields: list[str], line_no: int) -> None:
        kind = fields[3] if len(fields) > 3 else ""
        rec = read_fields(fields, 4, line_no, SWEEP_KINDS.get(kind, _SWEEP), "s3")
        stage = parse_amount(fields[1], line_no, 2)
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

    def on_block(self, fields: list[str], line_no: int) -> None:
        rep = read_fields(fields, 2, line_no, BLOCK_FIELDS, "blk")
        stage = parse_amount(fields[1], line_no, 2)
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
    """Audit with the index and with the scans; both must flag the same."""
    indexed = audit_trace(trace)
    scanned = _ScanningAuditor(trace).run()
    assert indexed.violations == scanned.violations
    assert indexed.lag_stages == scanned.lag_stages
    return {v.check for v in indexed.violations}


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
