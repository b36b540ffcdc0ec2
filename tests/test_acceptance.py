"""End-to-end acceptance checks, one test per headline claim.

Each test prints a single pass line on success so a verbose run reads as
a checklist.  Expected values come from worked examples checked by hand
or from an independent route (closed forms, the naive oracle, brute
force); nothing here is read back from the engine under test.
"""

from __future__ import annotations

import itertools
import random
import time
from fractions import Fraction

import pytest

from icosim.agents import run_scenario, signaling_experiment
from icosim.analysis import (
    SWEEP_KINDS,
    SignalParams,
    advantage_bound,
    audit_trace,
    breakeven_schedule,
    breakeven_threshold,
    manipulated_fraction,
    satisfaction_check,
    signaling_advantage,
    truthful_fraction,
)
from icosim.engine import Sale, SaleConfig
from icosim.errors import IcoError, NegativeAmount
from icosim.gas import GasSchedule, min_granularity, poke_capacity, pointer_move_capacity
from icosim.ledger import BidStatus
from icosim.pricing import PriceCurve
from icosim.scenario import ScenarioSpec, parse_file
from icosim.trace import read_fields

from conftest import assert_matches_oracle, bid_event, block_records, by_stage, poke_event

SCENARIOS = ("scenarios/whale.tsv", "scenarios/blackout.tsv", "scenarios/poke.tsv")


def ok(num: int, text: str) -> None:
    print(f"criterion {num:02d}: PASS  {text}")


def flat_curve(u: int) -> PriceCurve:
    one = Fraction(1)
    return PriceCurve(one, one, one, 0, u)


def test_criterion_01_whale_pushout_scales_to_exact_boundary():
    started = time.perf_counter()
    result = run_scenario(parse_file(SCENARIOS[0]))
    sale = result.sale

    block_v = [b["V"] for b in block_records(result.trace)]
    assert block_v == [60, 79, 79]
    assert min(block_v) >= 60  # the whale never pushes V below the incumbents
    assert sale.final_V == 79

    batches = result.trace.records("s3")
    assert len(batches) == 1
    kind = batches[0][3]
    batch = read_fields(batches[0], 4, 0, SWEEP_KINDS[kind], "s3")
    assert (kind, batch["cap"], batch["live"]) == ("scale", 79, 60)
    assert batch["q"] == Fraction(31, 60)
    assert batch["out"] == 31  # bucket keeps exactly 1 - q of its capital

    assert {a: bid.retained for a, bid in sale.bids.items()} == {"a1": 14, "a2": 14, "whale": 50}
    assert {a: bid.refund_final for a, bid in sale.bids.items()} == {"a1": 16, "a2": 16, "whale": 0}
    assert sale.proceeds == 78
    assert audit_trace(result.trace).clean

    elapsed = time.perf_counter() - started
    assert elapsed < 1.0
    ok(1, f"V settles at 79, incumbents scaled by 29/60, {elapsed:.3f}s")


def test_criterion_02_valuation_monotone_across_corpus(corpus_runs, corpus_specs):
    runs, elapsed = corpus_runs
    assert len(runs) == 1000
    assert all(spec.config.u <= 50 for spec in corpus_specs)
    assert all(sum(row[1] == "bid" for rows in spec.events.values() for row in rows)
               <= 200 for spec in corpus_specs)

    clean = 0
    for run in runs:
        lock = run.spec.config.t
        settled = [b["V"] for b in block_records(run.trace)
                   if b["stage"] >= lock and not b["carry"]]
        assert all(lo <= hi for lo, hi in zip(settled, settled[1:])), run.spec.seed
        clean += 1
    assert clean == len(runs)
    assert elapsed < 60.0
    ok(2, f"post-lock V non-decreasing in {clean}/1000 runs, {elapsed:.1f}s")


def _settled_positions(sale: Sale):
    """(address, v, cap, retained) for bids the cap rule quantifies over:
    still active at settlement, or removed by an automatic withdrawal."""
    for address, bid in sale.bids.items():
        if bid.status is BidStatus.ACTIVE:
            yield address, bid.v, bid.cap, bid.retained
        elif bid.status is BidStatus.USED and bid.exit_reason == "kicked":
            yield address, bid.v, bid.cap, 0


def test_criterion_03_every_cap_satisfied_at_settlement(corpus_runs):
    runs, _ = corpus_runs
    checked = 0
    for run in runs:
        report = satisfaction_check(run.sale.final_V,
                                    _settled_positions(run.sale))
        assert report.ok, (run.spec.seed, report.failures[:3])
        checked += report.checked
    assert checked > 5000  # corpus actually exercises the rule
    ok(3, f"cap rule exact for {checked} positions across 1000 runs")


def test_criterion_04_engine_matches_naive_oracle(corpus_runs):
    runs, _ = corpus_runs
    for run in runs:
        assert_matches_oracle(run.spec, run.sale, run.trace)
    ok(4, "bucket engine == per-bid oracle on all 1000 runs, to the unit")


def _random_signal_params(rng: random.Random) -> SignalParams:
    da = rng.randint(2, 40)
    a = Fraction(rng.randint(1, da - 1), da)
    b = a * Fraction(rng.randint(0, 31), 32)
    if b == a:
        b = a / 2
    x = Fraction(rng.randint(1, 10**6), rng.choice((1, 1, 3, 7)))
    y = Fraction(rng.randint(1, 10**6), rng.choice((1, 1, 2, 5)))
    return SignalParams(a, b, x, y)


def test_criterion_05_blackout_advantage_algebra_and_simulation():
    rng = random.Random(505)
    for _ in range(10_000):
        p = _random_signal_params(rng)
        gain = signaling_advantage(p)
        assert gain == manipulated_fraction(p) - truthful_fraction(p)
        assert gain <= advantage_bound(p.a, p.b)

    for x in (1, 300, 12345):
        p = SignalParams(Fraction(1, 5), Fraction(1, 10), Fraction(x), Fraction(x))
        assert signaling_advantage(p) == Fraction(3, 138)

    # simulated worlds: exact once stakes clear the floors, otherwise
    # off by at most one token unit in each world's share
    out = signaling_experiment(Fraction(1, 5), Fraction(1, 10), 300, 300)
    assert out.advantage == out.predicted_advantage == Fraction(3, 138)
    for _ in range(12):
        num_a = rng.randint(1, 9)
        a = Fraction(num_a, rng.randint(num_a + 1, 12))
        b = a * Fraction(rng.randint(0, 4), 5)
        if b == a:
            b = a / 2
        out = signaling_experiment(a, b, rng.randint(3, 60), rng.randint(3, 60))
        slack = (Fraction(1, sum(out.attack_tokens[:2]))
                 + Fraction(1, sum(out.base_tokens)))
        assert abs(out.advantage - out.predicted_advantage) <= slack
    ok(5, "gain identity and (a-b)/3 bound over 10,000 draws; pinned 3/138")


def test_criterion_06_breakeven_recursion_matches_closed_form():
    pinned = breakeven_schedule(Fraction(1, 5), Fraction(1, 10), 3)
    assert pinned == [Fraction(1, 2), Fraction(1, 4), Fraction(1, 8)]

    rng = random.Random(606)
    for _ in range(50):
        da = rng.randint(2, 30)
        a = Fraction(rng.randint(1, da - 1), da)
        b = a * Fraction(rng.randint(0, 15), 16)
        if b == a:
            b = a / 2
        schedule = breakeven_schedule(a, b, 20)
        assert schedule == [breakeven_threshold(a, b, n) for n in range(1, 21)]
    ok(6, "20-deep recursion equals ((a-b)/a)^n; 1/2, 1/4, 1/8 pinned")


def test_criterion_07_gas_capacity_figures():
    defaults = GasSchedule()
    assert pointer_move_capacity(defaults, 960_000) == 300_000
    assert pointer_move_capacity(defaults) == 350_526
    assert poke_capacity(defaults) == 1_340
    assert poke_capacity(defaults) >= 1_300
    ok(7, "300,000 reserved moves; 350,526 free; 1,340 pokes per block")


def _bounded_inflow_spec(index: int) -> ScenarioSpec:
    """Random sale whose per-block submissions total at most `inflow`,
    on the grid min_granularity(inflow, moves), with gas for exactly
    `moves` pointer moves per block."""
    rng = random.Random(5_000_000 + index)
    moves = rng.choice((1, 2, 3, 5))
    inflow = rng.randint(4, 60)
    g = min_granularity(inflow, moves)
    gas = GasSchedule(block_limit=40_000 + 19 * moves, loop_base=40_000,
                      pointer_move=19, store=0,
                      bid_submit=0, advice_check=0)
    u = rng.randint(3, 12)
    config = SaleConfig(t=0, u=u, granularity=g, curve=flat_curve(u), gas=gas)
    events, n = [], 0
    for stage in range(u + 1):
        budget = inflow
        while budget > 0 and rng.random() < 0.8:
            v = rng.randint(1, budget)
            budget -= v
            cap = g * rng.randint(1, 30)
            events.append(bid_event(stage, f"s{n}", v, cap))
            n += 1
    return ScenarioSpec(config=config, seed=index, strategies=[], events=by_stage(events))


def _concentrated_poke_spec() -> ScenarioSpec:
    """Negative control on a grid one unit below the sufficient bound.

    Dormant capital drips in under the per-block limit for eleven blocks,
    then a single poke lands 100 at once across four dust caps spaced at
    the too-fine granularity 3.  Clearing needs four pointer moves in one
    block and the budget covers three."""
    gas = GasSchedule(block_limit=40_057, loop_base=40_000,
                      pointer_move=19, store=0,
                      bid_submit=0, advice_check=0)
    assert min_granularity(10, 3) == 4  # so granularity 3 undercuts the bound
    u = 13
    config = SaleConfig(t=0, u=u, granularity=3, curve=flat_curve(u), gas=gas)
    events, members = [], []
    for k, cap in enumerate((33, 36, 39, 42)):
        events.append(bid_event(0, f"dust{k}", 1, cap, m=30))
        members.append(f"dust{k}")
    for j, v in enumerate([10] * 9 + [6]):
        events.append(bid_event(1 + j, f"bulk{j}", v, 1002, m=30))
        members.append(f"bulk{j}")
    events.append(poke_event(11, "keeper", 100, members))
    return ScenarioSpec(config=config, seed=0, strategies=[], events=by_stage(events))


def test_criterion_08_granularity_bound_is_tight():
    # sufficiency: on the bound's grid the pointer never ends a block behind
    for i in range(40):
        result = run_scenario(_bounded_inflow_spec(i))
        report = audit_trace(result.trace)
        assert not any(b["carry"] for b in block_records(result.trace)), i
        assert report.lag_stages == [], i
        assert report.clean, (i, report.violations[:3])

    # necessity: one grid step finer, a poke concentrates eleven blocks of
    # inflow into one and the sweep runs out of moves
    result = run_scenario(_concentrated_poke_spec())
    report = audit_trace(result.trace)
    assert [b["stage"] for b in block_records(result.trace) if b["carry"]] == [11]
    assert report.lag_stages == [11]
    assert [v.check for v in report.violations] == ["pointer-lag"]
    assert result.sale.final_V == 96  # later blocks catch up and settle
    ok(8, "40/40 bounded-inflow runs never lag; G-1 control lags at block 11")


def test_criterion_09_poke_verifier_accept_set_by_brute_force():
    def fresh_sale() -> Sale:
        sale = Sale(SaleConfig(t=0, u=2, granularity=1, curve=flat_curve(2)))
        for name in ("d0", "d1", "d2"):
            sale.submit_bid(name, 10, 60, minimum=30,
                            advice=sale.compute_advice(60, 30))
        return sale

    names = ("d0", "d1", "d2")
    accepted = set()
    for x in range(1, 41):
        for size in (1, 2, 3):
            for subset in itertools.combinations(names, size):
                sale = fresh_sale()
                try:
                    sale.poke(x, list(subset), "keeper")
                except IcoError:
                    continue
                accepted.add((x, frozenset(subset)))
    assert accepted == {(30, frozenset(names))}

    for x in (0, -7):
        with pytest.raises(NegativeAmount):
            fresh_sale().poke(x, list(names), "keeper")
    ok(9, "accept set over 280 (x, subset) pairs is exactly {(30, all three)}")


def test_criterion_10_bundled_scenarios_replay_byte_identical(tmp_path, capsys):
    from icosim.cli import main

    for path in SCENARIOS:
        spec = parse_file(path)
        first = run_scenario(spec).trace
        second = run_scenario(spec).trace
        assert first.body == second.body
        assert first.digest == second.digest

    assert main(["run", SCENARIOS[0], "--out", str(tmp_path)]) == 0
    stored = tmp_path / "whale.trace.tsv"
    assert stored.exists()
    assert main(["replay", str(stored)]) == 0
    assert "replay verified" in capsys.readouterr().out
    ok(10, "three bundled scenarios byte-stable; CLI replay verifies")
