from __future__ import annotations

import random
from fractions import Fraction

import pytest

from icosim.agents import (
    STRATEGIES, BidSpec, Planned, Reactive, TableStep, ValuationTable,
    bids_from_table, blackout, build_strategy, passive, run_scenario,
    signaling_experiment, sniper, table, table_from_bids,
)
from icosim.analysis import audit_trace
from icosim.errors import NonMonotoneTable
from icosim.scenario import STRATEGY_KINDS, StrategyDecl, parse as parse_scenario


class TestValuationTable:
    def test_demand_steps_down(self):
        table = ValuationTable((TableStep(50, 30), TableStep(100, 10)))
        assert table.evaluate(0) == 30
        assert table.evaluate(49) == 30
        assert table.evaluate(50) == 10
        assert table.evaluate(99) == 10
        assert table.evaluate(100) == 0

    @pytest.mark.parametrize("steps", [
        (TableStep(50, 30), TableStep(50, 10)),     # caps must rise
        (TableStep(100, 30), TableStep(50, 10)),
        (TableStep(50, 10), TableStep(100, 10)),    # amounts must fall
        (TableStep(50, 10), TableStep(100, 30)),
        (TableStep(50, 0),),
        (TableStep(0, 10),),
    ])
    def test_malformed_tables(self, steps):
        with pytest.raises(NonMonotoneTable):
            ValuationTable(tuple(steps))

    def test_decomposition_round_trip(self):
        table = ValuationTable((TableStep(50, 30), TableStep(100, 10),
                                TableStep(200, 4)))
        specs = bids_from_table(table)
        assert specs == [BidSpec(20, 50), BidSpec(6, 100), BidSpec(4, 200)]
        assert table_from_bids(specs) == table

    def test_round_trip_random_tables(self):
        rng = random.Random(55)
        for _ in range(200):
            caps = sorted(rng.sample(range(1, 500), rng.randint(1, 8)))
            amounts = sorted(rng.sample(range(1, 500), len(caps)), reverse=True)
            table = ValuationTable(tuple(
                TableStep(c, a) for c, a in zip(caps, amounts)))
            assert table_from_bids(bids_from_table(table)) == table

    def test_bid_sizes_match_demand_drops(self):
        # the bid dying at cap k carries exactly the demand lost there
        table = ValuationTable((TableStep(50, 30), TableStep(100, 10)))
        specs = bids_from_table(table)
        alive_above_50 = sum(s.v for s in specs if s.cap > 50)
        assert alive_above_50 == table.evaluate(50)


class TestStrategies:
    def test_passive_fires_once(self):
        s = passive("a", entry=2, v=10, cap=50)
        assert s.actions(0, 0) == []
        acts = s.actions(2, 0)
        assert len(acts) == 1 and acts[0].kind == "bid"
        assert acts[0].params["v"] == 10

    def test_reactive_waits_for_the_dip(self):
        s = Reactive("r", 10, 100, threshold=50, delay=2)
        assert s.actions(1, 0) == []          # observation latency
        assert s.actions(2, 80) == []         # book too crowded
        acts = s.actions(3, 50)
        assert len(acts) == 1
        assert s.actions(4, 0) == []          # one shot only

    def test_blind_manipulator_schedule(self):
        s = blackout("m", stake=30, stake_cap=500, blind=100, blind_cap=500,
                     withdraw=3)
        opening = s.actions(0, 0)
        assert [(a.actor, a.kind) for a in opening] == [
            ("m.s", "bid"), ("m.e", "bid")]
        assert s.actions(1, 130) == []
        pull = s.actions(3, 130)
        assert [(a.actor, a.kind) for a in pull] == [("m.e", "withdraw")]

    def test_sniper_schedule(self):
        s = sniper("s", entry=0, withdraw=2, v=10, cap=100)
        assert s.actions(0, 0)[0].kind == "bid"
        assert s.actions(2, 10)[0].kind == "withdraw"

    def test_bids_win_a_stage_shared_with_the_withdraw(self):
        s = build_strategy(StrategyDecl("s", "sniper", {
            "entry": 2, "withdraw": 2, "v": 10, "cap": 100}))
        assert s.actions(0, 0) == []
        assert [(a.actor, a.kind) for a in s.actions(2, 0)] == [("s", "bid")]
        m = build_strategy(StrategyDecl("m", "blackout", {
            "stake": 30, "stake_cap": 500, "blind": 100, "blind_cap": 500,
            "withdraw": 0}))
        assert [(a.actor, a.kind) for a in m.actions(0, 0)] == [
            ("m.s", "bid"), ("m.e", "bid")]
        assert all(m.actions(k, 130) == [] for k in range(1, 4))

    def test_table_bidder_uses_sub_addresses(self):
        steps = ValuationTable((TableStep(50, 30), TableStep(100, 10)))
        s = table("t", entry=1, steps=steps)
        acts = s.actions(1, 0)
        assert [a.actor for a in acts] == ["t.0", "t.1"]
        assert [a.params["v"] for a in acts] == [20, 10]

    def test_build_strategy_covers_every_kind(self):
        decls = [
            StrategyDecl("a", "passive", {"entry": 0, "v": 1, "cap": 10,
                                          "m": None, "fee": 0}),
            StrategyDecl("b", "table", {"entry": 0, "steps": ValuationTable(
                (TableStep(50, 30), TableStep(100, 10)))}),
            StrategyDecl("c", "reactive", {"v": 1, "cap": 10,
                                           "threshold": 5, "delay": 1}),
            StrategyDecl("d", "blackout", {"stake": 1, "stake_cap": 10,
                                           "blind": 2, "blind_cap": 10,
                                           "withdraw": 1}),
            StrategyDecl("e", "whale", {"entry": 1, "v": 9, "cap": 10}),
            StrategyDecl("f", "sniper", {"entry": 0, "withdraw": 1,
                                         "v": 1, "cap": 10}),
        ]
        assert [d.kind for d in decls] == list(STRATEGY_KINDS) == list(STRATEGIES)
        kinds = [type(build_strategy(d)) for d in decls]
        assert kinds == [Planned, Planned, Reactive, Planned, Planned, Planned]
        with pytest.raises(ValueError):
            build_strategy(StrategyDecl("g", "nope", {}))


def scenario_text(*rows):
    return "\n".join("\t".join(r) for r in rows) + "\n"


WHALE_TEXT = scenario_text(
    ("ico-scenario", "1"),
    ("sale", "t=1", "u=2", "granularity=1"),
    ("curve", "p0=1", "pt=1", "pu=1"),
    ("seed", "11"),
    ("event", "0", "a1", "bid", "v=30", "cap=79"),
    ("event", "0", "a2", "bid", "v=30", "cap=79"),
    ("event", "1", "whale", "bid", "v=50", "cap=200"),
)


class TestRunScenario:
    def test_trace_matches_engine_state(self):
        result = run_scenario(parse_scenario(WHALE_TEXT))
        sale, trace = result.sale, result.trace
        assert sale.final_V == 79
        blk = {int(r[1]): r for r in trace.records("blk")}
        assert blk[0][2] == "V=60" and blk[2][2] == "V=79"
        [s3] = trace.records("s3")
        assert s3[3] == "scale" and "q=31/60" in s3
        allocs = {r[1]: r for r in trace.records("alloc")}
        assert "tokens=14" in allocs["a1"] and "refund_final=16" in allocs["a1"]
        assert "status=active" in allocs["whale"]
        [fin] = trace.records("fin")
        assert fin[1:] == ["V=79", "stage=2", "proceeds=78"]

    def test_repeat_runs_are_byte_identical(self):
        spec = parse_scenario(WHALE_TEXT)
        first = run_scenario(spec).trace
        second = run_scenario(parse_scenario(WHALE_TEXT)).trace
        assert first.body == second.body
        assert first.digest == second.digest

    def test_rejections_recorded_not_raised(self):
        text = scenario_text(
            ("ico-scenario", "1"),
            ("sale", "t=1", "u=2", "granularity=10"),
            ("curve", "p0=1", "pt=1", "pu=1"),
            ("seed", "1"),
            ("event", "0", "a", "bid", "v=10", "cap=15"),
            ("event", "0", "b", "withdraw"),
            ("event", "1", "c", "poke", "x=5", "target=ghost"),
        )
        trace = run_scenario(parse_scenario(text)).trace
        outcomes = {r[3]: r[5] for r in trace.records("ev")}
        assert outcomes == {"a": "err:CapNotAligned", "b": "err:UnknownBid",
                            "c": "err:UnknownBid"}

    def test_poke_event_round_trip(self):
        text = scenario_text(
            ("ico-scenario", "1"),
            ("sale", "t=2", "u=3", "granularity=1"),
            ("curve", "p0=1", "pt=1", "pu=1"),
            ("seed", "1"),
            ("event", "0", "d0", "bid", "v=20", "cap=90", "m=30", "fee=2"),
            ("event", "0", "d1", "bid", "v=20", "cap=90", "m=30", "fee=1"),
            ("event", "1", "keeper", "poke", "x=30", "target=d0+d1"),
        )
        result = run_scenario(parse_scenario(text))
        [poke] = [r for r in result.trace.records("ev") if r[4] == "poke"]
        assert poke[5] == "ok" and "activated=d0+d1" in poke and "fee=3" in poke
        assert result.sale.ledger.fee_earnings == {"keeper": 3}

    def test_strategies_and_events_share_a_run(self):
        text = scenario_text(
            ("ico-scenario", "1"),
            ("sale", "t=1", "u=2", "granularity=1"),
            ("curve", "p0=1", "pt=1", "pu=1"),
            ("seed", "4"),
            ("strategy", "anna", "passive", "entry=0", "v=25", "cap=100"),
            ("event", "0", "manual", "bid", "v=10", "cap=100"),
        )
        sale = run_scenario(parse_scenario(text)).sale
        assert sale.bids.keys() == {"anna", "manual"}
        assert sale.bids["manual"].entry_stage == 0


class TestSignalingExperiment:
    def test_matched_stakes_pin(self):
        out = signaling_experiment(Fraction(1, 5), Fraction(1, 10), 300, 300)
        assert out.advantage == Fraction(1, 46)
        assert out.predicted_advantage == Fraction(1, 46)
        assert out.attack_tokens == (360, 330, 0)
        assert out.base_tokens == (360, 360)
        assert out.forfeited_bonus == 0 and out.net_gain == Fraction(1, 46)

    def test_penalty_makes_the_attack_unprofitable(self):
        out = signaling_experiment(Fraction(1, 5), Fraction(1, 10), 300, 300,
                                   penalty_free=False)
        assert out.advantage == Fraction(1, 46)
        # blind tranche: 2400 pulled at stage 3 of 4, so 1800 stays
        # committed and loses a third of its bonus, 1800/5/3
        assert out.forfeited_bonus == 120
        assert out.forfeit_rate == Fraction(1, 20)
        assert out.net_gain == Fraction(1, 46) - Fraction(1, 20)
        assert out.net_gain < 0
        assert out.elapsed == Fraction(3, 4)

    def test_asymmetric_stakes_still_exact(self):
        out = signaling_experiment(Fraction(3, 10), Fraction(1, 10), 400, 200)
        assert out.advantage == out.predicted_advantage == Fraction(4, 111)

    def test_both_worlds_audit_clean(self):
        out = signaling_experiment(Fraction(1, 5), Fraction(1, 10), 300, 300,
                                   penalty_free=False)
        assert audit_trace(out.attack_trace).clean
        assert audit_trace(out.base_trace).clean

    def test_needs_room_to_withdraw(self):
        with pytest.raises(ValueError):
            signaling_experiment(Fraction(1, 5), Fraction(1, 10), 10, 10, t=1,
                                 u=3)

    @pytest.mark.parametrize("name, kwargs", [
        ("x", {"x": 0}),
        ("y", {"y": 0}),
        ("blind", {"blind": 0}),
        ("x", {"x": -5}),
    ])
    def test_non_positive_amounts_name_the_argument(self, name, kwargs):
        args = {"x": 10, "y": 10, **kwargs}
        with pytest.raises(ValueError, match=f"^{name} must be"):
            signaling_experiment(Fraction(1, 5), Fraction(1, 10), **args)
