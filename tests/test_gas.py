from __future__ import annotations

import pytest

from icosim.errors import GasExhausted, NegativeAmount, ReserveTooLarge, ZeroMoves
from icosim.gas import (
    GasMeter, GasOp, GasSchedule, min_granularity, poke_capacity,
    pointer_move_capacity,
)

DEFAULTS = GasSchedule()


def test_default_capacity_with_typical_reserve():
    # 6.7M limit, 40k loop base, 960k reserved for ordinary traffic:
    # floor(5.7M / 19) pointer moves
    assert pointer_move_capacity(DEFAULTS, 960_000) == 300_000


def test_default_capacity_unreserved():
    assert pointer_move_capacity(DEFAULTS, 0) == 350_526


def test_reserve_that_eats_the_block():
    with pytest.raises(ReserveTooLarge):
        pointer_move_capacity(DEFAULTS, DEFAULTS.block_limit - DEFAULTS.loop_base)
    # one unit of room is enough for zero moves, not an error
    assert pointer_move_capacity(
        DEFAULTS, DEFAULTS.block_limit - DEFAULTS.loop_base - 1) == 0


def test_poke_capacity():
    assert poke_capacity(DEFAULTS) == 1_340
    assert poke_capacity(GasSchedule(block_limit=10_000, store=5_000)) == 2


class TestMinGranularity:
    def test_small_grid(self):
        assert min_granularity(10, 3) == 4
        assert min_granularity(9, 3) == 4
        assert min_granularity(8, 3) == 3

    def test_bound_is_strict(self):
        # G must strictly exceed capital/moves: capital/G < moves for all
        # returned values, while G-1 admits a block the pointer cannot cover
        for capital in (1, 7, 100, 12345):
            for moves in (1, 2, 5, 60):
                g = min_granularity(capital, moves)
                assert capital / g < moves
                if g > 1:
                    assert capital / (g - 1) >= moves

    def test_zero_moves_undefined(self):
        with pytest.raises(ZeroMoves):
            min_granularity(100, 0)


class TestGasMeter:
    def test_charges_accumulate(self):
        meter = GasMeter(GasSchedule(block_limit=100, loop_base=40,
                                     pointer_move=19))
        meter.charge(GasOp.LOOP_INIT)
        assert meter.spent == 40
        left = meter.charge(GasOp.POINTER_MOVE, 3)
        assert meter.spent == 97 and left == 3

    def test_exhaustion_leaves_spent_intact(self):
        meter = GasMeter(GasSchedule(block_limit=100, loop_base=40,
                                     pointer_move=19))
        meter.charge(GasOp.LOOP_INIT)
        meter.charge(GasOp.POINTER_MOVE, 3)
        with pytest.raises(GasExhausted):
            meter.charge(GasOp.POINTER_MOVE)
        assert meter.spent == 97      # failed charge burns nothing
        assert meter.remaining == 3

    def test_reset(self):
        meter = GasMeter(GasSchedule(block_limit=100, bid_submit=60))
        meter.charge(GasOp.BID_SUBMIT)
        meter.reset()
        assert meter.spent == 0
        meter.charge(GasOp.BID_SUBMIT)

    def test_each_op_costs_its_schedule_field(self):
        schedule = GasSchedule(block_limit=1, loop_base=2, pointer_move=3,
                               store=4, bid_submit=5, advice_check=6)
        assert {op: schedule.cost_of(op) for op in GasOp} == {
            GasOp.LOOP_INIT: 2, GasOp.POINTER_MOVE: 3, GasOp.POKE_STORE: 4,
            GasOp.BID_SUBMIT: 5, GasOp.ADVICE_CHECK: 6}

    @pytest.mark.parametrize("field", ["block_limit", "loop_base",
                                       "pointer_move", "store",
                                       "bid_submit", "advice_check"])
    def test_schedule_refuses_negative_or_non_integer_costs(self, field):
        for bad in (-1, 2.5, True):
            with pytest.raises(NegativeAmount, match=field):
                GasSchedule(**{field: bad})
        assert getattr(GasSchedule(**{field: 0}), field) == 0

    def test_zero_multiplicity_is_free(self):
        meter = GasMeter(GasSchedule(block_limit=10, pointer_move=19))
        meter.charge(GasOp.POINTER_MOVE, 0)
        assert meter.spent == 0
