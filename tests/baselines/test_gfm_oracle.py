"""The GFM pass against the reference pass, pass for pass.

:mod:`tests.baselines.gfm_oracle` rolls a pass back one move at a time.
The production pass rolls back with one batched call, so after every
pass both must report the same ``(improvement, kept)`` and leave the
same assignment, the same move-delta and timing-block floats and the
same loads, byte for byte (the loads are running sums, so a rollback
that applied its moves in another order would differ in the last bits).

The instances are :func:`tests.baselines.test_gkl_oracle.random_instance`:
non-integer sizes and weights, an ``alpha * P`` term, tight capacities
and mutual timing constraints.
"""

from __future__ import annotations

import itertools

import numpy as np
import pytest

from repro.baselines import gfm
from repro.engine.delta import DeltaCache
from repro.runtime.budget import Budget

from tests.baselines import gfm_oracle
from tests.baselines.test_gkl_oracle import random_instance

INSTANCES = pytest.mark.parametrize(
    "seed,timed,linear,tight",
    [
        (0, True, True, True),
        (1, True, False, True),
        (2, False, True, True),
        (3, True, True, False),
        (4, False, False, False),
        (5, True, True, True),
    ],
)


def assert_same_state(engine, reference):
    assert np.array_equal(engine.part, reference.part)
    for name in ("delta", "timing_block", "loads"):
        assert getattr(engine, name).tobytes() == getattr(reference, name).tobytes(), name


def budget_after(checks):
    """A budget that runs out at its ``checks``-th check."""
    ticks = itertools.count()
    return Budget(wall_seconds=checks, clock=lambda: next(ticks))


class TestPassAgainstReference:
    @INSTANCES
    @pytest.mark.parametrize("max_moves", [None, 7])
    def test_same_state_after_every_pass(self, seed, timed, linear, tight, max_moves):
        problem, start = random_instance(seed, timed=timed, linear=linear, tight=tight)
        engine = DeltaCache(problem, start)
        reference = DeltaCache(problem, start)
        rolled_back = 0
        for _ in range(8):
            moves = engine.stats.moves
            result = gfm._run_pass(engine, max_moves)
            expected = gfm_oracle._run_pass(reference, max_moves)
            assert result == expected
            assert_same_state(engine, reference)
            # Each rolled-back move is applied twice: forward, then back.
            rolled_back += (engine.stats.moves - moves - expected[1]) // 2
            if expected[0] <= 1e-9:
                break
        # The walks roll back batches, not single moves only.
        assert rolled_back >= 2
        engine.audit()

    @INSTANCES
    def test_budget_stop_rolls_back_the_same(self, seed, timed, linear, tight):
        problem, start = random_instance(seed, timed=timed, linear=linear, tight=tight)
        for checks in (1, 4, 9):
            engine = DeltaCache(problem, start)
            reference = DeltaCache(problem, start)
            result = gfm._run_pass(engine, None, budget_after(checks))
            expected = gfm_oracle._run_pass(reference, None, budget_after(checks))
            assert result == expected
            assert_same_state(engine, reference)
            # The budget ended the walk: one move per check that passed.
            assert engine.stats.moves == reference.stats.moves
            assert (engine.stats.moves + expected[1]) // 2 == checks - 1
