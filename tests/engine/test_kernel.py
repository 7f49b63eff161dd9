"""The move kernel against the per-row oracle after every move of a replay."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.assignment import Assignment
from repro.core.objective import ObjectiveEvaluator
from repro.core.problem import PartitioningProblem
from repro.engine.delta import DeltaCache
from repro.netlist.circuit import Circuit
from repro.timing.constraints import TimingConstraints
from repro.topology.grid import grid_topology

from tests.engine import oracle


def small_problem(with_timing=True, capacity=6.0):
    circuit = Circuit("kernel-test")
    for j in range(6):
        circuit.add_component(f"u{j}", size=1.0)
    for j1, j2, w in [(0, 1, 2.0), (1, 2, 1.0), (2, 3, 3.0), (3, 4, 1.0), (4, 5, 2.0), (0, 5, 1.0)]:
        circuit.add_wire(j1, j2, w)
    topo = grid_topology(1, 3, capacity=capacity)
    timing = None
    if with_timing:
        timing = TimingConstraints(6)
        timing.add(0, 3, 1.5)
        timing.add(2, 5, 1.0)
    return PartitioningProblem(circuit, topo, timing=timing)


def initial(problem):
    part = np.arange(problem.num_components) % problem.num_partitions
    return Assignment(part, problem.num_partitions)


# Loose capacity (every move fits), no timing, and a capacity of three
# unit blocks per slot, so the capacity mask decides some best moves.
PROBLEMS = pytest.mark.parametrize(
    "with_timing,capacity", [(True, 6.0), (False, 6.0), (True, 3.0)]
)


class TestAgainstOracle:
    @PROBLEMS
    def test_scan_is_all_move_deltas_of_tracked_assignment(self, with_timing, capacity):
        problem = small_problem(with_timing, capacity)
        cache = DeltaCache(problem, initial(problem))
        scan = cache.scan_move_deltas()
        assert np.array_equal(scan, cache.all_move_deltas())
        assert np.allclose(scan, oracle.move_delta_rows(cache), rtol=0.0, atol=oracle.TOL)

    @PROBLEMS
    def test_replay_matches_oracle_after_every_move(self, with_timing, capacity):
        problem = small_problem(with_timing, capacity)
        evaluator = ObjectiveEvaluator(problem)
        cache = DeltaCache(problem, initial(problem))
        oracle.assert_matches_oracle(cache)
        rng = np.random.default_rng(7)
        for step in range(16):
            before = evaluator.cost(cache.part)
            if step % 4 == 3:
                j1, j2 = rng.choice(problem.num_components, 2, replace=False)
                reported = cache.apply_swap(int(j1), int(j2))
            else:
                j = int(rng.integers(0, problem.num_components))
                i = int(rng.integers(0, problem.num_partitions))
                reported = cache.apply_move(j, i)
            assert abs(reported - (evaluator.cost(cache.part) - before)) <= oracle.TOL
            oracle.assert_matches_oracle(cache)
        cache.audit()

    @PROBLEMS
    def test_best_move_follows_oracle_through_a_pass(self, with_timing, capacity):
        problem = small_problem(with_timing, capacity)
        cache = DeltaCache(problem, initial(problem))
        locked = np.zeros(problem.num_components, dtype=bool)
        while True:
            oracle.assert_matches_oracle(cache, locked)
            move = cache.best_move(locked)
            if move is None:
                break
            j, i, _ = move
            cache.apply_move(j, i)
            locked[j] = True
        assert locked.any()
