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


def linear_timed_problem():
    """Non-integer wires both ways, an ``alpha * P`` term and mutual timing.

    Component 5 has four in-wires and three out-wires, so the order in
    which its row terms are summed shows in the last bits.
    """
    rng = np.random.default_rng(5)
    n = 9
    circuit = Circuit("footprint-test")
    for j in range(n):
        circuit.add_component(f"u{j}", size=float(rng.uniform(0.5, 1.5)))
    wires = [(0, 1), (1, 0), (1, 2), (2, 5), (3, 4), (4, 3), (5, 6), (6, 7), (7, 8), (8, 0), (2, 7)]
    wires += [(3, 5), (4, 5), (8, 5), (5, 3), (5, 0)]
    for j1, j2 in wires:
        circuit.add_wire(j1, j2, float(rng.uniform(0.2, 3.0)))
    timing = TimingConstraints(n)
    timing.add(0, 4, 2.0, symmetric=True)
    timing.add(1, 6, 1.0)
    timing.add(7, 1, 1.5)
    topo = grid_topology(2, 2, capacity=20.0)
    linear = rng.uniform(0.0, 2.0, (topo.num_partitions, n))
    return PartitioningProblem(circuit, topo, timing=timing, linear_cost=linear, alpha=0.6)


def uncached_footprint(problem, j):
    """(delta rows, timing rows) one move of ``j`` refreshes, from the problem."""
    touched = {j}
    for wire in problem.circuit.wires():
        if j in (wire.source, wire.target):
            touched.update((wire.source, wire.target))
    pairs = [(j1, j2) for j1, j2, _ in problem.timing.items()]
    constrained = {k for pair in pairs for k in pair}
    partners = {j} | {k for pair in pairs if j in pair for k in pair}
    return touched, partners & constrained


def uncached_refreshes(problem, j):
    """How many delta rows and timing rows one move of ``j`` refreshes."""
    rows, timing_rows = uncached_footprint(problem, j)
    return len(rows), len(timing_rows)


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


class TestFootprintCache:
    def test_repeated_moves_across_reset_match_oracle(self):
        problem = linear_timed_problem()
        n, m = problem.num_components, problem.num_partitions
        cache = DeltaCache(problem, initial(problem))
        rng = np.random.default_rng(3)
        rows = timing_rows = 0
        for step in range(48):
            if step in (16, 32):
                cache.reset(Assignment(rng.integers(0, m, n), m))
                oracle.assert_matches_oracle(cache)
            # The same three components move again and again.
            j = (0, 1, 7)[step % 3] if step % 2 else int(rng.integers(0, n))
            i = int(rng.integers(0, m))
            if i != cache.part[j]:
                counts = uncached_refreshes(problem, j)
                rows += counts[0]
                timing_rows += counts[1]
            cache.apply_move(j, i)
            oracle.assert_matches_oracle(cache)
            # The refreshed rows are the full rebuild's floats, bit for bit.
            assert cache.delta.tobytes() == cache.all_move_deltas().tobytes()
            assert cache.stats.row_refreshes == rows
            assert cache.stats.timing_row_refreshes == timing_rows
        cache.audit()

    def test_swaps_refresh_like_two_moves(self):
        problem = linear_timed_problem()
        cache = DeltaCache(problem, initial(problem))
        rows = timing_rows = 0
        for j1, j2 in [(0, 1), (1, 6), (0, 1), (4, 7), (1, 6)]:
            if cache.part[j1] != cache.part[j2]:
                for j in (j1, j2):
                    counts = uncached_refreshes(problem, j)
                    rows += counts[0]
                    timing_rows += counts[1]
            cache.apply_swap(j1, j2)
            oracle.assert_matches_oracle(cache)
            assert cache.delta.tobytes() == cache.all_move_deltas().tobytes()
        assert cache.stats.row_refreshes == rows
        assert cache.stats.timing_row_refreshes == timing_rows

    def test_footprint_is_built_once_and_survives_reset(self):
        problem = linear_timed_problem()
        cache = DeltaCache(problem, initial(problem))
        footprint = cache.footprint(1)
        assert footprint.rows.tolist() == [0, 1, 2]
        assert footprint.timing_rows.tolist() == [1, 6, 7]
        cache.apply_move(1, (int(cache.part[1]) + 1) % problem.num_partitions)
        assert cache.footprint(1) is footprint
        cache.reset(initial(problem))
        assert cache.footprint(1) is footprint


class TestBatchedMoves:
    STATE = ("part", "delta", "timing_block", "loads", "_b_both")

    def test_batch_equals_moves_one_at_a_time(self):
        problem = linear_timed_problem()
        n, m = problem.num_components, problem.num_partitions
        batched = DeltaCache(problem, initial(problem))
        single = DeltaCache(problem, initial(problem))
        rng = np.random.default_rng(11)
        for step in range(24):
            if step == 12:
                start = Assignment(rng.integers(0, m, n), m)
                batched.reset(start)
                single.reset(start)
            # Components repeat within a batch (a few are drawn from three),
            # some moves stay put, and the last batch moves nothing at all.
            part = batched.part.copy()
            moves, rows, timing_rows = [], set(), set()
            for _ in range(int(rng.integers(1, 8)) if step < 23 else 3):
                j = int(rng.choice(3)) if rng.random() < 0.3 else int(rng.integers(0, n))
                stay = step == 23 or rng.random() < 0.25
                i = int(part[j]) if stay else int(rng.integers(0, m))
                moves.append((j, i))
                if i != part[j]:
                    touched, constrained = uncached_footprint(problem, j)
                    rows |= touched
                    timing_rows |= constrained
                part[j] = i
            before = (batched.stats.row_refreshes, batched.stats.timing_row_refreshes)
            batched.apply_moves(iter(moves))
            for j, i in moves:
                single.apply_move(j, i)
            for name in self.STATE:
                assert getattr(batched, name).tobytes() == getattr(single, name).tobytes(), name
            assert batched.stats.moves == single.stats.moves
            # Each row of the union is refreshed once.
            assert batched.stats.row_refreshes == before[0] + len(rows)
            assert batched.stats.timing_row_refreshes == before[1] + len(timing_rows)
        assert batched.stats.moves > 0
        batched.audit()
