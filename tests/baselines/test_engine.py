"""DeltaCache incremental state, as the GFM/GKL baselines drive it."""

import numpy as np
import pytest

from repro.core.assignment import Assignment
from repro.core.objective import ObjectiveEvaluator
from repro.core.problem import PartitioningProblem
from repro.engine.delta import DeltaCache
from repro.netlist.generate import ClusteredCircuitSpec, generate_clustered_circuit
from repro.solvers.greedy import greedy_feasible_assignment
from repro.timing.constraints import synthesize_feasible_constraints
from repro.topology.grid import grid_topology


@pytest.fixture
def timed_problem():
    spec = ClusteredCircuitSpec("e", num_components=30, num_wires=120, num_clusters=4)
    circuit = generate_clustered_circuit(spec, seed=17)
    topo = grid_topology(2, 2, capacity=circuit.total_size() / 4 * 1.4)
    base = PartitioningProblem(circuit, topo)
    ref = greedy_feasible_assignment(base, seed=4)
    timing = synthesize_feasible_constraints(
        circuit, topo.delay_matrix, ref.part, count=40, min_budget=1.0, seed=6
    )
    problem = PartitioningProblem(circuit, topo, timing=timing)
    return problem, ref


class TestInitialState:
    def test_delta_matches_evaluator(self, timed_problem):
        problem, start = timed_problem
        engine = DeltaCache(problem, start)
        evaluator = ObjectiveEvaluator(problem)
        for j in range(problem.num_components):
            for i in range(problem.num_partitions):
                assert engine.delta[j, i] == pytest.approx(
                    evaluator.move_delta(start, j, i)
                )

    def test_timing_block_counts(self, timed_problem):
        problem, start = timed_problem
        engine = DeltaCache(problem, start)
        # Row-by-row must agree with the exact TimingIndex answer.
        for j in range(problem.num_components):
            for i in range(problem.num_partitions):
                part = start.part.copy()
                allowed = engine.timing_index.move_is_feasible(part, j, i)
                assert (engine.timing_block[j, i] == 0) == allowed

    def test_audit_passes(self, timed_problem):
        problem, start = timed_problem
        DeltaCache(problem, start).audit()


class TestIncrementalUpdates:
    def test_moves_keep_state_consistent(self, timed_problem):
        problem, start = timed_problem
        engine = DeltaCache(problem, start)
        rng = np.random.default_rng(0)
        for _ in range(60):
            j = int(rng.integers(0, problem.num_components))
            i = int(rng.integers(0, problem.num_partitions))
            engine.apply_move(j, i)
        engine.audit()

    def test_swaps_keep_state_consistent(self, timed_problem):
        problem, start = timed_problem
        engine = DeltaCache(problem, start)
        rng = np.random.default_rng(1)
        for _ in range(30):
            j1, j2 = rng.choice(problem.num_components, size=2, replace=False)
            engine.apply_swap(int(j1), int(j2))
        engine.audit()

    def test_move_returns_exact_delta(self, timed_problem):
        problem, start = timed_problem
        engine = DeltaCache(problem, start)
        evaluator = ObjectiveEvaluator(problem)
        before = engine.current_cost()
        delta = engine.apply_move(3, (start[3] + 1) % 4)
        assert engine.current_cost() == pytest.approx(before + delta)

    def test_swap_returns_exact_delta(self, timed_problem):
        problem, start = timed_problem
        engine = DeltaCache(problem, start)
        before = engine.current_cost()
        delta = engine.apply_swap(0, 7)
        assert engine.current_cost() == pytest.approx(before + delta)


class TestQueries:
    def test_best_move_is_feasible_and_minimal(self, timed_problem):
        problem, start = timed_problem
        engine = DeltaCache(problem, start)
        move = engine.best_move()
        assert move is not None
        j, i, delta = move
        mask = engine.feasible_move_mask()
        assert mask[j, i]
        scores = np.where(mask, engine.delta, np.inf)
        assert delta == pytest.approx(scores.min())

    def test_locked_components_excluded(self, timed_problem):
        problem, start = timed_problem
        engine = DeltaCache(problem, start)
        locked = np.ones(problem.num_components, dtype=bool)
        assert engine.best_move(locked) is None

    def test_swap_delta_matrix_exact(self, timed_problem):
        problem, start = timed_problem
        engine = DeltaCache(problem, start)
        evaluator = ObjectiveEvaluator(problem)
        swap = engine.swap_delta_matrix()
        rng = np.random.default_rng(2)
        for _ in range(40):
            j1, j2 = rng.choice(problem.num_components, size=2, replace=False)
            assert swap[j1, j2] == pytest.approx(
                evaluator.swap_delta(start, int(j1), int(j2))
            )

    def test_swap_capacity_mask(self, timed_problem):
        problem, start = timed_problem
        engine = DeltaCache(problem, start)
        mask = engine.swap_capacity_mask()
        sizes = problem.sizes()
        caps = problem.capacities()
        rng = np.random.default_rng(3)
        for _ in range(40):
            j1, j2 = rng.choice(problem.num_components, size=2, replace=False)
            j1, j2 = int(j1), int(j2)
            i1, i2 = start[j1], start[j2]
            loads = engine.loads
            ok = True
            if i1 != i2:
                ok = (
                    loads[i1] - sizes[j1] + sizes[j2] <= caps[i1] + 1e-9
                    and loads[i2] - sizes[j2] + sizes[j1] <= caps[i2] + 1e-9
                )
            assert bool(mask[j1, j2]) == ok

    def test_exact_swap_feasible_consistent(self, timed_problem):
        problem, start = timed_problem
        engine = DeltaCache(problem, start)
        approx = engine.swap_capacity_mask() & engine.swap_timing_mask()
        rng = np.random.default_rng(4)
        mismatches = 0
        for _ in range(60):
            j1, j2 = rng.choice(problem.num_components, size=2, replace=False)
            j1, j2 = int(j1), int(j2)
            exact = engine.exact_swap_feasible(j1, j2)
            if bool(approx[j1, j2]) != exact:
                mismatches += 1
        # The vectorised mask is approximate only for mutually
        # constrained pairs - rare.
        assert mismatches <= 6
