"""Tests for repro.baselines.gkl (generalized Kernighan-Lin)."""

import pytest

from repro.baselines import gkl
from repro.baselines.gkl import gkl_partition
from repro.core.assignment import Assignment
from repro.core.constraints import check_feasibility
from repro.core.objective import ObjectiveEvaluator
from repro.core.problem import PartitioningProblem
from repro.engine.delta import DeltaCache
from repro.netlist.generate import ClusteredCircuitSpec, generate_clustered_circuit
from repro.solvers.greedy import greedy_feasible_assignment
from repro.timing.constraints import synthesize_feasible_constraints
from repro.topology.grid import grid_topology

from tests.baselines import gkl_oracle
from tests.baselines.test_gkl_oracle import random_instance


@pytest.fixture
def start(medium_problem):
    return greedy_feasible_assignment(medium_problem, seed=3)


class TestBasics:
    def test_never_worsens(self, medium_problem, start):
        result = gkl_partition(medium_problem, start)
        assert result.cost <= result.initial_cost + 1e-9

    def test_final_solution_feasible(self, medium_problem, start):
        result = gkl_partition(medium_problem, start)
        assert result.feasible
        assert check_feasibility(medium_problem, result.assignment).feasible

    def test_cost_consistent(self, medium_problem, start):
        result = gkl_partition(medium_problem, start)
        evaluator = ObjectiveEvaluator(medium_problem)
        assert evaluator.cost(result.assignment) == pytest.approx(result.cost)

    def test_outer_loop_cutoff_respected(self, medium_problem, start):
        result = gkl_partition(medium_problem, start, max_outer_loops=2)
        assert result.passes <= 2

    def test_paper_default_is_six(self, medium_problem, start):
        result = gkl_partition(medium_problem, start)
        assert result.passes <= 6

    def test_swap_preserves_partition_sizes(self, medium_problem, start):
        # Swaps preserve the multiset of component counts per partition.
        import numpy as np

        result = gkl_partition(medium_problem, start)
        before = np.bincount(start.part, minlength=16)
        after = np.bincount(result.assignment.part, minlength=16)
        assert sorted(before.tolist()) == sorted(after.tolist())

    def test_deterministic(self, medium_problem, start):
        a = gkl_partition(medium_problem, start)
        b = gkl_partition(medium_problem, start)
        assert a.assignment == b.assignment

    def test_rejects_infeasible_start(self, paper_problem):
        bad = Assignment([0, 0, 0], 4)
        with pytest.raises(ValueError, match="feasible initial"):
            gkl_partition(paper_problem, bad)

    def test_max_swaps_per_pass(self, medium_problem, start):
        result = gkl_partition(medium_problem, start, max_swaps_per_pass=3)
        assert result.feasible


class TestWithTiming:
    @pytest.fixture
    def timed(self):
        spec = ClusteredCircuitSpec("k", num_components=40, num_wires=160, num_clusters=5)
        circuit = generate_clustered_circuit(spec, seed=15)
        topo = grid_topology(2, 2, capacity=circuit.total_size() / 4 * 1.3)
        base = PartitioningProblem(circuit, topo)
        ref = greedy_feasible_assignment(base, seed=2)
        timing = synthesize_feasible_constraints(
            circuit, topo.delay_matrix, ref.part, count=60, min_budget=1.0, seed=8
        )
        problem = PartitioningProblem(circuit, topo, timing=timing)
        return problem, ref

    def test_timing_never_violated(self, timed):
        problem, start = timed
        result = gkl_partition(problem, start)
        evaluator = ObjectiveEvaluator(problem)
        assert evaluator.timing_violation_count(result.assignment) == 0

    def test_mutually_constrained_swaps_validated(self, timed):
        # Run longer passes; every applied swap passed the exact check,
        # so the invariant holds throughout (checked at the end).
        problem, start = timed
        result = gkl_partition(problem, start, max_outer_loops=4)
        assert result.feasible


class TestRollback:
    @pytest.mark.parametrize("seed", [0, 2, 5])
    def test_same_state_as_swapping_back(self, seed):
        # The batched rollback sends each pair home in the order swapping
        # back would: the loads are running sums, so another order would
        # change them in the last bits.
        problem, start = random_instance(seed, timed=seed != 2)
        engine = DeltaCache(problem, start)
        reference = DeltaCache(problem, start)
        for _ in range(6):
            expected = gkl_oracle._run_pass(reference, None)
            assert gkl._run_pass(engine, None) == expected
            for name in ("part", "delta", "timing_block", "loads"):
                assert getattr(engine, name).tobytes() == getattr(reference, name).tobytes()
            if expected[0] <= 1e-9:
                break
