"""Tests for the documented solve_qbp variants and flags."""

import pytest

from repro.core.constraints import check_feasibility
from repro.core.objective import ObjectiveEvaluator
from repro.core.problem import PartitioningProblem
from repro.netlist.generate import ClusteredCircuitSpec, generate_clustered_circuit
from repro.solvers.burkard import bootstrap_initial_solution, solve_qbp
from repro.solvers.greedy import greedy_feasible_assignment
from repro.timing.constraints import synthesize_feasible_constraints
from repro.topology.grid import grid_topology


@pytest.fixture(scope="module")
def timed_problem():
    spec = ClusteredCircuitSpec("v", num_components=40, num_wires=170, num_clusters=5)
    circuit = generate_clustered_circuit(spec, seed=51)
    topo = grid_topology(2, 2, capacity=circuit.total_size() / 4 * 1.3)
    base = PartitioningProblem(circuit, topo)
    ref = greedy_feasible_assignment(base, seed=3)
    timing = synthesize_feasible_constraints(
        circuit, topo.delay_matrix, ref.part, count=60, min_budget=1.0, seed=12
    )
    return PartitioningProblem(circuit, topo, timing=timing)


@pytest.fixture(scope="module")
def start(timed_problem):
    return bootstrap_initial_solution(timed_problem, seed=4)


class TestVariantFlags:
    def test_repair_iterates_off_still_feasible_result(self, timed_problem, start):
        result = solve_qbp(
            timed_problem, iterations=15, initial=start, repair_iterates=False
        )
        # The start is feasible, so a feasible best always exists.
        assert result.best_feasible_assignment is not None
        assert check_feasibility(
            timed_problem, result.best_feasible_assignment
        ).feasible

    def test_repair_improves_or_matches(self, timed_problem, start):
        plain = solve_qbp(
            timed_problem, iterations=20, initial=start, repair_iterates=False
        )
        repaired = solve_qbp(
            timed_problem, iterations=20, initial=start, repair_iterates=True
        )
        assert repaired.best_feasible_cost <= plain.best_feasible_cost + 1e-9

    def test_paper_verbatim_configuration(self, timed_problem, start):
        """eta_mode='burkard' + no repair = the paper's pseudocode."""
        result = solve_qbp(
            timed_problem,
            iterations=10,
            initial=start,
            eta_mode="burkard",
            repair_iterates=False,
        )
        assert result.eta_mode == "burkard"
        assert len(result.history) == 11

    def test_paper_penalty_configuration(self, timed_problem, start):
        result = solve_qbp(
            timed_problem, iterations=10, initial=start, penalty="paper"
        )
        assert result.penalty == 50.0

    def test_theorem1_penalty_configuration(self, timed_problem, start):
        result = solve_qbp(
            timed_problem, iterations=5, initial=start, penalty="theorem1"
        )
        # U dominates everything else in the matrix.
        evaluator = ObjectiveEvaluator(timed_problem)
        assert result.penalty > 2 * evaluator.quadratic_cost(start)

    def test_gap_criteria_override(self, timed_problem, start):
        result = solve_qbp(
            timed_problem,
            iterations=5,
            initial=start,
            gap_criteria=("cost",),
        )
        assert result.best_feasible_assignment is not None


class TestMultistart:
    def test_never_worse_than_single(self, timed_problem, start):
        from repro.solvers import solve_qbp, solve_qbp_multistart

        single = solve_qbp(timed_problem, iterations=8, initial=start, seed=0)
        multi = solve_qbp_multistart(
            timed_problem, restarts=3, iterations=8, seed=0
        )
        # Both feasible results exist; multi picked its best of three.
        assert multi.best_feasible_assignment is not None

    def test_restart_validation(self, timed_problem):
        from repro.solvers import solve_qbp_multistart
        import pytest as _pytest

        with _pytest.raises(ValueError):
            solve_qbp_multistart(timed_problem, restarts=0)

    def test_deterministic(self, timed_problem):
        from repro.solvers import solve_qbp_multistart

        a = solve_qbp_multistart(timed_problem, restarts=2, iterations=5, seed=9)
        b = solve_qbp_multistart(timed_problem, restarts=2, iterations=5, seed=9)
        assert a.best_feasible_cost == b.best_feasible_cost
