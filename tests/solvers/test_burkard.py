"""Tests for repro.solvers.burkard (the generalized Burkard heuristic)."""

import numpy as np
import pytest

from repro.core.assignment import Assignment
from repro.core.constraints import check_feasibility
from repro.core.objective import ObjectiveEvaluator
from repro.core.problem import PartitioningProblem
from repro.netlist.generate import ClusteredCircuitSpec, generate_clustered_circuit
from repro.obs.events import IterationEvent
from repro.obs.telemetry import Telemetry
from repro.solvers.burkard import (
    PAPER_PENALTY,
    bootstrap_initial_solution,
    resolve_penalty,
    solve_qbp,
)
from repro.solvers.exact import solve_exact
from repro.solvers.greedy import greedy_feasible_assignment
from repro.timing.constraints import synthesize_feasible_constraints
from repro.topology.grid import grid_topology


@pytest.fixture
def timed_problem():
    spec = ClusteredCircuitSpec("b", num_components=48, num_wires=200, num_clusters=6)
    circuit = generate_clustered_circuit(spec, seed=23)
    topo = grid_topology(2, 2, capacity=circuit.total_size() / 4 * 1.3)
    base = PartitioningProblem(circuit, topo)
    ref = greedy_feasible_assignment(base, seed=1)
    timing = synthesize_feasible_constraints(
        circuit, topo.delay_matrix, ref.part, count=70, min_budget=1.0, seed=4
    )
    return PartitioningProblem(circuit, topo, timing=timing)


class TestResolvePenalty:
    def test_paper(self, small_problem):
        assert resolve_penalty(small_problem, "paper") == PAPER_PENALTY

    def test_numeric_passthrough(self, small_problem):
        assert resolve_penalty(small_problem, 7.5) == 7.5

    def test_negative_rejected(self, small_problem):
        with pytest.raises(ValueError):
            resolve_penalty(small_problem, -1.0)

    def test_unknown_string(self, small_problem):
        with pytest.raises(ValueError, match="unknown"):
            resolve_penalty(small_problem, "huge")

    def test_theorem1_matches_dense_bound(self, paper_problem):
        from repro.core.qmatrix import build_q_dense

        q = build_q_dense(paper_problem)
        u = resolve_penalty(paper_problem, "theorem1")
        assert u > 2 * np.abs(q).sum()

    def test_auto_exceeds_max_pair_cost(self, small_problem):
        auto = resolve_penalty(small_problem, None)
        max_wire = max(w.weight for w in small_problem.circuit.wires())
        assert auto > max_wire * small_problem.cost_matrix.max()


class TestUnconstrainedSolve:
    def test_improves_over_random_start(self, medium_problem):
        start = greedy_feasible_assignment(medium_problem, seed=0)
        evaluator = ObjectiveEvaluator(medium_problem)
        result = solve_qbp(medium_problem, iterations=40, initial=start)
        assert result.best_feasible_cost <= evaluator.cost(start)
        assert result.best_feasible_assignment is not None

    def test_capacity_always_respected(self, medium_problem):
        result = solve_qbp(medium_problem, iterations=20, seed=1)
        report = check_feasibility(medium_problem, result.assignment)
        assert not report.capacity_violations

    def test_monotone_in_iterations(self, medium_problem):
        start = greedy_feasible_assignment(medium_problem, seed=0)
        short = solve_qbp(medium_problem, iterations=5, initial=start)
        long = solve_qbp(medium_problem, iterations=40, initial=start)
        assert long.best_feasible_cost <= short.best_feasible_cost + 1e-9

    def test_deterministic_given_seed(self, medium_problem):
        a = solve_qbp(medium_problem, iterations=10, seed=5)
        b = solve_qbp(medium_problem, iterations=10, seed=5)
        assert a.best_feasible_cost == b.best_feasible_cost

    def test_history_recorded(self, medium_problem):
        result = solve_qbp(medium_problem, iterations=12, seed=0)
        assert len(result.history) == 13  # initial + one per iteration

    def test_near_exact_on_small_instance(self, small_problem):
        exact = solve_exact(small_problem, node_limit=300_000)
        result = solve_qbp(small_problem, iterations=60, seed=2)
        if exact.proven_optimal:
            # True optimum known: the heuristic may match but not beat it.
            assert result.best_feasible_cost >= exact.cost - 1e-9
            assert result.best_feasible_cost <= 1.8 * max(exact.cost, 1.0)
        else:
            # Node limit hit: the branch-and-bound incumbent is only an
            # upper bound, which the heuristic is allowed to beat.
            assert result.best_feasible_cost <= max(exact.cost, 1.0) * 1.8

    def test_validates_args(self, small_problem):
        with pytest.raises(ValueError):
            solve_qbp(small_problem, iterations=0)
        with pytest.raises(ValueError):
            solve_qbp(small_problem, eta_mode="bogus")

    def test_rejects_capacity_infeasible_initial(self, paper_problem):
        bad = Assignment([0, 0, 0], 4)
        with pytest.raises(ValueError, match="u\\(1\\)"):
            solve_qbp(paper_problem, initial=bad)


class TestTimingSolve:
    def test_best_feasible_is_violation_free(self, timed_problem):
        result = solve_qbp(timed_problem, iterations=40, seed=3)
        if result.best_feasible_assignment is not None:
            report = check_feasibility(timed_problem, result.best_feasible_assignment)
            assert report.feasible

    def test_feasible_start_never_lost(self, timed_problem):
        start = bootstrap_initial_solution(timed_problem, seed=7)
        evaluator = ObjectiveEvaluator(timed_problem)
        result = solve_qbp(timed_problem, iterations=30, initial=start)
        assert result.best_feasible_assignment is not None
        assert result.best_feasible_cost <= evaluator.cost(start) + 1e-9

    def test_eta_modes_all_run(self, timed_problem):
        for mode in ("burkard", "diagonal", "symmetric"):
            result = solve_qbp(timed_problem, iterations=5, seed=0, eta_mode=mode)
            assert result.eta_mode == mode

    def test_iteration_events_carry_penalized_costs(self, timed_problem):
        tel = Telemetry.enabled_default()
        result = solve_qbp(timed_problem, iterations=4, seed=0, telemetry=tel)
        events = [e for e in tel.events() if isinstance(e, IterationEvent)]
        assert [e.iteration for e in events] == [1, 2, 3, 4]
        assert [e.cost for e in events] == result.history[1:]


class TestBootstrap:
    def test_produces_fully_feasible(self, timed_problem):
        start = bootstrap_initial_solution(timed_problem, seed=11)
        assert check_feasibility(timed_problem, start).feasible

    def test_no_timing_shortcut(self, medium_problem):
        start = bootstrap_initial_solution(medium_problem, seed=0)
        assert check_feasibility(medium_problem, start).feasible

    def test_deterministic(self, timed_problem):
        a = bootstrap_initial_solution(timed_problem, seed=11)
        b = bootstrap_initial_solution(timed_problem, seed=11)
        assert a == b
