"""End-to-end telemetry tests: solvers, baselines, supervisor, harness.

These pin the *deterministic* parts of the event stream: ordering,
counts, and the agreement between events and the metrics registry.
"""

import pytest

from repro.baselines.gfm import gfm_partition
from repro.eval.harness import SolverTimings, build_workload, run_circuit_experiment
from repro.obs.telemetry import DISABLED, Telemetry, current
from repro.runtime.checkpoint import QbpCheckpointer
from repro.runtime.faults import FaultPlan, inject_faults
from repro.solvers.burkard import (
    bootstrap_initial_solution,
    solve_qbp,
    solve_qbp_multistart,
)
from repro.solvers.gap import GapInfeasibleError
from repro.solvers.greedy import greedy_feasible_assignment


@pytest.fixture
def tel():
    return Telemetry.enabled_default()


class TestSolveQbpEvents:
    def test_iteration_events_are_sequential(self, small_problem, tel):
        result = solve_qbp(small_problem, iterations=6, seed=0, telemetry=tel)
        iterations = tel.events() and [
            e for e in tel.events() if e.kind == "iteration"
        ]
        assert [e.iteration for e in iterations] == list(
            range(1, len(iterations) + 1)
        )
        assert all(e.solver == "qbp" for e in iterations)
        # Every event carries the running best; the final best matches.
        assert iterations[-1].best_cost == pytest.approx(result.penalized_cost)

    def test_iteration_counter_matches_events(self, small_problem, tel):
        solve_qbp(small_problem, iterations=6, seed=0, telemetry=tel)
        iterations = [e for e in tel.events() if e.kind == "iteration"]
        snap = tel.metrics_snapshot()
        assert snap["counters"]["solver.iterations"] == float(len(iterations))

    def test_solve_span_records_stop_reason(self, small_problem, tel):
        solve_qbp(small_problem, iterations=4, seed=0, telemetry=tel)
        spans = {s.name: s for s in tel.tracer.spans}
        assert "qbp.solve" in spans
        assert spans["qbp.solve"].attrs["stop_reason"] in {
            "completed", "stalled", "deadline", "cancelled",
        }

    def test_run_is_deterministic(self, small_problem):
        streams = []
        for _ in range(2):
            tel = Telemetry.enabled_default()
            solve_qbp(small_problem, iterations=6, seed=3, telemetry=tel)
            streams.append(
                [(e.kind, getattr(e, "iteration", None), getattr(e, "cost", None))
                 for e in tel.events()]
            )
        assert streams[0] == streams[1]


class TestMultistartEvents:
    def test_one_restart_event_per_start(self, small_problem, tel):
        restarts = 3
        solve_qbp_multistart(
            small_problem, restarts=restarts, iterations=4, seed=0, telemetry=tel
        )
        restart_events = [e for e in tel.events() if e.kind == "restart"]
        assert [e.index for e in restart_events] == list(range(restarts))
        assert all(e.restarts == restarts for e in restart_events)
        assert tel.metrics_snapshot()["counters"]["solver.restarts"] == float(restarts)

    def test_best_cost_is_monotone_across_restarts(self, small_problem, tel):
        solve_qbp_multistart(
            small_problem, restarts=4, iterations=4, seed=0, telemetry=tel
        )
        bests = [e.best_cost for e in tel.events() if e.kind == "restart"]
        assert bests == sorted(bests, reverse=True)


class TestBaselineEvents:
    def test_gfm_emits_one_event_per_pass(self, medium_problem, tel):
        start = greedy_feasible_assignment(medium_problem, seed=3)
        result = gfm_partition(medium_problem, start, telemetry=tel)
        passes = [e for e in tel.events() if e.kind == "iteration"]
        assert all(e.solver == "gfm" for e in passes)
        assert [e.iteration for e in passes] == list(range(1, len(passes) + 1))
        spans = {s.name: s for s in tel.tracer.spans}
        assert spans["gfm.solve"].attrs["passes"] == len(passes)
        assert tel.metrics_snapshot()["counters"]["solver.passes"] == float(
            len(passes)
        )
        assert result.assignment is not None


class TestSupervisorLadder:
    def test_degrading_gap_ladder_emits_fallbacks(self, small_problem, tel):
        # Untimed problems exercise only the gap.plain rung; killing it
        # forces the supervisor to exhaust the ladder gracefully.
        plan = FaultPlan().fail("gap.plain", error=GapInfeasibleError, times=1)
        with inject_faults(plan):
            solve_qbp(small_problem, iterations=6, seed=0, telemetry=tel)
        fallbacks = [e for e in tel.events() if e.kind == "fallback"]
        assert len(fallbacks) == 1
        (event,) = fallbacks
        assert event.ladder == "gap"
        assert event.rung == "gap.plain"
        assert event.status == "error"
        assert "GapInfeasibleError" in event.error
        snap = tel.metrics_snapshot()
        assert snap["counters"]["supervisor.fallbacks"] == 1.0

    def test_bootstrap_ladder_reports_attempts(self, paper_problem, tel):
        # Bootstrap only runs the zero-B ladder on timed problems.
        bootstrap_initial_solution(
            paper_problem, attempts=2, iterations=3, seed=0, telemetry=tel
        )
        spans = {s.name for s in tel.tracer.spans}
        assert "qbp.bootstrap" in spans
        assert "qbp.solve" in spans


class TestCheckpointEvents:
    def test_checkpointer_emits_events_and_counters(self, small_problem, tmp_path, tel):
        path = tmp_path / "ckpt.json"
        checkpointer = QbpCheckpointer(path, every=1, telemetry=tel)
        solve_qbp(
            small_problem, iterations=4, seed=0,
            checkpointer=checkpointer, telemetry=tel,
        )
        checkpoints = [e for e in tel.events() if e.kind == "checkpoint"]
        assert checkpoints, "expected at least one checkpoint event"
        assert all(e.path == str(path) for e in checkpoints)
        assert all(e.bytes > 0 for e in checkpoints)
        snap = tel.metrics_snapshot()
        assert snap["counters"]["checkpoint.saves"] == float(len(checkpoints))
        assert snap["counters"]["checkpoint.bytes"] == float(
            sum(e.bytes for e in checkpoints)
        )


class TestDisabledOverhead:
    def test_disabled_path_adds_nothing(self, small_problem):
        # Ambient default is DISABLED; a fresh enabled bundle that is never
        # passed in must stay empty - proving the solver only talks to the
        # telemetry it is given.
        assert current() is DISABLED
        bystander = Telemetry.enabled_default()
        solve_qbp(small_problem, iterations=5, seed=0)
        assert bystander.events() == []
        assert bystander.tracer.spans == []
        assert len(bystander.metrics) == 0

    def test_disabled_solver_results_match_enabled(self, small_problem):
        plain = solve_qbp(small_problem, iterations=6, seed=1)
        tel = Telemetry.enabled_default()
        traced = solve_qbp(small_problem, iterations=6, seed=1, telemetry=tel)
        assert plain.penalized_cost == pytest.approx(traced.penalized_cost)
        assert plain.assignment.part.tolist() == traced.assignment.part.tolist()


class TestHarnessRows:
    def test_row_carries_timings_and_metrics(self, tel):
        workload = build_workload("cktb", scale=0.15)
        row = run_circuit_experiment(
            workload, with_timing=False, qbp_iterations=5, seed=0, telemetry=tel,
        )
        assert row.timings is not None
        timings = SolverTimings.from_dict(row.timings)
        assert timings.total >= 0.0
        assert row.metrics is not None
        assert row.metrics["counters"].get("solver.iterations", 0.0) > 0.0
        span_names = {s.name for s in tel.tracer.spans}
        assert {"harness.qbp", "harness.gfm", "harness.gkl"} <= span_names

class TestKernelInstrumentation:
    def test_iteration_timing_histograms_recorded(self, small_problem, tel):
        solve_qbp(small_problem, iterations=4, seed=0, telemetry=tel)
        histograms = tel.metrics_snapshot()["histograms"]
        assert histograms["qbp.iter.eta_seconds"]["count"] >= 4
        assert histograms["qbp.iter.gap_seconds"]["count"] >= 4
        assert histograms["qbp.iter.eta_seconds"]["sum"] >= 0.0

    def test_qbp_publishes_delta_counters(self, small_problem, tel):
        solve_qbp(small_problem, iterations=4, seed=0, telemetry=tel)
        counters = tel.metrics_snapshot()["counters"]
        # QBP's kernel runs stateless (no delta table), so only the eta
        # evaluations count here; rebuilds belong to the interchange path.
        assert counters.get("delta.eta_evals", 0) >= 4

    def test_gfm_publishes_delta_counters(self, small_problem, tel):
        start = bootstrap_initial_solution(small_problem, seed=0)
        gfm_partition(small_problem, start, telemetry=tel)
        counters = tel.metrics_snapshot()["counters"]
        assert counters.get("delta.full_rebuilds", 0) >= 1

    def test_disabled_telemetry_records_nothing(self, small_problem):
        result = solve_qbp(small_problem, iterations=4, seed=0, telemetry=DISABLED)
        assert result is not None  # no histograms/counters to assert: DISABLED
