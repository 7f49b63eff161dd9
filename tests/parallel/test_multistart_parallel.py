"""Multistart fan-out: bit-identical across worker counts, one failure contract."""

from __future__ import annotations

from types import SimpleNamespace

import numpy as np
import pytest

import repro.solvers.qbp.multistart as multistart
from repro.obs.telemetry import Telemetry, use_telemetry
from repro.parallel.pool import supports_process_pool
from repro.runtime.budget import Budget
from repro.runtime.faults import FaultPlan, inject_faults
from repro.solvers.burkard import MultistartError, solve_qbp_multistart

needs_fork = pytest.mark.skipif(
    not supports_process_pool(), reason="platform lacks fork"
)

# In-process and forked fan-out share one failure contract.  Faults are
# task-scoped and fire on every attempt, so they cross the fork and no
# retry policy from the environment can heal them.
WORKERS = [1, pytest.param(2, marks=needs_fork)]


def failing_restarts(*tasks):
    return FaultPlan().fail_task("worker.retry", tasks=list(tasks), attempts=None)


def result_key(result):
    return (
        result.cost,
        result.best_feasible_cost,
        result.penalized_cost,
        result.assignment.part.tolist(),
    )


@needs_fork
class TestSerialParallelEquivalence:
    def test_bit_identical_best(self, small_problem):
        serial = solve_qbp_multistart(
            small_problem, restarts=4, iterations=10, seed=9, workers=1
        )
        parallel = solve_qbp_multistart(
            small_problem, restarts=4, iterations=10, seed=9, workers=4
        )
        assert result_key(serial) == result_key(parallel)

    def test_worker_count_does_not_matter(self, small_problem):
        two = solve_qbp_multistart(
            small_problem, restarts=3, iterations=8, seed=5, workers=2
        )
        three = solve_qbp_multistart(
            small_problem, restarts=3, iterations=8, seed=5, workers=3
        )
        assert result_key(two) == result_key(three)

    def test_telemetry_streams_match(self, small_problem):
        def run(workers):
            tel = Telemetry.enabled_default()
            with use_telemetry(tel):
                solve_qbp_multistart(
                    small_problem, restarts=3, iterations=8, seed=2, workers=workers
                )
            return tel

        serial, parallel = run(1), run(3)
        s_snap, p_snap = serial.metrics_snapshot(), parallel.metrics_snapshot()
        assert (
            s_snap["counters"]["solver.iterations"]
            == p_snap["counters"]["solver.iterations"]
        )
        assert s_snap["counters"]["solver.restarts"] == 3.0
        assert p_snap["counters"]["solver.restarts"] == 3.0

        def restart_stream(tel):
            return [
                (e.index, e.best_cost, e.best_feasible_cost)
                for e in tel.events()
                if e.kind == "restart"
            ]

        assert restart_stream(serial) == restart_stream(parallel)

    def test_restart_events_ordered_by_index(self, small_problem):
        tel = Telemetry.enabled_default()
        with use_telemetry(tel):
            solve_qbp_multistart(
                small_problem, restarts=4, iterations=6, seed=0, workers=4
            )
        indexes = [e.index for e in tel.events() if e.kind == "restart"]
        assert indexes == [0, 1, 2, 3]


class TestRestartIndependence:
    def test_restart_k_independent_of_earlier_restarts(self, small_problem):
        # Seed streams: restart k is a function of (seed, k) only, so
        # running MORE restarts never changes the earlier ones' results.
        three = solve_qbp_multistart(
            small_problem, restarts=3, iterations=8, seed=6
        )
        five = solve_qbp_multistart(
            small_problem, restarts=5, iterations=8, seed=6
        )
        # The 5-restart best can only improve on the 3-restart best.
        assert (
            five.best_feasible_cost,
            five.penalized_cost,
        ) <= (three.best_feasible_cost, three.penalized_cost)


class TestFailurePropagation:
    @pytest.mark.parametrize("workers", WORKERS)
    def test_all_restarts_failing_raises_with_first_index(
        self, small_problem, workers
    ):
        with inject_faults(failing_restarts(0, 1, 2)):
            with pytest.raises(MultistartError, match="restart 0"):
                solve_qbp_multistart(
                    small_problem, restarts=3, iterations=5, seed=0, workers=workers
                )

    def test_first_exception_is_the_cause(self, small_problem):
        # The first failure travels in the message - its description and
        # traceback text - for every worker count, not as ``__cause__``.
        plan = FaultPlan().fail("qbp.iteration", times=None)
        with inject_faults(plan):
            with pytest.raises(MultistartError) as excinfo:
                solve_qbp_multistart(
                    small_problem, restarts=2, iterations=5, seed=0
                )
        message = str(excinfo.value)
        assert "first failure at restart 0: InjectedFault" in message
        assert "Traceback (most recent call last)" in message
        assert "injected fault at 'qbp.iteration'" in message.split("Traceback")[1]

    def test_partial_failures_are_tolerated(self, small_problem):
        # First restart dies, the rest still produce a best result.
        reference = solve_qbp_multistart(
            small_problem, restarts=3, iterations=8, seed=4
        )
        plan = FaultPlan().fail("qbp.iteration", times=1)
        with inject_faults(plan):
            survived = solve_qbp_multistart(
                small_problem, restarts=3, iterations=8, seed=4
            )
        assert survived.penalized_cost is not None
        # Restarts 1..2 are seed-stream independent of restart 0, so the
        # survivor set's best is one of the reference restarts' results.
        assert (
            survived.best_feasible_cost >= reference.best_feasible_cost
        )

    @pytest.mark.parametrize("workers", WORKERS)
    def test_failed_restart_emits_fallback_event(self, small_problem, workers):
        tel = Telemetry.enabled_default()
        with inject_faults(failing_restarts(0)):
            with use_telemetry(tel):
                solve_qbp_multistart(
                    small_problem, restarts=2, iterations=5, seed=0, workers=workers
                )
        fallbacks = [e for e in tel.events() if e.kind == "fallback"]
        assert any(
            e.ladder == "qbp.multistart" and e.rung == "worker-0"
            for e in fallbacks
        )

    @pytest.mark.parametrize("workers", WORKERS)
    def test_argument_errors_raise_immediately(self, small_problem, workers):
        # Checked before the fan-out: the same ValueError for every
        # worker count, not a MultistartError from inside the restarts.
        with pytest.raises(ValueError):
            solve_qbp_multistart(small_problem, restarts=0, workers=workers)
        with pytest.raises(ValueError, match="eta_mode"):
            solve_qbp_multistart(
                small_problem, restarts=2, eta_mode="bogus", workers=workers
            )

    def test_checkpointing_needs_a_single_restart(self, small_problem, tmp_path):
        from repro.runtime.checkpoint import QbpCheckpointer

        checkpointer = QbpCheckpointer(tmp_path / "ckpt.json")
        with pytest.raises(ValueError, match="restarts == 1"):
            solve_qbp_multistart(
                small_problem, restarts=2, iterations=5, checkpointer=checkpointer
            )

    @pytest.mark.parametrize("workers", WORKERS)
    def test_error_aggregates_every_failing_restart(self, small_problem, workers):
        with inject_faults(failing_restarts(0, 1, 2)):
            with pytest.raises(MultistartError) as excinfo:
                solve_qbp_multistart(
                    small_problem, restarts=3, iterations=5, seed=0, workers=workers
                )
        err = excinfo.value
        assert err.failed_indices == [0, 1, 2]
        assert len(err.failures) == 3
        for index, description in err.failures:
            assert isinstance(index, int)
            assert "InjectedFault" in description or "injected" in description
        assert "failing restarts: 0, 1, 2" in str(err)

    def test_error_without_failures_still_formats(self):
        err = MultistartError("nothing ran")
        assert err.failures == []
        assert err.failed_indices == []


def fake_restarts(monkeypatch, keys, *, cancel_after=None):
    """Replace ``solve_qbp`` with canned results; returns the call log.

    Call ``k`` returns a result with ``(best_feasible_cost,
    penalized_cost) == keys[k]`` tagged ``restart=k``; with
    ``cancel_after=k`` it cancels its budget once call ``k`` is done.
    """
    calls = []

    def solve(problem, *, iterations, seed, budget, telemetry, **kwargs):
        index = len(calls)
        calls.append(index)
        if cancel_after == index:
            budget.cancel()
        feasible, penalized = keys[index]
        return SimpleNamespace(
            best_feasible_cost=feasible,
            penalized_cost=penalized,
            stop_reason="completed",
            restart=index,
        )

    monkeypatch.setattr(multistart, "solve_qbp", solve)
    return calls


class TestFold:
    def test_ties_keep_the_lowest_restart_index(self, small_problem, monkeypatch):
        # Restart 1 improves on restart 0; restart 2 only ties it.
        fake_restarts(monkeypatch, [(5.0, 9.0), (3.0, 9.0), (3.0, 9.0)])
        best = solve_qbp_multistart(
            small_problem, restarts=3, iterations=5, workers=1, verify=False
        )
        assert best.restart == 1

    def test_budget_stop_after_restart_zero_sets_stop_reason(
        self, small_problem, monkeypatch
    ):
        # The skipped restarts are a budget verdict, not failures: the
        # result is restart 0's, stamped with the budget's reason.
        calls = fake_restarts(
            monkeypatch, [(4.0, 4.0), (1.0, 1.0), (1.0, 1.0)], cancel_after=0
        )
        best = solve_qbp_multistart(
            small_problem,
            restarts=3,
            iterations=5,
            budget=Budget(),
            workers=1,
            verify=False,
        )
        assert calls == [0]
        assert best.restart == 0
        assert best.stop_reason == "cancelled"


class TestIntegrityGate:
    """Corrupted restart results are rejected, not silently accepted."""

    @pytest.mark.parametrize("workers", WORKERS)
    def test_corrupt_results_rejected(self, small_problem, workers):
        reference = solve_qbp_multistart(
            small_problem, restarts=3, iterations=8, seed=4
        )
        tel = Telemetry.enabled_default()
        plan = FaultPlan().fail_task("worker.corrupt", tasks=[1])
        with inject_faults(plan):
            with use_telemetry(tel):
                survived = solve_qbp_multistart(
                    small_problem, restarts=3, iterations=8, seed=4, workers=workers
                )
        # The tampered restart is dropped (or healed by a retry); the
        # survivors' best can only be no better than the undisturbed best.
        assert survived.best_feasible_cost >= reference.best_feasible_cost
        rejects = [e for e in tel.events() if e.kind == "integrity"]
        assert [e.task for e in rejects] == [1]
        assert tel.metrics_snapshot()["counters"]["pool.integrity_rejects"] == 1.0

    def test_verifier_accepts_honest_results(self, small_problem):
        from repro.solvers.qbp.multistart import multistart_verifier
        from repro.solvers.burkard import solve_qbp

        result = solve_qbp(small_problem, iterations=8, seed=4)
        multistart_verifier(small_problem)(result, payload=None)  # no raise

    def test_verifier_rejects_tampered_cost(self, small_problem):
        from dataclasses import replace

        from repro.parallel.retry import IntegrityError
        from repro.solvers.qbp.multistart import multistart_verifier
        from repro.solvers.burkard import solve_qbp

        result = solve_qbp(small_problem, iterations=8, seed=4)
        tampered = replace(result, cost=result.cost * 0.5)
        with pytest.raises(IntegrityError, match="cost"):
            multistart_verifier(small_problem)(tampered, payload=None)


class TestDeterministicSeeding:
    def test_same_seed_reproduces(self, small_problem):
        a = solve_qbp_multistart(small_problem, restarts=2, iterations=8, seed=3)
        b = solve_qbp_multistart(small_problem, restarts=2, iterations=8, seed=3)
        assert result_key(a) == result_key(b)

    def test_generator_seed_supported(self, small_problem):
        a = solve_qbp_multistart(
            small_problem,
            restarts=2,
            iterations=8,
            seed=np.random.default_rng(11),
        )
        b = solve_qbp_multistart(
            small_problem,
            restarts=2,
            iterations=8,
            seed=np.random.default_rng(11),
        )
        assert result_key(a) == result_key(b)
