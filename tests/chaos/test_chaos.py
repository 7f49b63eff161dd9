"""Chaos suite: inject each failure class, assert the exact degradation path.

Every test installs a task-scoped :class:`FaultPlan` (the same kind the
``REPRO_FAULT_PLAN`` CI profile expresses), runs a real solver or table
sweep through the self-healing :class:`WorkerPool`, and asserts

* the final answer is **bit-identical** to an undisturbed serial run
  (self-healing must not change results, only survive faults), and
* the typed event stream records the exact degradation path the
  injected fault was supposed to take (retry -> cure, kill -> retry,
  reject -> retry, quarantine).

See ``docs/ROBUSTNESS.md`` for the failure taxonomy.
"""

from __future__ import annotations

import pytest

from repro.eval.harness import TableCheckpoint, run_table
from repro.obs.telemetry import Telemetry, use_telemetry
from repro.parallel.pool import supports_process_pool
from repro.parallel.retry import RetryPolicy
from repro.runtime.budget import Budget
from repro.runtime.faults import (
    FAULT_PLAN_ENV,
    FaultPlan,
    inject_faults,
    parse_fault_plan,
    plan_from_env,
)
from repro.solvers.burkard import solve_qbp_multistart

needs_fork = pytest.mark.skipif(
    not supports_process_pool(), reason="platform lacks fork"
)

QUICK_RETRY = RetryPolicy(max_attempts=3, base_delay=0.01, max_delay=0.05)

# The CI chaos profile: all four worker fault sites on the first two
# tasks, so any batch with >= 2 tasks exercises every failure class.
CHAOS_PROFILE = (
    "worker.retry:fail:tasks=0:attempts=0;"
    "worker.crash:fail:tasks=0:attempts=1;"
    "worker.hang:slow:tasks=1:seconds=30:attempts=0;"
    "worker.corrupt:fail:tasks=1:attempts=1"
)


def result_key(result):
    return (
        result.cost,
        result.best_feasible_cost,
        result.penalized_cost,
        result.assignment.part.tolist(),
    )


def events_of(tel, kind):
    return [e for e in tel.events() if getattr(e, "kind", "") == kind]


class TestFaultPlanGrammar:
    def test_fail_clause(self):
        plan = parse_fault_plan("worker.crash:fail:tasks=2")
        assert plan.fork_safe
        assert plan.would_fire_task("worker.crash", 2, 0) == "fail"
        assert plan.would_fire_task("worker.crash", 1, 0) is None
        assert plan.would_fire_task("worker.crash", 2, 1) is None  # attempt 0 only

    def test_slow_clause_with_options(self):
        plan = parse_fault_plan("worker.hang:slow:tasks=1,3:seconds=5:attempts=0,1")
        assert plan.would_fire_task("worker.hang", 3, 1) == "slow"
        assert plan.would_fire_task("worker.hang", 2, 0) is None

    def test_every_attempt_wildcard(self):
        plan = parse_fault_plan("worker.retry:fail:tasks=0:attempts=*")
        assert plan.would_fire_task("worker.retry", 0, 7) == "fail"

    def test_multiple_clauses(self):
        plan = parse_fault_plan(CHAOS_PROFILE)
        assert plan.fork_safe
        assert plan.would_fire_task("worker.retry", 0, 0) == "fail"
        assert plan.would_fire_task("worker.crash", 0, 1) == "fail"
        assert plan.would_fire_task("worker.hang", 1, 0) == "slow"
        assert plan.would_fire_task("worker.corrupt", 1, 1) == "fail"

    def test_empty_clauses_skipped(self):
        plan = parse_fault_plan("; worker.crash:fail:tasks=0 ;;")
        assert plan.would_fire_task("worker.crash", 0, 0) == "fail"

    @pytest.mark.parametrize(
        "spec",
        [
            "worker.crash",  # no kind
            "worker.crash:fail",  # no tasks=
            "worker.crash:fail:tasks",  # not key=value
            "worker.crash:explode:tasks=0",  # unknown kind
        ],
    )
    def test_malformed_specs_rejected(self, spec):
        with pytest.raises(ValueError):
            parse_fault_plan(spec)


class TestEnvProfile:
    def test_unset_means_no_plan(self, monkeypatch):
        monkeypatch.delenv(FAULT_PLAN_ENV, raising=False)
        assert plan_from_env() is None

    def test_blank_means_no_plan(self, monkeypatch):
        monkeypatch.setenv(FAULT_PLAN_ENV, "   ")
        assert plan_from_env() is None

    def test_profile_parses(self, monkeypatch):
        monkeypatch.setenv(FAULT_PLAN_ENV, CHAOS_PROFILE)
        plan = plan_from_env()
        assert plan is not None and plan.fork_safe
        assert plan.would_fire_task("worker.hang", 1, 0) == "slow"

    def test_malformed_profile_raises(self, monkeypatch):
        monkeypatch.setenv(FAULT_PLAN_ENV, "nope")
        with pytest.raises(ValueError):
            plan_from_env()


@needs_fork
class TestMultistartChaos:
    """All four failure classes through a real multistart fan-out."""

    RUN = dict(restarts=4, iterations=8, seed=11)

    def test_full_profile_heals_to_identical_result(self, small_problem):
        reference = solve_qbp_multistart(small_problem, workers=1, **self.RUN)
        tel = Telemetry.enabled_default()
        plan = parse_fault_plan(CHAOS_PROFILE)
        with inject_faults(plan):
            with use_telemetry(tel):
                survived = solve_qbp_multistart(
                    small_problem,
                    workers=2,
                    task_timeout=1.0,
                    retry=QUICK_RETRY,
                    **self.RUN,
                )
        assert result_key(survived) == result_key(reference)

        # Exact degradation paths, per injected fault:
        retries = events_of(tel, "retry")
        retried = {(e.task, e.attempt) for e in retries}
        # task 0: error on attempt 0, crash on attempt 1, cured on 2.
        assert (0, 0) in retried and (0, 1) in retried
        # task 1: hang killed on attempt 0, corrupt rejected on attempt 1.
        assert (1, 0) in retried and (1, 1) in retried
        kinds = {(e.task, e.attempt): e.failure_kind for e in retries}
        assert kinds[(0, 0)] == "error"
        assert kinds[(0, 1)] == "crash"
        assert kinds[(1, 0)] == "hang"
        assert kinds[(1, 1)] == "integrity"
        rejects = events_of(tel, "integrity")
        assert [(e.task, e.attempt) for e in rejects] == [(1, 1)]
        assert events_of(tel, "quarantine") == []  # everything healed
        counters = tel.metrics_snapshot()["counters"]
        assert counters["pool.task_retries"] == 4.0
        assert counters["pool.task_hangs"] == 1.0
        assert counters["pool.integrity_rejects"] == 1.0
        # The worker-side fault audit made it back to the parent plan.
        assert ("worker.retry", 0, "fail") in plan.injected
        assert ("worker.crash", 0, "fail") in plan.injected
        assert ("worker.hang", 1, "slow") in plan.injected

    def test_unhealable_task_is_quarantined(self, small_problem):
        # Failing every attempt exhausts the policy: the task lands in
        # quarantine with its payload digest, the rest still produce the
        # reference best when it does not come from the poisoned restart.
        tel = Telemetry.enabled_default()
        plan = parse_fault_plan("worker.retry:fail:tasks=3:attempts=*")
        with inject_faults(plan):
            with use_telemetry(tel):
                survived = solve_qbp_multistart(
                    small_problem, workers=2, retry=QUICK_RETRY, **self.RUN
                )
        assert survived.penalized_cost is not None
        quarantined = events_of(tel, "quarantine")
        assert [e.task for e in quarantined] == [3]
        assert quarantined[0].attempts == QUICK_RETRY.max_attempts
        assert len(quarantined[0].payload_digest) == 16


@needs_fork
class TestTableChaos:
    """Failure classes through a real Table II sweep with checkpointing."""

    RUN = dict(scale=0.1, qbp_iterations=8, circuits=["ckta", "cktb"], seed=0)

    @staticmethod
    def fields(row):
        return (
            row.name,
            row.start_cost,
            row.qbp_cost,
            row.gfm_cost,
            row.gkl_cost,
            row.all_feasible,
            row.stop_reason,
        )

    def test_corrupt_and_crash_heal_to_identical_rows(self):
        reference = run_table(2, workers=1, **self.RUN)
        tel = Telemetry.enabled_default()
        plan = parse_fault_plan(
            "worker.corrupt:fail:tasks=0:attempts=0;"
            "worker.crash:fail:tasks=1:attempts=0"
        )
        with inject_faults(plan):
            with use_telemetry(tel):
                rows = run_table(2, workers=2, retry=QUICK_RETRY, **self.RUN)
        assert [self.fields(r) for r in rows] == [self.fields(r) for r in reference]
        rejects = events_of(tel, "integrity")
        assert [(e.task, e.attempt) for e in rejects] == [(0, 0)]
        assert "inconsistent" in rejects[0].reason
        retried = {(e.task, e.attempt, e.failure_kind) for e in events_of(tel, "retry")}
        assert (0, 0, "integrity") in retried
        assert (1, 0, "crash") in retried

    @pytest.mark.parametrize("workers", [1, 2])
    def test_quarantined_circuit_raises_then_resumes_identically(
        self, tmp_path, workers
    ):
        # A circuit that exhausts the retry policy fails the sweep with an
        # error naming it; the other circuit's row is already
        # checkpointed, so a rerun without the fault only recomputes the
        # quarantined one and matches the undisturbed rows exactly.
        reference = run_table(2, workers=1, **self.RUN)
        plan = parse_fault_plan("worker.retry:fail:tasks=0:attempts=*")
        with inject_faults(plan):
            with pytest.raises(RuntimeError, match="ckta") as excinfo:
                run_table(
                    2,
                    workers=workers,
                    retry=RetryPolicy(max_attempts=2, base_delay=0.01, max_delay=0.02),
                    checkpoint_dir=tmp_path,
                    **self.RUN,
                )
        message = str(excinfo.value)
        assert "InjectedFault" in message and "Traceback" in message
        assert "cktb" not in message
        params = {
            "scale": 0.1,
            "qbp_iterations": 8,
            "seed": 0,
            "methods": ["qbp", "gfm", "gkl"],
        }
        checkpoint = TableCheckpoint(tmp_path, 2, params=params)
        assert checkpoint.completed("ckta") is None
        assert checkpoint.completed("cktb") is not None
        rows = run_table(2, workers=workers, checkpoint_dir=tmp_path, **self.RUN)
        assert [self.fields(r) for r in rows] == [self.fields(r) for r in reference]


class TestResumeAfterCancel:
    """Drain mid-sweep, then resume bit-identically from the checkpoint."""

    RUN = dict(scale=0.1, qbp_iterations=8, circuits=["ckta", "cktb"], seed=0)

    def test_cancelled_sweep_resumes_bit_identically(self, tmp_path):
        reference = run_table(2, workers=1, **self.RUN)

        # Cancel mid-first-circuit, the way a SIGTERM drain does (the
        # handler calls budget.cancel(); here the budget's own check
        # hook pulls the trigger deterministically).
        budget = Budget()
        checks = {"n": 0}

        def trip():
            checks["n"] += 1
            if checks["n"] == 40:
                budget.cancel()

        budget.on_check = trip
        interrupted = run_table(
            2, workers=1, budget=budget, checkpoint_dir=tmp_path, **self.RUN
        )
        assert len(interrupted) < len(reference) or any(
            r.stop_reason != "completed" for r in interrupted
        )

        resumed = run_table(2, workers=1, checkpoint_dir=tmp_path, **self.RUN)
        assert [TestTableChaos.fields(r) for r in resumed] == [
            TestTableChaos.fields(r) for r in reference
        ]
