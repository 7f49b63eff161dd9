"""WorkerPool behaviour: dispatch, fallbacks, failures, budget leases,
and the self-healing ladder (hang watchdog, retry, quarantine,
integrity gate, worker fault sites)."""

from __future__ import annotations

import os
import time

import pytest

from repro.obs.telemetry import Telemetry
from repro.parallel.pool import (
    DEFAULT_TIMEOUT_ENV,
    DEFAULT_WORKERS_ENV,
    WorkerPool,
    resolve_task_timeout,
    resolve_workers,
    supports_process_pool,
)
from repro.parallel.retry import IntegrityError, RetryPolicy
from repro.runtime.budget import Budget
from repro.runtime.faults import FaultPlan, inject_faults


needs_fork = pytest.mark.skipif(not supports_process_pool(), reason="platform lacks fork")


# Task functions must be module-level so they cross the fork boundary.
def square(payload, ctx):
    return payload * payload


def record_context(payload, ctx):
    return {
        "worker_id": ctx.worker_id,
        "pid": os.getpid(),
        "has_budget": ctx.budget is not None,
        "env_workers": os.environ.get(DEFAULT_WORKERS_ENV),
    }


def fail_on_odd(payload, ctx):
    if payload % 2:
        raise RuntimeError(f"odd payload {payload}")
    return payload


def sleep_until_cancelled(payload, ctx):
    if payload == "fast":
        return "done"
    deadline = time.monotonic() + 10.0
    while time.monotonic() < deadline:
        if ctx.budget is not None and ctx.budget.check() is not None:
            return "cancelled"
        time.sleep(0.01)
    return "timed out"


def instant(payload, ctx):
    return payload


def fail_first_attempt(payload, ctx):
    if ctx.attempt == 0:
        raise RuntimeError(f"transient fault on {payload}")
    return payload


def always_fail(payload, ctx):
    raise RuntimeError(f"poison payload {payload}")


def corrupt_first_attempt(payload, ctx):
    # A silently wrong value on the first attempt; correct afterwards.
    return -payload if ctx.attempt == 0 else payload


def wedge(payload, ctx):
    if payload == "wedge":
        # No budget checks: no heartbeats, invisible to cancellation.
        time.sleep(30.0)
    return payload


def reject_negative(value, payload):
    if isinstance(value, int) and value < 0:
        raise IntegrityError(f"negative value {value} for payload {payload}")


class TestResolveWorkers:
    def test_explicit_wins(self, monkeypatch):
        monkeypatch.setenv(DEFAULT_WORKERS_ENV, "8")
        assert resolve_workers(3) == 3

    def test_env_fallback(self, monkeypatch):
        monkeypatch.setenv(DEFAULT_WORKERS_ENV, "4")
        assert resolve_workers(None) == 4

    def test_default_is_one(self, monkeypatch):
        monkeypatch.delenv(DEFAULT_WORKERS_ENV, raising=False)
        assert resolve_workers(None) == 1

    def test_garbage_env_ignored(self, monkeypatch):
        monkeypatch.setenv(DEFAULT_WORKERS_ENV, "many")
        assert resolve_workers(None) == 1

    def test_nonpositive_raises(self):
        with pytest.raises(ValueError):
            resolve_workers(0)


class TestSerialPath:
    def test_workers_one_never_forks(self):
        pool = WorkerPool(workers=1)
        assert not pool.uses_processes

    def test_results_in_order(self):
        outcomes = WorkerPool(workers=1).map(square, [1, 2, 3, 4])
        assert [o.value for o in outcomes] == [1, 4, 9, 16]
        assert [o.index for o in outcomes] == [0, 1, 2, 3]

    def test_serial_uses_parent_process(self):
        outcomes = WorkerPool(workers=1).map(record_context, [None])
        assert outcomes[0].value["pid"] == os.getpid()

    def test_failure_is_isolated(self):
        outcomes = WorkerPool(workers=1).map(fail_on_odd, [0, 1, 2])
        assert [o.ok for o in outcomes] == [True, False, True]
        assert outcomes[1].failure.error_type == "RuntimeError"
        assert "odd payload 1" in outcomes[1].failure.message

    def test_call_ordered_fault_plan_forces_serial(self):
        pool = WorkerPool(workers=4)
        plan = FaultPlan()
        plan.fail("solver.step")  # call-ordered: counters are process-local
        with inject_faults(plan):
            assert not pool.uses_processes

    def test_task_scoped_fault_plan_keeps_processes(self):
        pool = WorkerPool(workers=4)
        plan = FaultPlan()
        plan.fail_task("worker.retry", tasks=[1])  # pure in (task, attempt)
        assert plan.fork_safe
        with inject_faults(plan):
            assert pool.uses_processes

    def test_fake_budget_clock_forces_serial(self):
        fake_now = [0.0]
        budget = Budget(wall_seconds=10.0, clock=lambda: fake_now[0])
        pool = WorkerPool(workers=4, budget=budget)
        assert not pool.uses_processes

    def test_on_result_sees_successes(self):
        seen = []
        WorkerPool(workers=1).map(
            fail_on_odd, [0, 1, 2], on_result=lambda o: seen.append(o.index)
        )
        assert seen == [0, 2]


@pytest.mark.skipif(not supports_process_pool(), reason="platform lacks fork")
class TestProcessPath:
    def test_uses_processes(self):
        assert WorkerPool(workers=2).uses_processes

    def test_results_in_payload_order(self):
        outcomes = WorkerPool(workers=2).map(square, list(range(6)))
        assert [o.value for o in outcomes] == [n * n for n in range(6)]

    def test_runs_in_child_processes(self):
        outcomes = WorkerPool(workers=2).map(record_context, [None, None])
        pids = {o.value["pid"] for o in outcomes}
        assert os.getpid() not in pids

    def test_workers_cannot_nest_pools(self):
        outcomes = WorkerPool(workers=2).map(record_context, [None, None])
        assert all(o.value["env_workers"] == "1" for o in outcomes)

    def test_single_payload_stays_serial(self):
        outcomes = WorkerPool(workers=4).map(record_context, [None])
        assert outcomes[0].value["pid"] == os.getpid()

    def test_worker_failure_is_isolated(self):
        outcomes = WorkerPool(workers=2).map(fail_on_odd, [0, 1, 2, 3])
        assert [o.ok for o in outcomes] == [True, False, True, False]
        failure = outcomes[1].failure
        assert failure.error_type == "RuntimeError"
        assert "odd payload 1" in failure.message
        assert "Traceback" in failure.traceback

    def test_failures_emit_fallback_events(self):
        tel = Telemetry.enabled_default()
        pool = WorkerPool(workers=2, name="test.pool", telemetry=tel)
        pool.map(fail_on_odd, [0, 1, 2, 3])
        fallbacks = [e for e in tel.events() if getattr(e, "kind", "") == "fallback"]
        assert [e.rung for e in fallbacks] == ["worker-1", "worker-3"]
        assert all(e.ladder == "test.pool" and e.status == "error" for e in fallbacks)
        snapshot = tel.metrics_snapshot()
        assert snapshot["counters"]["pool.task_failures"] == 2.0

    def test_budget_expiry_cancels_workers(self):
        budget = Budget(wall_seconds=0.3)
        pool = WorkerPool(workers=2, budget=budget)
        t0 = time.monotonic()
        outcomes = pool.map(sleep_until_cancelled, [None, None])
        elapsed = time.monotonic() - t0
        assert elapsed < 5.0  # cooperative cancel, not the 10s task deadline
        assert all(o.value == "cancelled" for o in outcomes if o.ok)


@pytest.mark.parametrize("workers", [1, pytest.param(2, marks=needs_fork)])
def test_stopped_budget_starts_only_the_first_task(workers):
    budget = Budget()
    budget.cancel()
    outcomes = WorkerPool(workers=workers, budget=budget).map(square, [0, 1, 2])
    assert [o.ok for o in outcomes] == [True, False, False]
    assert outcomes[0].value == 0
    assert [o.failure.kind for o in outcomes[1:]] == ["budget", "budget"]
    assert all(o.failure.message == "budget cancelled before start" for o in outcomes[1:])


class TestResolveTaskTimeout:
    def test_explicit_wins(self, monkeypatch):
        monkeypatch.setenv(DEFAULT_TIMEOUT_ENV, "9")
        assert resolve_task_timeout(3.0) == 3.0

    def test_env_fallback(self, monkeypatch):
        monkeypatch.setenv(DEFAULT_TIMEOUT_ENV, "4.5")
        assert resolve_task_timeout(None) == 4.5

    def test_default_is_off(self, monkeypatch):
        monkeypatch.delenv(DEFAULT_TIMEOUT_ENV, raising=False)
        assert resolve_task_timeout(None) is None

    def test_garbage_env_ignored(self, monkeypatch):
        monkeypatch.setenv(DEFAULT_TIMEOUT_ENV, "soon")
        assert resolve_task_timeout(None) is None

    def test_nonpositive_raises(self):
        with pytest.raises(ValueError):
            resolve_task_timeout(0.0)


QUICK_RETRY = RetryPolicy(max_attempts=3, base_delay=0.01, max_delay=0.05)


class TestSerialSelfHealing:
    """Retry / quarantine / integrity on the in-process path."""

    def test_retry_cures_transient_failure(self):
        pool = WorkerPool(workers=1, retry=QUICK_RETRY)
        outcomes = pool.map(fail_first_attempt, [10, 20])
        assert [o.value for o in outcomes] == [10, 20]

    def test_no_retry_by_default(self):
        outcomes = WorkerPool(workers=1).map(fail_first_attempt, [10])
        assert not outcomes[0].ok
        assert outcomes[0].failure.attempts == 1

    def test_quarantine_after_max_attempts(self):
        tel = Telemetry.enabled_default()
        pool = WorkerPool(workers=1, name="q.pool", retry=QUICK_RETRY, telemetry=tel)
        outcomes = pool.map(always_fail, ["bad"])
        failure = outcomes[0].failure
        assert failure is not None and failure.attempts == 3
        events = {getattr(e, "kind", "") for e in tel.events()}
        assert "retry" in events and "quarantine" in events
        quarantine = [e for e in tel.events() if getattr(e, "kind", "") == "quarantine"]
        assert len(quarantine) == 1
        assert quarantine[0].attempts == 3
        assert len(quarantine[0].payload_digest) == 16
        snapshot = tel.metrics_snapshot()
        assert snapshot["counters"]["pool.task_retries"] == 2.0
        assert snapshot["counters"]["pool.task_quarantined"] == 1.0

    def test_integrity_gate_rejects_and_retries(self):
        tel = Telemetry.enabled_default()
        pool = WorkerPool(workers=1, name="i.pool", retry=QUICK_RETRY, telemetry=tel)
        outcomes = pool.map(corrupt_first_attempt, [7], verify=reject_negative)
        assert outcomes[0].value == 7
        integrity = [e for e in tel.events() if getattr(e, "kind", "") == "integrity"]
        assert len(integrity) == 1
        assert "negative value -7" in integrity[0].reason
        assert tel.metrics_snapshot()["counters"]["pool.integrity_rejects"] == 1.0

    def test_integrity_failure_without_retry_is_final(self):
        outcomes = WorkerPool(workers=1).map(
            corrupt_first_attempt, [7], verify=reject_negative
        )
        failure = outcomes[0].failure
        assert failure is not None and failure.kind == "integrity"

    def test_serial_crash_site_degrades_to_crash_kind(self):
        plan = FaultPlan().fail_task("worker.crash", tasks=[0])
        with inject_faults(plan):
            outcomes = WorkerPool(workers=1).map(instant, ["a"])
        failure = outcomes[0].failure
        assert failure is not None and failure.kind == "crash"
        assert ("worker.crash", 0, "fail") in plan.injected


@pytest.mark.skipif(not supports_process_pool(), reason="platform lacks fork")
class TestProcessSelfHealing:
    """Hang watchdog, crash isolation, retry, integrity across the fork."""

    def test_retry_cures_transient_failure(self):
        pool = WorkerPool(workers=2, retry=QUICK_RETRY)
        assert pool.uses_processes
        outcomes = pool.map(fail_first_attempt, [10, 20])
        assert [o.value for o in outcomes] == [10, 20]
        assert all(o.ok for o in outcomes)

    def test_hang_watchdog_kills_silent_worker(self):
        tel = Telemetry.enabled_default()
        pool = WorkerPool(workers=2, name="h.pool", task_timeout=1.0, telemetry=tel)
        t0 = time.monotonic()
        outcomes = pool.map(wedge, ["ok", "wedge"])
        elapsed = time.monotonic() - t0
        assert elapsed < 10.0  # killed, not waited out
        assert outcomes[0].value == "ok"
        failure = outcomes[1].failure
        assert failure is not None and failure.kind == "hang"
        assert "heartbeat" in failure.message
        fallbacks = [e for e in tel.events() if getattr(e, "kind", "") == "fallback"]
        assert any(e.status == "timeout" for e in fallbacks)
        assert tel.metrics_snapshot()["counters"]["pool.task_hangs"] == 1.0

    def test_heartbeats_keep_budget_checkers_alive(self):
        # A task that checks its budget is never hang-killed, even when
        # it runs far longer than the timeout between results.
        budget = Budget(wall_seconds=1.0)
        pool = WorkerPool(workers=2, task_timeout=0.5, budget=budget)
        outcomes = pool.map(sleep_until_cancelled, [None, None])
        assert all(o.ok for o in outcomes)
        assert all(o.value == "cancelled" for o in outcomes)

    def test_injected_crash_is_isolated_and_retried(self):
        plan = FaultPlan().fail_task("worker.crash", tasks=[1])
        pool = WorkerPool(workers=2, retry=QUICK_RETRY)
        with inject_faults(plan):
            assert pool.uses_processes
            outcomes = pool.map(square, [2, 3, 4])
        assert [o.value for o in outcomes] == [4, 9, 16]
        # The dead worker could not report; the parent reconstructed it.
        assert ("worker.crash", 1, "fail") in plan.injected

    def test_injected_crash_without_retry_is_crash_kind(self):
        plan = FaultPlan().fail_task("worker.crash", tasks=[1])
        with inject_faults(plan):
            outcomes = WorkerPool(workers=2).map(square, [2, 3])
        failure = outcomes[1].failure
        assert failure is not None and failure.kind == "crash"
        assert "died abruptly" in failure.message

    def test_injected_hang_is_killed_and_retried(self):
        plan = FaultPlan().slow_task("worker.hang", 30.0, tasks=[1])
        pool = WorkerPool(workers=2, task_timeout=1.0, retry=QUICK_RETRY)
        with inject_faults(plan):
            t0 = time.monotonic()
            outcomes = pool.map(square, [2, 3])
            elapsed = time.monotonic() - t0
        assert elapsed < 10.0
        assert [o.value for o in outcomes] == [4, 9]
        assert ("worker.hang", 1, "slow") in plan.injected

    def test_injected_worker_retry_site_round_trips_audit(self):
        plan = FaultPlan().fail_task("worker.retry", tasks=[0])
        pool = WorkerPool(workers=2, retry=QUICK_RETRY)
        with inject_faults(plan):
            outcomes = pool.map(square, [5, 6])
        assert [o.value for o in outcomes] == [25, 36]
        # This entry crossed the fork inside the result message.
        assert ("worker.retry", 0, "fail") in plan.injected

    def test_integrity_gate_rejects_and_retries(self):
        tel = Telemetry.enabled_default()
        pool = WorkerPool(workers=2, name="i.pool", retry=QUICK_RETRY, telemetry=tel)
        outcomes = pool.map(corrupt_first_attempt, [7, 8], verify=reject_negative)
        assert [o.value for o in outcomes] == [7, 8]
        integrity = [e for e in tel.events() if getattr(e, "kind", "") == "integrity"]
        assert len(integrity) == 2

    def test_failure_kinds_and_attempts_in_outcomes(self):
        pool = WorkerPool(workers=2, retry=QUICK_RETRY)
        outcomes = pool.map(always_fail, ["a", "b"])
        for outcome in outcomes:
            assert outcome.failure.kind == "error"
            assert outcome.failure.attempts == 3

    def test_retry_events_are_deterministic(self):
        def stream(tel):
            return [
                (e.task, e.attempt, e.delay_seconds)
                for e in tel.events()
                if getattr(e, "kind", "") == "retry"
            ]

        streams = []
        for _ in range(2):
            tel = Telemetry.enabled_default()
            pool = WorkerPool(workers=2, retry=QUICK_RETRY, telemetry=tel)
            pool.map(always_fail, ["a", "b"])
            streams.append(stream(tel))
        assert streams[0] == streams[1]
        assert len(streams[0]) == 4  # 2 tasks x 2 retries each
