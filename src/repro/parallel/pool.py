"""The :class:`WorkerPool`: self-healing process fan-out with serial fallback.

Execution model
---------------
A pool maps one picklable *task function* over a list of payloads.  The
task function must be module-level and takes ``(payload, ctx)`` where
``ctx`` is a :class:`WorkerContext` carrying

* ``worker_id`` - the task index (also the id telemetry is merged
  under),
* ``telemetry`` - a per-worker :class:`~repro.obs.telemetry.Telemetry`
  (fresh and process-local in a worker; the parent's own bundle on the
  serial path),
* ``budget`` - this task's budget **lease**: a fresh
  :class:`~repro.runtime.budget.Budget` bounded by the parent budget's
  remaining wall clock at dispatch and wired to a shared cancel event,
  so one signal stops every worker cooperatively.  In a worker the
  lease doubles as the **heartbeat**: every cooperative
  ``budget.check()`` stamps a shared timestamp the parent watches.

Each task runs in its *own* forked process (one process per attempt,
capped at ``workers`` concurrent), so a sick worker can be killed
without collateral damage to its siblings.  Results come back as
:class:`TaskOutcome` records in payload order.

Failure taxonomy (``TaskFailure.kind``)
---------------------------------------
``error``
    The task function raised; the worker-side traceback rides along.
``crash``
    The worker process died abruptly (segfault, ``os._exit``, OOM kill)
    without reporting a result.
``hang``
    The worker went silent: no result and no heartbeat for longer than
    ``task_timeout`` seconds.  The parent SIGKILLs the process and
    surfaces the task as hung instead of blocking the lease forever.
``integrity``
    The worker returned a value, but the parent-side ``verify``
    callback rejected it (:class:`~repro.parallel.retry.IntegrityError`)
    - a silently wrong result never enters the fold.
``budget``
    A verdict, not a failure: the shared budget stopped before the task
    started (both paths; task 0 always runs).

``error``, ``crash``, ``hang``, and ``integrity`` failures are
*retryable*: with a :class:`~repro.parallel.retry.RetryPolicy` the pool
re-dispatches the attempt after exponential backoff with deterministic
jitter, and quarantines the task (payload digest recorded in a
:class:`~repro.obs.events.QuarantineEvent`) once attempts run out, so a
poison task cannot sink its batch.  Every failed rung of this ladder is
mirrored onto the typed event stream (``retry``, ``integrity``,
``quarantine``, and the final ``fallback``) - the same audit shapes
``traceview`` and ``scripts/check_trace.py`` already consume.

Cancellation
------------
The parent polls its shared budget between completions; on expiry or
:meth:`~repro.runtime.budget.Budget.cancel` it sets the pool-wide cancel
event and every in-flight task's lease reports ``cancelled`` at its next
cooperative check - solvers then return their incumbents, exactly as
they do under a serial budget stop.

When processes are not used
---------------------------
``workers=1``, platforms without ``fork``, a fault-injection plan with
call-ordered rules (its counters are process-local; task-scoped
``worker.*`` plans *do* cross the fork - see
:mod:`repro.runtime.faults`), or a budget with an injected test clock
(meaningless across processes) all select the serial in-process path,
which runs the same task functions - including the retry, verify, and
quarantine ladder - with the parent's own telemetry and budget.
``resolve_workers(None)`` reads the ``REPRO_WORKERS`` environment
variable (default 1), which is how CI exercises the parallel path
suite-wide; workers force ``REPRO_WORKERS=1`` in their own environment
so pools never nest.
"""

from __future__ import annotations

import logging
import math
import multiprocessing
import os
import time
import traceback
from collections import deque
from dataclasses import dataclass, field
from multiprocessing import connection as mp_connection
from typing import Any, Callable, Dict, List, Optional, Sequence

from repro.obs.events import (
    FallbackEvent,
    IntegrityEvent,
    ProgressEvent,
    QuarantineEvent,
    TaskRetryEvent,
)
from repro.obs.prof import profiler_from_env
from repro.obs.telemetry import (
    DISABLED,
    Telemetry,
    resolve as resolve_telemetry,
    use_telemetry,
)
from repro.parallel.merge import capture_worker_dump, merge_worker_dump
from repro.parallel.retry import IntegrityError, RetryPolicy, payload_digest
from repro.runtime.budget import Budget
from repro.runtime.faults import active_plan, maybe_fault_task

logger = logging.getLogger(__name__)

DEFAULT_WORKERS_ENV = "REPRO_WORKERS"
"""Environment variable consulted when ``workers`` is not given."""

DEFAULT_TIMEOUT_ENV = "REPRO_TASK_TIMEOUT"
"""Environment variable consulted when ``task_timeout`` is not given."""

_POLL_SECONDS = 0.05
"""How often the parent re-checks budget/heartbeats while tasks run."""

_PROGRESS_SECONDS = 1.0
"""Minimum gap between periodic :class:`ProgressEvent` emissions."""

_CRASH_EXIT_CODE = 70
"""Exit code of a worker whose ``worker.crash`` fault site fired."""

FINAL_FAILURE_KINDS = ("error", "crash", "hang", "integrity")
"""Failure kinds that represent real faults (emit audit events)."""


@dataclass(frozen=True)
class TaskFailure:
    """Why one task did not produce a value.

    ``kind`` classifies the failure (see module docstring); ``attempts``
    counts how many attempts were burned before giving up.
    """

    index: int
    error_type: str
    message: str
    traceback: str = ""
    kind: str = "error"
    attempts: int = 1

    def describe(self) -> str:
        return f"task {self.index}: {self.error_type}: {self.message}"


@dataclass
class TaskOutcome:
    """One task's result slot (in payload order)."""

    index: int
    value: Any = None
    failure: Optional[TaskFailure] = None

    @property
    def ok(self) -> bool:
        return self.failure is None


@dataclass
class WorkerContext:
    """What a task function gets to work with (see module docstring).

    ``attempt`` is the 0-based retry attempt this execution is part of,
    so task functions can key attempt-scoped fault sites (e.g.
    ``worker.corrupt``) the way the pool itself does.
    """

    worker_id: int
    telemetry: Telemetry = field(default_factory=lambda: DISABLED)
    budget: Optional[Budget] = None
    attempt: int = 0


def resolve_workers(workers: Optional[int] = None) -> int:
    """Normalise a worker count: explicit arg > ``REPRO_WORKERS`` env > 1."""
    if workers is None:
        raw = os.environ.get(DEFAULT_WORKERS_ENV, "").strip()
        if not raw:
            return 1
        try:
            workers = int(raw)
        except ValueError:
            logger.warning(
                "ignoring non-integer %s=%r", DEFAULT_WORKERS_ENV, raw
            )
            return 1
    workers = int(workers)
    if workers < 1:
        raise ValueError(f"workers must be >= 1, got {workers}")
    return workers


def resolve_task_timeout(task_timeout: Optional[float] = None) -> Optional[float]:
    """Normalise a hang deadline: explicit arg > env > disabled."""
    if task_timeout is None:
        raw = os.environ.get(DEFAULT_TIMEOUT_ENV, "").strip()
        if not raw:
            return None
        try:
            task_timeout = float(raw)
        except ValueError:
            logger.warning(
                "ignoring non-numeric %s=%r", DEFAULT_TIMEOUT_ENV, raw
            )
            return None
    task_timeout = float(task_timeout)
    if not task_timeout > 0:
        raise ValueError(f"task_timeout must be > 0, got {task_timeout}")
    return task_timeout


def supports_process_pool() -> bool:
    """Whether this platform can fork worker processes.

    The pool relies on ``fork`` (cancel events and task payloads are
    inherited, numpy state is copy-on-write); platforms without it
    (Windows, some macOS configurations) use the serial fallback.
    """
    return "fork" in multiprocessing.get_all_start_methods()


def _budget_clock_is_real(budget: Optional[Budget]) -> bool:
    return budget is None or getattr(budget, "_clock", time.monotonic) is time.monotonic


class _TaskState:
    """Parent-side bookkeeping for one payload across its attempts."""

    __slots__ = ("index", "payload", "digest", "attempt", "ready_at", "records", "outcome")

    def __init__(self, index: int, payload) -> None:
        self.index = index
        self.payload = payload
        self.digest = payload_digest(payload)
        self.attempt = 0
        self.ready_at = 0.0  # earliest monotonic time the next attempt may start
        self.records: List[tuple] = []  # chronological audit, flushed in task order
        self.outcome: Optional[TaskOutcome] = None


class _BatchProgress:
    """Throttled parent-side progress emission for one ``map`` batch.

    Emits :class:`~repro.obs.events.ProgressEvent` records *live* (not
    through the deferred audit flush) so ``--progress`` status lines and
    streaming event sinks see the sweep advance while it runs.  Settles
    force an emission; in between, emissions are rate-limited to
    :data:`_PROGRESS_SECONDS`.  No counters are touched, so benchmark
    counter determinism is unaffected.
    """

    __slots__ = ("pool", "tel", "states", "total", "t0", "last")

    def __init__(self, pool: str, tel: Telemetry, states) -> None:
        self.pool = pool
        self.tel = tel
        self.states = states
        self.total = len(states)
        self.t0 = time.monotonic()
        self.last = 0.0

    def update(self, *, running: int = 0, force: bool = False) -> None:
        if not self.tel.enabled:
            return
        now = time.monotonic()
        if not force and now - self.last < _PROGRESS_SECONDS:
            return
        self.last = now
        done = sum(1 for s in self.states if s.outcome is not None)
        failed = sum(
            1
            for s in self.states
            if s.outcome is not None and s.outcome.failure is not None
        )
        elapsed = now - self.t0
        eta = None
        if 0 < done < self.total:
            eta = elapsed / done * (self.total - done)
        self.tel.emit(
            ProgressEvent(
                pool=self.pool,
                done=done,
                total=self.total,
                running=running,
                failed=failed,
                elapsed_seconds=elapsed,
                eta_seconds=eta,
            )
        )


class _RunningAttempt:
    """One in-flight worker process for a task attempt."""

    __slots__ = ("state", "process", "conn", "heartbeat", "started")

    def __init__(self, state, process, conn, heartbeat, started) -> None:
        self.state = state
        self.process = process
        self.conn = conn
        self.heartbeat = heartbeat
        self.started = started

    def last_activity(self) -> float:
        return max(self.started, float(self.heartbeat.value))


@dataclass
class WorkerPool:
    """Fan picklable tasks out to per-task forked workers; fall back to serial.

    Parameters
    ----------
    workers:
        Concurrent process count; ``None`` resolves via
        :func:`resolve_workers`.
    name:
        Label carried by emitted audit events (``ladder``/``pool``
        fields) and pool spans.
    budget:
        Optional shared :class:`Budget`.  Each task receives a lease
        bounded by its remaining wall clock; expiry or cancellation
        fans out to every worker through one shared event.
    telemetry:
        Optional parent :class:`Telemetry`; ``None`` resolves the
        ambient instance.  When enabled, workers capture their own
        bundles and the pool merges them back in task order.
    task_timeout:
        Hang deadline in seconds: a worker that produces neither a
        result nor a heartbeat for this long is killed and surfaced as
        a ``hang``-kind :class:`TaskFailure`.  ``None`` resolves the
        ``REPRO_TASK_TIMEOUT`` environment variable (default: hang
        detection off).  Heartbeats ride on cooperative
        ``budget.check()`` calls, so any solver that honours its budget
        is automatically health-checked.
    retry:
        Optional :class:`~repro.parallel.retry.RetryPolicy`; ``None``
        resolves the ``REPRO_TASK_RETRIES`` environment variable
        (default: no retries, first failure is final).
    """

    workers: Optional[int] = None
    name: str = "pool"
    budget: Optional[Budget] = None
    telemetry: Optional[Telemetry] = None
    task_timeout: Optional[float] = None
    retry: Optional[RetryPolicy] = None

    def __post_init__(self) -> None:
        self.workers = resolve_workers(self.workers)
        self.task_timeout = resolve_task_timeout(self.task_timeout)
        self.retry = RetryPolicy.resolve(self.retry)

    # ------------------------------------------------------------------
    @property
    def uses_processes(self) -> bool:
        """True when ``map`` will actually fork (see module docstring)."""
        plan = active_plan()
        return (
            self.workers > 1
            and supports_process_pool()
            and (plan is None or plan.fork_safe)
            and _budget_clock_is_real(self.budget)
        )

    # ------------------------------------------------------------------
    def map(
        self,
        fn: Callable[[Any, WorkerContext], Any],
        payloads: Sequence[Any],
        *,
        on_result: Optional[Callable[[TaskOutcome], None]] = None,
        verify: Optional[Callable[[Any, Any], None]] = None,
    ) -> List[TaskOutcome]:
        """Run ``fn(payload, ctx)`` for every payload; outcomes in order.

        ``on_result`` is called in the parent, in *completion* order, for
        each successful (and verified) outcome - e.g. to checkpoint rows
        as they land.  ``verify`` is the integrity gate: called in the
        parent as ``verify(value, payload)`` before a result is
        accepted; raising :class:`~repro.parallel.retry.IntegrityError`
        rejects the value as an ``integrity``-kind failure (retried
        under the pool's retry policy).
        """
        payloads = list(payloads)
        states = [_TaskState(index, payload) for index, payload in enumerate(payloads)]
        if self.uses_processes and len(payloads) > 1:
            self._map_processes(fn, states, on_result, verify)
        else:
            self._map_serial(fn, states, on_result, verify)
        tel = resolve_telemetry(self.telemetry)
        self._flush_records(tel, states)
        return [
            state.outcome if state.outcome is not None else TaskOutcome(state.index)
            for state in states
        ]

    # ------------------------------------------------------------------
    # Shared attempt-settlement logic (serial + process paths)
    # ------------------------------------------------------------------
    def _settle_failure(
        self,
        state: _TaskState,
        *,
        kind: str,
        error_type: str,
        message: str,
        tb: str = "",
        allow_retry: bool = True,
    ) -> bool:
        """Record one failed attempt; returns True when it will be retried."""
        attempt = state.attempt
        if (
            allow_retry
            and self.retry is not None
            and self.retry.should_retry(kind, attempt)
        ):
            delay = self.retry.delay_seconds(state.digest, attempt)
            state.records.append(
                ("retry", attempt, kind, delay, f"{error_type}: {message}")
            )
            state.attempt += 1
            state.ready_at = time.monotonic() + delay
            return True
        failure = TaskFailure(
            state.index,
            error_type,
            message,
            tb,
            kind=kind,
            attempts=attempt + 1,
        )
        if (
            self.retry is not None
            and kind in self.retry.retry_kinds
            and attempt + 1 >= self.retry.max_attempts
        ):
            state.records.append(("quarantine", failure))
        state.outcome = TaskOutcome(state.index, failure=failure)
        return False

    def _gate_and_accept(
        self,
        state: _TaskState,
        value,
        verify,
        on_result,
    ) -> bool:
        """Integrity-gate ``value``; returns True when accepted."""
        if verify is not None:
            try:
                verify(value, state.payload)
            except IntegrityError as exc:
                state.records.append(("integrity", state.attempt, str(exc)))
                return False
        state.outcome = TaskOutcome(state.index, value=value)
        if on_result is not None:
            on_result(state.outcome)
        return True

    def _stopped_before_start(self, state: _TaskState) -> bool:
        """Settle a task after the first as ``budget`` if the budget stopped."""
        reason = self.budget.check() if self.budget is not None else None
        if reason is None or state.index == 0:
            return False
        state.outcome = TaskOutcome(
            state.index,
            failure=TaskFailure(
                state.index,
                "BudgetExceeded",
                f"budget {reason} before start",
                kind="budget",
            ),
        )
        return True

    # ------------------------------------------------------------------
    def _map_serial(self, fn, states, on_result, verify):
        tel = resolve_telemetry(self.telemetry)
        progress = _BatchProgress(self.name, tel, states)
        for state in states:
            progress.update()
            index = state.index
            if self._stopped_before_start(state):
                continue
            while state.outcome is None:
                if state.attempt > 0:
                    time.sleep(max(0.0, state.ready_at - time.monotonic()))
                ctx = WorkerContext(
                    index, telemetry=tel, budget=self.budget, attempt=state.attempt
                )
                kind = "error"
                try:
                    maybe_fault_task("worker.retry", index, state.attempt)
                    maybe_fault_task("worker.hang", index, state.attempt)
                    try:
                        maybe_fault_task("worker.crash", index, state.attempt)
                    except Exception:
                        # Serial processes cannot die abruptly; the crash
                        # site degrades to a crash-kind failure instead.
                        kind = "crash"
                        raise
                    value = fn(state.payload, ctx)
                except Exception as exc:
                    allow = self.budget is None or self.budget.check() is None
                    self._settle_failure(
                        state,
                        kind=kind,
                        error_type=type(exc).__name__,
                        message=str(exc),
                        tb=traceback.format_exc(),
                        allow_retry=allow,
                    )
                    continue
                if not self._gate_and_accept(state, value, verify, on_result):
                    self._settle_failure(
                        state,
                        kind="integrity",
                        error_type="IntegrityError",
                        message=state.records[-1][2],
                    )
        progress.update(force=True)

    # ------------------------------------------------------------------
    def _map_processes(self, fn, states, on_result, verify):
        tel = resolve_telemetry(self.telemetry)
        capture = tel.enabled
        progress = _BatchProgress(self.name, tel, states)
        ctx = multiprocessing.get_context("fork")
        cancel = ctx.Event()
        plan = active_plan()
        max_workers = min(self.workers, len(states))
        fresh = deque(states)
        retries: List[_TaskState] = []
        running: Dict[Any, _RunningAttempt] = {}  # conn -> attempt

        def launch(state: _TaskState) -> None:
            heartbeat = ctx.Value("d", 0.0, lock=False)
            parent_conn, child_conn = ctx.Pipe(duplex=False)
            process = ctx.Process(
                target=_task_entry,
                args=(
                    fn,
                    state.index,
                    state.attempt,
                    state.payload,
                    self._lease_seconds(),
                    capture,
                    cancel,
                    child_conn,
                    heartbeat,
                ),
            )
            process.start()
            child_conn.close()  # the parent only reads
            running[parent_conn] = _RunningAttempt(
                state, process, parent_conn, heartbeat, time.monotonic()
            )

        def reconstruct_injection(state: _TaskState, kind: str) -> None:
            # A killed or crashed worker never reports its audit entries;
            # the decision is a pure function of the task identity, so
            # the parent re-derives it for the plan's audit log.
            if plan is None:
                return
            site = f"worker.{kind}"
            fired = plan.would_fire_task(site, state.index, state.attempt)
            if fired is not None:
                plan.record_injected(site, state.index, fired)

        def settle(attempt: _RunningAttempt) -> None:
            state = attempt.state
            conn = attempt.conn
            message = None
            if conn.poll():
                try:
                    message = conn.recv()
                except (EOFError, OSError):
                    message = None
            conn.close()
            attempt.process.join(timeout=10.0)
            if attempt.process.is_alive():  # wedged post-send; do not leak it
                attempt.process.kill()
                attempt.process.join()
            if message is None:
                reconstruct_injection(state, "crash")
                self._settle_failure(
                    state,
                    kind="crash",
                    error_type="WorkerCrash",
                    message=(
                        "worker process died abruptly "
                        f"(exit code {attempt.process.exitcode})"
                    ),
                    allow_retry=not cancel.is_set(),
                )
                return
            value, failure, dump, fault_entries = message
            if dump is not None:
                state.records.append(("dump", dump))
            if fault_entries and plan is not None:
                for entry in fault_entries:
                    plan.injected.append(tuple(entry))
            if failure is not None:
                self._settle_failure(
                    state,
                    kind=failure.kind,
                    error_type=failure.error_type,
                    message=failure.message,
                    tb=failure.traceback,
                    allow_retry=not cancel.is_set(),
                )
                return
            if not self._gate_and_accept(state, value, verify, on_result):
                self._settle_failure(
                    state,
                    kind="integrity",
                    error_type="IntegrityError",
                    message=state.records[-1][2],
                    allow_retry=not cancel.is_set(),
                )

        def kill_hung(attempt: _RunningAttempt) -> None:
            attempt.process.kill()
            attempt.process.join()
            attempt.conn.close()
            reconstruct_injection(attempt.state, "hang")
            self._settle_failure(
                attempt.state,
                kind="hang",
                error_type="WorkerHang",
                message=(
                    f"no heartbeat for {self.task_timeout:g}s "
                    "(task killed by the pool watchdog)"
                ),
                allow_retry=not cancel.is_set(),
            )

        try:
            while fresh or retries or running:
                now = time.monotonic()
                # Launch: overdue retries first (they are older work),
                # then fresh tasks.
                while len(running) < max_workers:
                    next_state = None
                    for state in retries:
                        if state.ready_at <= now:
                            next_state = state
                            break
                    if next_state is not None:
                        retries.remove(next_state)
                    elif fresh:
                        next_state = fresh.popleft()
                        if self._stopped_before_start(next_state):
                            continue
                    else:
                        break
                    launch(next_state)

                if running:
                    ready = mp_connection.wait(
                        list(running.keys()), timeout=_POLL_SECONDS
                    )
                else:
                    time.sleep(_POLL_SECONDS)
                    ready = []
                for conn in ready:
                    attempt = running.pop(conn)
                    settled = attempt.state
                    settle(attempt)
                    if settled.outcome is None and settled not in retries:
                        retries.append(settled)

                now = time.monotonic()
                for conn, attempt in list(running.items()):
                    if not attempt.process.is_alive() and not conn.poll():
                        running.pop(conn)
                        settle(attempt)
                        if attempt.state.outcome is None:
                            retries.append(attempt.state)
                    elif (
                        self.task_timeout is not None
                        and now - attempt.last_activity() > self.task_timeout
                        and not conn.poll()
                    ):
                        running.pop(conn)
                        kill_hung(attempt)
                        if attempt.state.outcome is None:
                            retries.append(attempt.state)

                progress.update(running=len(running))
                if self.budget is not None and self.budget.check() is not None:
                    cancel.set()
            progress.update(force=True)
        finally:
            for attempt in running.values():
                attempt.process.kill()
                attempt.process.join()
                attempt.conn.close()

    def _lease_seconds(self) -> Optional[float]:
        """This dispatch's wall allowance under the shared budget."""
        if self.budget is None:
            return None
        remaining = self.budget.remaining_seconds()
        if math.isinf(remaining):
            return None
        return max(remaining, 1e-9)

    # ------------------------------------------------------------------
    # Deferred audit flush (task order => deterministic merged stream)
    # ------------------------------------------------------------------
    def _flush_records(self, tel: Telemetry, states: List[_TaskState]) -> None:
        for state in states:
            for record in state.records:
                tag = record[0]
                if tag == "dump":
                    if tel.enabled:
                        merge_worker_dump(tel, record[1])
                elif tag == "retry":
                    _, attempt, kind, delay, error = record
                    if tel.enabled:
                        tel.counter("pool.task_retries").inc()
                        if kind == "hang":
                            # Every watchdog kill counts, healed or not.
                            tel.counter("pool.task_hangs").inc()
                        tel.emit(
                            TaskRetryEvent(
                                pool=self.name,
                                task=state.index,
                                attempt=attempt,
                                max_attempts=(
                                    self.retry.max_attempts
                                    if self.retry is not None
                                    else attempt + 1
                                ),
                                failure_kind=kind,
                                delay_seconds=float(delay),
                                error=error,
                                worker=state.index,
                            )
                        )
                elif tag == "integrity":
                    _, attempt, reason = record
                    if tel.enabled:
                        tel.counter("pool.integrity_rejects").inc()
                        tel.emit(
                            IntegrityEvent(
                                pool=self.name,
                                task=state.index,
                                attempt=attempt,
                                reason=reason,
                                worker=state.index,
                            )
                        )
                elif tag == "quarantine":
                    failure = record[1]
                    if tel.enabled:
                        tel.counter("pool.task_quarantined").inc()
                        tel.emit(
                            QuarantineEvent(
                                pool=self.name,
                                task=state.index,
                                attempts=failure.attempts,
                                payload_digest=state.digest,
                                failure_kind=failure.kind,
                                error=f"{failure.error_type}: {failure.message}",
                                worker=state.index,
                            )
                        )
            failure = state.outcome.failure if state.outcome is not None else None
            if failure is not None and failure.kind in FINAL_FAILURE_KINDS:
                self._emit_failure(tel, failure)

    def _emit_failure(self, tel: Telemetry, failure: TaskFailure) -> None:
        """Fallback-ladder-shaped audit record for one failed task."""
        if not tel.enabled:
            return
        tel.counter("pool.task_failures").inc()
        if failure.kind == "hang":
            tel.counter("pool.task_hangs").inc()
        tel.emit(
            FallbackEvent(
                ladder=self.name,
                rung=f"worker-{failure.index}",
                try_index=max(0, failure.attempts - 1),
                status="timeout" if failure.kind == "hang" else "error",
                elapsed_seconds=0.0,
                error=f"{failure.error_type}: {failure.message}",
                worker=failure.index,
            )
        )


# ----------------------------------------------------------------------
# Worker-process side
# ----------------------------------------------------------------------
def _task_entry(
    fn,
    index,
    attempt,
    payload,
    lease_seconds,
    capture,
    cancel,
    conn,
    heartbeat,
):
    """Run one task attempt in its own forked process.

    The lease budget's ``on_check`` hook stamps the shared ``heartbeat``
    on every cooperative ``budget.check()``, so a solver that honours
    its budget is demonstrably alive; a wedged one goes silent and the
    parent watchdog kills this process.  Installs the worker telemetry
    as ambient for the task's duration so code resolving the ambient
    bundle cannot accidentally write to the parent's inherited sinks.

    The ``worker.retry`` / ``worker.hang`` / ``worker.crash`` fault
    sites fire here (the inherited fault plan crossed the fork); the
    audit entries they record ride back to the parent alongside the
    result, except when the injected fault destroys the process - then
    the parent reconstructs them (see ``_map_processes``).
    """
    # A worker never fans out again: nested pools on the same cores would
    # only add fork overhead, and REPRO_WORKERS is re-read per pool.
    os.environ[DEFAULT_WORKERS_ENV] = "1"
    heartbeat.value = time.monotonic()

    def stamp() -> None:
        heartbeat.value = time.monotonic()

    budget = Budget(wall_seconds=lease_seconds, on_check=stamp, _cancel=cancel)
    plan = active_plan()
    mark = len(plan.injected) if plan is not None else 0
    tel = Telemetry.enabled_default() if capture else DISABLED
    # Re-arm the sampling profiler from the environment: the parent's
    # sampler thread does not survive the fork, but REPRO_PROFILE does.
    prof = profiler_from_env() if capture else None
    if prof is not None:
        tel.profiler = prof
        prof.start()
    value = None
    failure = None
    try:
        maybe_fault_task("worker.retry", index, attempt)
        maybe_fault_task("worker.hang", index, attempt)
        try:
            maybe_fault_task("worker.crash", index, attempt)
        except BaseException:
            os._exit(_CRASH_EXIT_CODE)
        with use_telemetry(tel):
            value = fn(
                payload,
                WorkerContext(index, telemetry=tel, budget=budget, attempt=attempt),
            )
    except Exception as exc:
        failure = TaskFailure(
            index, type(exc).__name__, str(exc), traceback.format_exc()
        )
    if prof is not None:
        prof.stop()
    dump = capture_worker_dump(tel, index) if capture else None
    faults = list(plan.injected[mark:]) if plan is not None else []
    try:
        conn.send((value, failure, dump, faults))
    except Exception as exc:  # unpicklable result: report, don't vanish
        failure = TaskFailure(
            index,
            type(exc).__name__,
            f"task result is not transportable: {exc}",
            traceback.format_exc(),
        )
        conn.send((None, failure, dump, faults))
    conn.close()
