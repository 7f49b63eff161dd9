"""Supervised fallback ladders: retries, budget stops, audit trail.

Several places in the repo used to hand-roll the same pattern - try the
best solver, catch its failure, fall back to something cruder, repeat::

    try:    trust-region GAP
    except: try:    timing-aware GAP
            except: plain GAP

:class:`SolverSupervisor` makes that policy explicit and auditable: a
ladder of :class:`Attempt` rungs is run top to bottom, each rung with
its own retry count, under one shared budget; every try is recorded in
an :class:`AttemptRecord` so a degraded result can explain *how* it
degraded.  Only *transient* exception types are absorbed - programming
errors propagate immediately.

Used by:

* ``repro.solvers.qbp.iteration._solve_gap_graceful`` - inner GAP ladder,
* ``repro.solvers.burkard.bootstrap_initial_solution`` - bootstrap
  attempts,
* ``repro.eval.harness.shared_initial_solution`` - bootstrap with the
  reference assignment as the last resort,
* ``repro.tools.partition`` - bootstrap -> repair -> greedy ladder.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Any, Callable, List, Optional, Sequence, Tuple, Type

from repro.obs.events import FallbackEvent
from repro.obs.telemetry import Telemetry, resolve as resolve_telemetry
from repro.runtime.budget import Budget, BudgetExceededError


@dataclass
class Attempt:
    """One rung of a fallback ladder.

    ``run`` is called with a single argument: the supervisor's shared
    :class:`Budget` (or ``None`` when unconstrained).  Cooperative
    callables honor it; others simply ignore the argument.
    """

    name: str
    run: Callable[[Optional[Budget]], Any]
    retries: int = 0


@dataclass(frozen=True)
class AttemptRecord:
    """Audit entry for one try of one rung."""

    name: str
    try_index: int
    status: str  # "ok" | "error" | "skipped"
    elapsed_seconds: float
    error: Optional[str] = None


@dataclass(frozen=True)
class SupervisorOutcome:
    """A successful supervised run: the value plus how it was obtained."""

    value: Any
    attempt: str
    records: Tuple[AttemptRecord, ...]

    @property
    def degraded(self) -> bool:
        """True when any earlier rung or try failed before success."""
        return any(r.status != "ok" for r in self.records)


class SupervisorExhaustedError(RuntimeError):
    """Every rung of the ladder failed; ``records`` holds the audit."""

    def __init__(self, records: Sequence[AttemptRecord]) -> None:
        trail = "; ".join(
            f"{r.name}#{r.try_index}: {r.status}" + (f" ({r.error})" if r.error else "")
            for r in records
        )
        super().__init__(f"all supervised attempts failed [{trail}]")
        self.records: Tuple[AttemptRecord, ...] = tuple(records)


class SolverSupervisor:
    """Run a fallback ladder under a shared budget with per-rung retries.

    Parameters
    ----------
    attempts:
        The rungs, best-first.
    transient:
        Exception types absorbed as "this rung failed, keep going".
        Anything else (including :class:`BudgetExceededError` from the
        *shared* budget) propagates.
    budget:
        Optional shared budget.  When it runs out, remaining rungs are
        recorded as ``skipped`` and :class:`BudgetExceededError` is
        raised - callers keep their incumbent.
    name:
        Ladder label carried by emitted
        :class:`~repro.obs.events.FallbackEvent` entries (e.g. ``"gap"``).
    telemetry:
        Optional :class:`~repro.obs.telemetry.Telemetry`; ``None`` uses
        the ambient instance.  Every rung try runs inside a span named
        after the rung, and every non-ok try emits a ``FallbackEvent``
        and bumps the ``supervisor.fallbacks`` counter.
    """

    def __init__(
        self,
        attempts: Sequence[Attempt],
        *,
        transient: Tuple[Type[BaseException], ...] = (RuntimeError,),
        budget: Optional[Budget] = None,
        name: str = "supervisor",
        telemetry: Optional[Telemetry] = None,
    ) -> None:
        if not attempts:
            raise ValueError("supervisor needs at least one attempt")
        self.attempts = list(attempts)
        self.transient = transient
        self.budget = budget
        self.name = name
        self.telemetry = telemetry

    # ------------------------------------------------------------------
    def run(self) -> SupervisorOutcome:
        records: List[AttemptRecord] = []
        for attempt in self.attempts:
            outcome = self._run_attempt(attempt, records)
            if outcome is not None:
                return SupervisorOutcome(
                    value=outcome[0], attempt=attempt.name, records=tuple(records)
                )
        raise SupervisorExhaustedError(records)

    # ------------------------------------------------------------------
    def _record_failure(
        self,
        records: List[AttemptRecord],
        rung: str,
        try_index: int,
        status: str,
        elapsed: float,
        error: Optional[str],
    ) -> None:
        """Append the audit record and mirror it onto the event stream."""
        records.append(AttemptRecord(rung, try_index, status, elapsed, error))
        tel = resolve_telemetry(self.telemetry)
        if tel.enabled:
            tel.counter("supervisor.fallbacks").inc()
            tel.emit(
                FallbackEvent(
                    ladder=self.name,
                    rung=rung,
                    try_index=try_index,
                    status=status,
                    elapsed_seconds=elapsed,
                    error=error,
                )
            )

    def _run_attempt(
        self, attempt: Attempt, records: List[AttemptRecord]
    ) -> Optional[Tuple[Any]]:
        """Try one rung (with retries); ``(value,)`` on success."""
        tel = resolve_telemetry(self.telemetry)
        for try_index in range(attempt.retries + 1):
            if self.budget is not None and self.budget.check() is not None:
                self._record_failure(
                    records, attempt.name, try_index, "skipped", 0.0, "budget exhausted"
                )
                raise BudgetExceededError(self.budget.check() or "deadline")
            start = time.perf_counter()
            try:
                with tel.span(attempt.name, ladder=self.name, try_index=try_index):
                    value = attempt.run(self.budget)
            except BudgetExceededError:
                # A rung only ever sees the shared budget, so its stop
                # ends the whole ladder.
                self._record_failure(
                    records, attempt.name, try_index, "skipped",
                    time.perf_counter() - start, "budget exhausted",
                )
                raise
            except self.transient as exc:
                elapsed = time.perf_counter() - start
                self._record_failure(
                    records, attempt.name, try_index, "error", elapsed,
                    f"{type(exc).__name__}: {exc}",
                )
                continue
            records.append(
                AttemptRecord(attempt.name, try_index, "ok", time.perf_counter() - start)
            )
            return (value,)
        return None
