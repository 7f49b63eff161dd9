"""One try of one rung of a fallback ladder, observed.

Several places try the best solver and, on an expected failure, fall
back to something cruder.  Each such ladder is a plain loop whose body
returns the first rung that succeeds, with every try wrapped in a
:class:`RungTry`::

    for rung, kwargs in rungs:
        with RungTry("gap", rung, GapInfeasibleError, budget=budget):
            return solve_gap(cost, sizes, capacities, **kwargs)
    return None

Only the ladder's ``transient`` exception type is absorbed; programming
errors propagate.  Every try runs inside a span named after its rung, and every
failed or skipped try emits a :class:`~repro.obs.events.FallbackEvent`
and bumps the ``supervisor.fallbacks`` counter.

Used by:

* ``repro.solvers.qbp.iteration._solve_gap_graceful`` - inner GAP ladder,
* ``repro.solvers.qbp.bootstrap.bootstrap_initial_solution`` - bootstrap
  attempts,
* ``repro.pipeline.initial`` - the partitioner's bootstrap -> repair ->
  greedy ladder and the harness's bootstrap -> reference ladder.
"""

from __future__ import annotations

import time
from typing import Optional, Type

from repro.obs.events import FallbackEvent
from repro.obs.telemetry import Telemetry, resolve as resolve_telemetry
from repro.runtime.budget import Budget, BudgetExceededError


class RungTry:
    """Context manager for one try of one rung of a fallback ladder.

    On entry, a spent shared ``budget`` records ``skipped`` and raises
    :class:`BudgetExceededError` without running the body.  The body
    runs inside a span named ``rung`` (attributes ``ladder`` and
    ``try_index``).  A ``transient`` error from it is recorded as
    ``error`` and suppressed, with ``"Type: message"`` left in
    :attr:`error`, so the ladder's loop goes on to its next rung.  A
    :class:`BudgetExceededError` is recorded as ``skipped`` and
    propagates: a rung only ever sees the shared budget, so its stop
    ends the whole ladder.  Other errors propagate unrecorded.
    ``telemetry=None`` uses the ambient instance.
    """

    def __init__(
        self,
        ladder: str,
        rung: str,
        transient: Type[BaseException],
        *,
        budget: Optional[Budget] = None,
        telemetry: Optional[Telemetry] = None,
        try_index: int = 0,
    ) -> None:
        self.ladder = ladder
        self.rung = rung
        self.transient = transient
        self.budget = budget
        self.try_index = try_index
        self.telemetry = resolve_telemetry(telemetry)
        self.error: Optional[str] = None

    def __enter__(self) -> "RungTry":
        budget = self.budget
        if budget is not None and budget.check() is not None:
            self._record("skipped", 0.0, "budget exhausted")
            raise BudgetExceededError(budget.check() or "deadline")
        self._start = time.perf_counter()
        self._span = self.telemetry.span(
            self.rung, ladder=self.ladder, try_index=self.try_index
        )
        self._span.__enter__()
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        self._span.__exit__(exc_type, exc, tb)
        if exc_type is None:
            return False
        elapsed = time.perf_counter() - self._start
        if issubclass(exc_type, BudgetExceededError):
            self._record("skipped", elapsed, "budget exhausted")
            return False
        if not issubclass(exc_type, self.transient):
            return False
        self.error = f"{exc_type.__name__}: {exc}"
        self._record("error", elapsed, self.error)
        return True

    def _record(self, status: str, elapsed: float, error: str) -> None:
        tel = self.telemetry
        if tel.enabled:
            tel.counter("supervisor.fallbacks").inc()
            tel.emit(
                FallbackEvent(
                    ladder=self.ladder,
                    rung=self.rung,
                    try_index=self.try_index,
                    status=status,
                    elapsed_seconds=elapsed,
                    error=error,
                )
            )
