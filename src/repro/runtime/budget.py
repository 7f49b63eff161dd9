"""Cooperative runtime budgets: wall-clock deadlines, iteration caps, cancel.

The paper promises that "the user can have precise control over the
total runtime", but an iteration count alone is not a runtime bound: a
wedged inner GAP solve or a pathological workload runs open-loop.  A
:class:`Budget` turns the promise into a contract - every solver in the
repo (``solve_qbp``, GFM, GKL, annealing, the eval harness) accepts one
and checks it *cooperatively* at its natural step boundaries (Burkard
iterations, FM/KL moves, annealing proposals, GAP placements), always
returning its best incumbent with an explicit ``stop_reason`` instead of
losing work.

Stop-reason vocabulary (shared by every solver result):

``completed``
    The solver ran to its natural end (iteration count / convergence).
``deadline``
    The wall-clock budget expired; the best incumbent so far is returned.
``cancelled``
    :meth:`Budget.cancel` was called (from any thread); incumbent kept.
``stalled``
    The solver could make no further progress (e.g. every inner-GAP
    fallback rung failed); incumbent kept.

Budgets are shareable: one ``Budget`` handed to ``run_table`` bounds the
whole multi-circuit sweep, because every solver consults the same clock
and cancel flag.
"""

from __future__ import annotations

import math
import threading
import time
from typing import Callable, Optional

STOP_COMPLETED = "completed"
STOP_DEADLINE = "deadline"
STOP_CANCELLED = "cancelled"
STOP_STALLED = "stalled"

STOP_REASONS = (STOP_COMPLETED, STOP_DEADLINE, STOP_CANCELLED, STOP_STALLED)
"""Every value a solver ``stop_reason`` field may take."""


class BudgetExceededError(RuntimeError):
    """Raised by :meth:`Budget.raise_if_exceeded` deep inside a solve.

    Carries the ``reason`` (``"deadline"`` or ``"cancelled"``) so the
    outer solver can record an accurate ``stop_reason`` while unwinding
    to its last consistent state.
    """

    def __init__(self, reason: str, message: str = "") -> None:
        super().__init__(message or f"runtime budget exceeded ({reason})")
        self.reason = reason


class Budget:
    """A cooperative runtime budget.

    Parameters
    ----------
    wall_seconds:
        Wall-clock allowance from construction (or the last
        :meth:`restart`); ``None`` = unbounded.
    max_iterations:
        Per-solve cap on outer iterations, applied by solvers via
        :meth:`iteration_cap`; ``None`` = no extra cap.
    clock:
        Monotonic time source, injectable for deterministic tests.

    The cancel flag is a :class:`threading.Event`, so a supervising
    thread (or signal handler) can call :meth:`cancel` while a solve is
    running; the solver notices at its next checkpointable boundary.

    ``on_check`` is an optional zero-argument hook invoked at the top of
    every :meth:`check`.  Because solvers check cooperatively at their
    natural step boundaries, the hook doubles as a liveness signal: the
    worker pool stamps a shared heartbeat from it, so a task that keeps
    checking its budget is demonstrably alive and a wedged one goes
    silent (see ``docs/ROBUSTNESS.md``).  The hook must be cheap and
    must not raise.
    """

    __slots__ = (
        "wall_seconds",
        "max_iterations",
        "on_check",
        "_clock",
        "_start",
        "_cancel",
    )

    def __init__(
        self,
        *,
        wall_seconds: Optional[float] = None,
        max_iterations: Optional[int] = None,
        clock: Callable[[], float] = time.monotonic,
        on_check: Optional[Callable[[], None]] = None,
        _cancel: Optional[threading.Event] = None,
    ) -> None:
        if wall_seconds is not None and not wall_seconds > 0:
            raise ValueError(f"wall_seconds must be > 0, got {wall_seconds}")
        if max_iterations is not None and max_iterations < 1:
            raise ValueError(f"max_iterations must be >= 1, got {max_iterations}")
        self.wall_seconds = None if wall_seconds is None else float(wall_seconds)
        self.max_iterations = None if max_iterations is None else int(max_iterations)
        self.on_check = on_check
        self._clock = clock
        self._start = clock()
        self._cancel = _cancel if _cancel is not None else threading.Event()

    # ------------------------------------------------------------------
    def restart(self) -> "Budget":
        """Reset the wall clock (not the cancel flag); returns ``self``."""
        self._start = self._clock()
        return self

    def cancel(self) -> None:
        """Request cooperative cancellation (thread-safe, idempotent)."""
        self._cancel.set()

    @property
    def cancelled(self) -> bool:
        return self._cancel.is_set()

    def elapsed_seconds(self) -> float:
        return self._clock() - self._start

    def remaining_seconds(self) -> float:
        """Seconds left on the wall clock (``inf`` when unbounded)."""
        if self.wall_seconds is None:
            return math.inf
        return self.wall_seconds - self.elapsed_seconds()

    def expired(self) -> bool:
        return self.remaining_seconds() <= 0.0

    # ------------------------------------------------------------------
    def check(self) -> Optional[str]:
        """``None`` while within budget, else the stop reason.

        Cancellation takes precedence over the deadline (it is the more
        specific user intent).
        """
        if self.on_check is not None:
            self.on_check()
        if self.cancelled:
            return STOP_CANCELLED
        if self.expired():
            return STOP_DEADLINE
        return None

    def raise_if_exceeded(self) -> None:
        """Raise :class:`BudgetExceededError` when out of budget."""
        reason = self.check()
        if reason is not None:
            raise BudgetExceededError(reason)

    def iteration_cap(self, default: int) -> int:
        """Effective iteration count: ``min(default, max_iterations)``."""
        if self.max_iterations is None:
            return default
        return min(default, self.max_iterations)

    def scoped(self, wall_seconds: Optional[float]) -> "Budget":
        """A child budget bounded by both ``wall_seconds`` and this budget.

        The child shares this budget's cancel flag and clock, and its
        deadline is the tighter of the parent's remaining time and the
        requested allowance.  Used by the service for per-request
        deadlines.
        """
        remaining = self.remaining_seconds()
        if wall_seconds is not None:
            remaining = min(remaining, wall_seconds)
        return Budget(
            wall_seconds=None if math.isinf(remaining) else max(remaining, 1e-9),
            max_iterations=self.max_iterations,
            clock=self._clock,
            on_check=self.on_check,
            _cancel=self._cancel,
        )

    def __repr__(self) -> str:
        wall = "inf" if self.wall_seconds is None else f"{self.wall_seconds:g}s"
        return (
            f"Budget(wall={wall}, max_iterations={self.max_iterations}, "
            f"elapsed={self.elapsed_seconds():.3f}s, cancelled={self.cancelled})"
        )


def budget_stop(budget: Optional[Budget]) -> Optional[str]:
    """``budget.check()`` tolerant of ``budget=None`` (the common call)."""
    return None if budget is None else budget.check()
