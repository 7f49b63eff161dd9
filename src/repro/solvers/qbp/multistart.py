"""Multi-start driver for the generalized Burkard solver.

Restart fan-out over a :class:`~repro.parallel.pool.WorkerPool`,
best-restart selection (``(best_feasible_cost, penalized_cost)``
minimised, ties to the lowest restart index), and failure accounting.
"""

from __future__ import annotations

import math
from typing import Callable, List, Optional, Tuple

import numpy as np

from repro.core.constraints import check_feasibility
from repro.core.objective import ObjectiveEvaluator
from repro.core.problem import PartitioningProblem
from repro.obs.events import RestartEvent
from repro.obs.telemetry import Telemetry, resolve as resolve_telemetry
from repro.parallel.pool import WorkerPool
from repro.parallel.retry import IntegrityError, RetryPolicy
from repro.parallel.seeds import multistart_seeds
from repro.runtime.budget import Budget
from repro.runtime.faults import maybe_fault_task
from repro.solvers.qbp.iteration import (
    BurkardResult,
    check_solve_args,
    logger,
    solve_qbp,
)
from repro.utils.rng import RandomSource


class MultistartError(RuntimeError):
    """No restart of :func:`solve_qbp_multistart` succeeded.

    The message aggregates **all** failing restart indices (also exposed
    as :attr:`failed_indices`) and carries the *first* failure's
    description and traceback text, for every worker count; the
    per-restart detail is :attr:`failures`.
    """

    def __init__(self, message: str, failures: Optional[List[Tuple[int, str]]] = None):
        super().__init__(message)
        self.failures: List[Tuple[int, str]] = list(failures or [])
        """``(restart_index, description)`` for every failed restart."""

    @property
    def failed_indices(self) -> List[int]:
        return [index for index, _ in self.failures]


def _maybe_corrupt_result(
    result: BurkardResult, task: int, attempt: int
) -> BurkardResult:
    """``worker.corrupt`` fault site: silently tamper with a result.

    When the (task, attempt)-scoped rule fires, the result claims better
    costs than its assignments actually earn - exactly the class of
    silent wrongness only the parent's integrity gate can catch, which
    is what the chaos suite uses it to prove.  Sits in the restart task,
    which both of the pool's execution paths run, so the gate is drilled
    in both.
    """
    try:
        maybe_fault_task("worker.corrupt", task, attempt)
    except Exception:
        result.penalized_cost = float(result.penalized_cost) * 0.5
        result.cost = float(result.cost) * 0.5
        if math.isfinite(result.best_feasible_cost):
            result.best_feasible_cost = float(result.best_feasible_cost) * 0.5
    return result


def multistart_verifier(
    problem: PartitioningProblem,
) -> Callable[[BurkardResult, object], None]:
    """Integrity gate for restart results: recompute before accepting.

    Returns a ``verify(result, payload)`` callback for
    :meth:`~repro.parallel.pool.WorkerPool.map` that re-derives every
    cost a :class:`BurkardResult` claims from its assignments with a
    fresh :class:`ObjectiveEvaluator`, and re-checks C1+C2 feasibility
    of the claimed feasible iterate.  Any mismatch raises
    :class:`~repro.parallel.retry.IntegrityError`, so a corrupted or
    miscomputed worker result is rejected (and retried) instead of
    silently entering the best-restart fold.
    """
    evaluator = ObjectiveEvaluator(problem)

    def _close(a: float, b: float) -> bool:
        return math.isclose(a, b, rel_tol=1e-9, abs_tol=1e-6)

    def verify(result: BurkardResult, payload) -> None:
        if result is None:
            raise IntegrityError("restart returned no result")
        true_cost = evaluator.cost(result.assignment)
        if not _close(true_cost, result.cost):
            raise IntegrityError(
                f"claimed cost {result.cost!r} != recomputed {true_cost!r}"
            )
        penalized = evaluator.penalized_cost(result.assignment, result.penalty)
        if not _close(penalized, result.penalized_cost):
            raise IntegrityError(
                f"claimed penalized cost {result.penalized_cost!r} != "
                f"recomputed {penalized!r}"
            )
        if result.best_feasible_assignment is not None:
            report = check_feasibility(problem, result.best_feasible_assignment)
            if not report.feasible:
                raise IntegrityError(
                    f"claimed feasible assignment is not: {report.summary()}"
                )
            feas_cost = evaluator.cost(result.best_feasible_assignment)
            if not _close(feas_cost, result.best_feasible_cost):
                raise IntegrityError(
                    f"claimed feasible cost {result.best_feasible_cost!r} != "
                    f"recomputed {feas_cost!r}"
                )

    return verify


def _multistart_restart_task(payload, ctx):
    """Run one multistart restart (module-level so it crosses fork cleanly).

    In a worker process ``ctx.budget`` is this restart's lease under the
    shared multistart budget and ``ctx.telemetry`` the worker's own
    bundle (merged back by the pool), so iteration events and
    ``solver.iterations`` counts land in the same combined stream an
    in-process run, which gets the caller's budget and bundle, writes.
    """
    problem, iterations, seed_seq, kwargs = payload
    result = solve_qbp(
        problem,
        iterations=iterations,
        seed=np.random.default_rng(seed_seq),
        budget=ctx.budget,
        telemetry=ctx.telemetry,
        **kwargs,
    )
    return _maybe_corrupt_result(result, ctx.worker_id, ctx.attempt)


def solve_qbp_multistart(
    problem: PartitioningProblem,
    *,
    restarts: int = 3,
    iterations: int = 100,
    seed: RandomSource = None,
    budget: Optional[Budget] = None,
    telemetry: Optional[Telemetry] = None,
    workers: Optional[int] = None,
    task_timeout: Optional[float] = None,
    retry: Optional[RetryPolicy] = None,
    verify: bool = True,
    **kwargs,
) -> BurkardResult:
    """Run :func:`solve_qbp` from several independent starts; keep the best.

    The paper observes that "QBP maintained the same kind of good
    results from any arbitrary initial solution" and that more CPU
    buys better results; multi-start is the natural way to spend a
    larger budget.  Each restart builds its own randomized greedy
    initial solution; the result with the best feasible cost (falling
    back to best penalized cost) is returned.

    Restarts draw from per-restart seed streams
    (:func:`repro.parallel.seeds.multistart_seeds`): restart ``k``'s RNG
    depends only on ``(seed, k)``, never on what earlier restarts
    consumed.  Every restart goes through one
    :meth:`~repro.parallel.pool.WorkerPool.map` call (``workers=None``
    reads ``REPRO_WORKERS``, default 1, which runs them in-process), and
    the results are folded in restart order: same per-restart seeds,
    same ``(best_feasible_cost, penalized_cost)`` comparison, ties to
    the lowest restart index, so the best assignment is bit-identical
    for every worker count.  ``checkpointer`` and ``resume`` name one
    solve's state and need ``restarts == 1``.

    A shared ``budget`` bounds the whole multi-start.  Restart 0 always
    runs (it bails out quickly on its own budget checks, so an
    already-expired budget still yields a capacity-feasible incumbent);
    a later restart the pool does not start because the budget stopped
    is not a failure, and sets the result's ``stop_reason`` to the
    budget's reason.  Parallel restarts each hold a lease that one
    expiry/cancel signal revokes cooperatively.

    A restart that fails is logged as a warning and recorded by the pool
    (``FallbackEvent``); the remaining restarts still count.  Argument
    errors are checked before the fan-out and raise ``ValueError``.

    Self-healing knobs (see ``docs/ROBUSTNESS.md``): ``task_timeout``
    arms the pool's hang watchdog, ``retry`` its backoff/quarantine
    ladder (both default to their ``REPRO_TASK_TIMEOUT`` /
    ``REPRO_TASK_RETRIES`` environment resolutions), and
    ``verify=True`` (the default) re-derives every restart's claimed
    costs and feasibility from its assignments, rejecting mismatches as
    ``integrity`` failures instead of folding them in.  Verification
    costs one :class:`ObjectiveEvaluator` build plus one cost evaluation
    per restart, noise next to the restarts themselves.

    Raises
    ------
    MultistartError
        When no restart succeeded.  The message aggregates all failing
        restart indices and carries the first failure's description and
        traceback.
    """
    if restarts < 1:
        raise ValueError(f"restarts must be >= 1, got {restarts}")
    if restarts > 1 and (
        kwargs.get("checkpointer") is not None or kwargs.get("resume") is not None
    ):
        # A checkpoint records ONE solve's state; restarts would fight
        # over the file.
        raise ValueError("checkpointing requires restarts == 1")
    check_solve_args(iterations, kwargs.get("eta_mode", "symmetric"))
    tel = resolve_telemetry(telemetry)
    seeds = multistart_seeds(seed, restarts)
    pool = WorkerPool(
        workers=workers,
        name="qbp.multistart",
        budget=budget,
        telemetry=tel,
        task_timeout=task_timeout,
        retry=retry,
    )
    payloads = [
        (problem, iterations, seeds[index], kwargs) for index in range(restarts)
    ]
    span = tel.span(
        "qbp.multistart",
        restarts=restarts,
        iterations=iterations,
        workers=pool.workers,
    )
    with span:
        outcomes = pool.map(
            _multistart_restart_task,
            payloads,
            verify=multistart_verifier(problem) if verify else None,
        )
        # Fold in restart order: RestartEvents carry the running best and
        # a strict ``<`` keeps the lowest index on ties.
        best: Optional[BurkardResult] = None
        best_key = best_index = None
        truncated: Optional[str] = None
        failures = []
        for outcome in outcomes:
            failure = outcome.failure
            if failure is not None and failure.kind == "budget":
                truncated = budget.check()  # a verdict, not a failure
                continue
            if failure is not None:
                failures.append(failure)
                logger.warning(
                    "multistart restart %d/%d failed: %s: %s",
                    outcome.index,
                    restarts,
                    failure.error_type,
                    failure.message,
                )
                continue
            result = outcome.value
            key = (result.best_feasible_cost, result.penalized_cost)
            if best is None or key < best_key:
                best, best_key, best_index = result, key, outcome.index
            if tel.enabled:
                tel.counter("solver.restarts").inc()
                tel.emit(
                    RestartEvent(
                        solver="qbp",
                        index=outcome.index,
                        restarts=restarts,
                        best_cost=float(best.penalized_cost),
                        best_feasible_cost=(
                            float(best.best_feasible_cost)
                            if np.isfinite(best.best_feasible_cost)
                            else None
                        ),
                        stop_reason=result.stop_reason,
                    )
                )
        if best is None:
            described = [(f.index, f"{f.error_type}: {f.message}") for f in failures]
            first_index, first_error = described[0]
            raise MultistartError(
                f"no restart of {restarts} succeeded (failing restarts: "
                f"{', '.join(str(index) for index, _ in described)}); first "
                f"failure at restart {first_index}: {first_error}"
                + (f"\n{failures[0].traceback}" if failures[0].traceback else ""),
                failures=described,
            )
        span.set("best_restart", best_index)
    if truncated is not None:
        best.stop_reason = truncated
    return best


__all__ = [
    "MultistartError",
    "multistart_verifier",
    "solve_qbp_multistart",
]
