"""Multi-start driver for the generalized Burkard solver.

Restart fan-out (serial or process-pool), best-restart selection, and
failure accounting.  The selection rule itself —
``(best_feasible_cost, penalized_cost)`` minimised with ties to the
lowest restart index — lives in :class:`repro.engine.fanout.BestFold`,
shared with the evaluation harness's table fan-out.
"""

from __future__ import annotations

import math
from typing import Callable, List, Optional, Tuple

import numpy as np

from repro.core.constraints import check_feasibility
from repro.core.objective import ObjectiveEvaluator
from repro.core.problem import PartitioningProblem
from repro.engine.fanout import BestFold, fold_outcomes
from repro.obs.events import FallbackEvent, IntegrityEvent, RestartEvent
from repro.obs.telemetry import Telemetry, resolve as resolve_telemetry
from repro.parallel.pool import WorkerPool
from repro.parallel.retry import IntegrityError, RetryPolicy
from repro.parallel.seeds import multistart_seeds
from repro.runtime.budget import Budget
from repro.runtime.faults import maybe_fault_task
from repro.solvers.qbp.iteration import BurkardResult, logger, solve_qbp
from repro.utils.rng import RandomSource


class MultistartError(RuntimeError):
    """Every restart of :func:`solve_qbp_multistart` failed.

    The message aggregates **all** failing restart indices (also exposed
    as :attr:`failed_indices`) and the per-restart detail as
    :attr:`failures`; the *first* restart's original exception rides
    along as ``__cause__`` when it is available in-process (serial
    path), on the process-pool path the worker-side description is
    embedded in the message instead.
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
    is what the chaos suite uses it to prove.  Sits on both the worker
    and serial restart paths, so the gate is drilled in both.
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

    ``ctx.budget`` is this restart's lease under the shared multistart
    budget; ``ctx.telemetry`` is the worker's own bundle (merged back by
    the pool), so iteration events and ``solver.iterations`` counts from
    parallel restarts land in the same combined stream a serial run
    writes.
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


_SERIAL_ONLY_KWARGS = ("checkpointer", "resume")
"""``solve_qbp`` kwargs that force the serial multistart path:
checkpoint/resume state is a single file owned by one writer."""


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
    consumed.  That makes the restarts embarrassingly parallel -
    ``workers > 1`` fans them out over a
    :class:`~repro.parallel.pool.WorkerPool` (``None`` reads
    ``REPRO_WORKERS``, default 1) and selects the **bit-identical** best
    assignment the serial loop would pick: same per-restart seeds, same
    ``(best_feasible_cost, penalized_cost)`` comparison, ties broken by
    lowest restart index in both paths.  Restarts needing in-process
    state (``checkpointer``, ``resume``) run serially regardless of
    ``workers``.

    A shared ``budget`` bounds the whole multi-start: serial restarts
    stop when it runs out (the first restart always runs - it bails out
    quickly on its own budget checks, so an already-expired budget still
    yields a capacity-feasible incumbent), and parallel restarts each
    hold a lease that one expiry/cancel signal revokes cooperatively.

    A restart that raises an unexpected exception is recorded (warning
    log + ``FallbackEvent``) and the remaining restarts still run; only
    argument errors (``ValueError``/``TypeError``) abort immediately.

    Self-healing knobs (see ``docs/ROBUSTNESS.md``): ``task_timeout``
    arms the pool's hang watchdog, ``retry`` its backoff/quarantine
    ladder (both default to their ``REPRO_TASK_TIMEOUT`` /
    ``REPRO_TASK_RETRIES`` environment resolutions), and
    ``verify=True`` (the default) re-derives every accepted restart's
    claimed costs and feasibility from its assignments - on the worker
    *and* serial paths - rejecting mismatches as ``integrity`` failures
    instead of folding them in.  Verification costs one
    :class:`ObjectiveEvaluator` build plus one cost evaluation per
    restart, noise next to the restarts themselves.

    Raises
    ------
    MultistartError
        When **every** restart failed.  The message aggregates all
        failing restart indices; the first failure rides along as
        ``__cause__`` rather than being masked by later ones.
    """
    if restarts < 1:
        raise ValueError(f"restarts must be >= 1, got {restarts}")
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
    verifier = multistart_verifier(problem) if verify else None
    parallel = (
        restarts > 1
        and pool.uses_processes
        and all(kwargs.get(key) is None for key in _SERIAL_ONLY_KWARGS)
        and (budget is None or budget.check() is None)
    )

    fold_state: BestFold[BurkardResult] = BestFold(
        key=lambda r: (r.best_feasible_cost, r.penalized_cost)
    )
    truncated: Optional[str] = None
    failures: list = []  # (index, message, cause_or_None)

    def fold(index: int, result: BurkardResult) -> None:
        fold_state.offer(index, result)
        best = fold_state.best
        if tel.enabled:
            tel.counter("solver.restarts").inc()
            tel.emit(
                RestartEvent(
                    solver="qbp",
                    index=index,
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

    span = tel.span(
        "qbp.multistart",
        restarts=restarts,
        iterations=iterations,
        workers=pool.workers if parallel else 1,
    )
    with span:
        if parallel:
            payloads = [
                (problem, iterations, seeds[index], kwargs)
                for index in range(restarts)
            ]
            outcomes = pool.map(_multistart_restart_task, payloads, verify=verifier)
            # Fold in restart order (fold_outcomes preserves submission
            # order): RestartEvents carry the same running best a serial
            # loop would report, and ties keep the lowest index.
            fold_outcomes(
                outcomes,
                on_value=fold,
                on_failure=lambda index, failure: failures.append(
                    (index, failure.describe(), None)
                ),
            )
        else:
            for index in range(restarts):
                if index > 0 and budget is not None:
                    truncated = budget.check()
                    if truncated is not None:
                        break
                try:
                    result = solve_qbp(
                        problem,
                        iterations=iterations,
                        seed=np.random.default_rng(seeds[index]),
                        budget=budget,
                        telemetry=telemetry,
                        **kwargs,
                    )
                except (ValueError, TypeError):
                    raise  # argument errors would fail every restart
                except Exception as exc:
                    failures.append(
                        (index, f"{type(exc).__name__}: {exc}", exc)
                    )
                    logger.warning(
                        "multistart restart %d/%d failed: %s: %s",
                        index,
                        restarts,
                        type(exc).__name__,
                        exc,
                    )
                    if tel.enabled:
                        tel.counter("pool.task_failures").inc()
                        tel.emit(
                            FallbackEvent(
                                ladder="qbp.multistart",
                                rung=f"worker-{index}",
                                try_index=0,
                                status="error",
                                elapsed_seconds=0.0,
                                error=f"{type(exc).__name__}: {exc}",
                            )
                        )
                    continue
                result = _maybe_corrupt_result(result, index, 0)
                if verifier is not None:
                    try:
                        verifier(result, None)
                    except IntegrityError as exc:
                        failures.append((index, f"IntegrityError: {exc}", exc))
                        logger.warning(
                            "multistart restart %d/%d rejected by the "
                            "integrity gate: %s",
                            index,
                            restarts,
                            exc,
                        )
                        if tel.enabled:
                            tel.counter("pool.integrity_rejects").inc()
                            tel.emit(
                                IntegrityEvent(
                                    pool="qbp.multistart",
                                    task=index,
                                    attempt=0,
                                    reason=str(exc),
                                )
                            )
                        continue
                fold(index, result)
        best, best_index = fold_state.result()
        if best is None:
            first_index, first_message, first_cause = failures[0]
            indices = ", ".join(str(i) for i, _, _ in failures)
            error = MultistartError(
                f"all {restarts} restart(s) failed (failing restarts: "
                f"{indices}); first failure at restart {first_index}: "
                f"{first_message}",
                failures=[(i, message) for i, message, _ in failures],
            )
            raise error from first_cause
        span.set("best_restart", best_index)
    if truncated is not None:
        best.stop_reason = truncated
    return best


__all__ = [
    "MultistartError",
    "multistart_verifier",
    "solve_qbp_multistart",
]
