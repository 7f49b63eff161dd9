"""The generalized Burkard iteration (paper Section 4.2, STEP 1-8).

This module owns :func:`solve_qbp` — the single-solve entry point — and
the inner-GAP fallback ladder it runs.  The formulation-side
machinery (penalty, omega, eta) lives in
:mod:`repro.solvers.qbp.formulation`; multistart and the zero-``B``
bootstrap in their sibling modules.
"""

from __future__ import annotations

import logging
import time
from dataclasses import dataclass, field
from typing import List, Optional, Sequence

import numpy as np

from repro.core.assignment import Assignment
from repro.core.constraints import timing_move_mask
from repro.engine.context import SolverContext
from repro.engine.outcome import SolveOutcome
from repro.obs.events import IterationEvent
from repro.obs.telemetry import Telemetry
from repro.runtime.budget import (
    STOP_COMPLETED,
    STOP_STALLED,
    Budget,
    BudgetExceededError,
)
from repro.runtime.checkpoint import QbpCheckpoint, QbpCheckpointer
from repro.runtime.faults import maybe_fault
from repro.runtime.supervisor import RungTry
from repro.solvers.gap import GapInfeasibleError, solve_gap
from repro.solvers.greedy import greedy_feasible_assignment
from repro.solvers.qbp.formulation import (
    DEFAULT_GAP_CRITERIA,
    ETA_MODES,
    IterationState,
    is_fully_feasible,
    resolve_penalty,
    validated_initial,
)
from repro.solvers.repair import feasible_merge, repair_feasibility
from repro.utils.rng import RandomSource

logger = logging.getLogger(__name__)


@dataclass
class BurkardResult(SolveOutcome):
    """Outcome of :func:`solve_qbp` (a :class:`~repro.engine.SolveOutcome`).

    ``assignment`` is the incumbent by *penalized* cost (the paper's
    STEP 7 criterion, which is what the theorems reason about);
    ``best_feasible_assignment`` is the best fully C1+C2-feasible iterate
    by *true* cost, which the evaluation harness reports.  With an
    adequate penalty the two coincide.
    """

    penalized_cost: float = 0.0
    timing_violations: int = 0
    iterations: int = 0
    penalty: float = 0.0
    eta_mode: str = "symmetric"
    best_feasible_assignment: Optional[Assignment] = None
    best_feasible_cost: float = float("inf")
    history: List[float] = field(default_factory=list)
    improvement_iterations: List[int] = field(default_factory=list)

    @property
    def solution(self) -> Optional[Assignment]:
        """The reportable assignment: the best *fully feasible* iterate.

        ``None`` when no feasible iterate was seen; callers fall back to
        their own start (which QBP never worsens).
        """
        return self.best_feasible_assignment


def check_solve_args(iterations: int, eta_mode: str) -> None:
    """Raise ``ValueError`` for :func:`solve_qbp` arguments no solve accepts.

    Shared with :func:`~repro.solvers.qbp.multistart.solve_qbp_multistart`,
    which checks before its fan-out so a bad argument raises the same
    error for every worker count.
    """
    if iterations < 1:
        raise ValueError(f"iterations must be >= 1, got {iterations}")
    if eta_mode not in ETA_MODES:
        raise ValueError(f"eta_mode must be one of {ETA_MODES}, got {eta_mode!r}")


def solve_qbp(
    problem,
    *,
    iterations: int = 100,
    penalty=None,
    eta_mode: str = "symmetric",
    initial: Optional[Assignment] = None,
    seed: RandomSource = None,
    gap_criteria: Sequence[str] = DEFAULT_GAP_CRITERIA,
    repair_iterates: bool = True,
    repair_moves: int = 3000,
    budget: Optional[Budget] = None,
    checkpointer: Optional[QbpCheckpointer] = None,
    resume: Optional[QbpCheckpoint] = None,
    telemetry: Optional[Telemetry] = None,
) -> BurkardResult:
    """Run the generalized Burkard heuristic on ``problem``.

    See :mod:`repro.solvers.burkard` for the full parameter
    documentation (this module keeps the implementation; the facade
    keeps the user-facing reference).
    """
    check_solve_args(iterations, eta_mode)

    ctx = SolverContext.create(
        problem, seed=seed, telemetry=telemetry, budget=budget,
        checkpointer=checkpointer,
    )
    tel = ctx.telemetry

    start_time = time.perf_counter()
    rng = ctx.rng
    evaluator = ctx.evaluator
    pen_value = resolve_penalty(problem, penalty)
    state = IterationState(problem, evaluator, pen_value, eta_mode)

    n, m = problem.num_components, problem.num_partitions
    sizes = problem.sizes()
    capacities = problem.capacities()

    best_feas_part: Optional[np.ndarray] = None
    shadow_part: Optional[np.ndarray] = None
    if resume is not None:
        if resume.num_components != n or resume.num_partitions != m:
            raise ValueError(
                f"checkpoint shape (N={resume.num_components}, M={resume.num_partitions}) "
                f"does not match problem (N={n}, M={m})"
            )
        part = resume.part.copy()
        h = resume.h.copy()
        best_part = resume.best_part.copy()
        best_pen = float(resume.best_pen)
        if resume.best_feas_part is not None:
            best_feas_part = resume.best_feas_part.copy()
        best_feas_cost = float(resume.best_feas_cost)
        if resume.shadow_part is not None:
            shadow_part = resume.shadow_part.copy()
        history: List[float] = list(resume.history)
        improvements: List[int] = list(resume.improvements)
        start_iteration = int(resume.iteration)
        if resume.rng_state is not None:
            rng.bit_generator.state = resume.rng_state
    else:
        if initial is None:
            current = greedy_feasible_assignment(problem, rng)
        else:
            current = validated_initial(problem, initial)
        part = current.part.copy()
        best_part = part.copy()
        best_pen = evaluator.penalized_cost(part, pen_value)
        best_feas_cost = np.inf
        if is_fully_feasible(problem, evaluator, part):
            best_feas_part = part.copy()
            best_feas_cost = evaluator.cost(part)
            shadow_part = part.copy()
        history = [best_pen]
        improvements = []
        h = np.zeros((n, m))
        start_iteration = 0

    def snapshot(iteration: int) -> QbpCheckpoint:
        """State as of the end of ``iteration`` (for bit-exact resume)."""
        return QbpCheckpoint(
            iteration=iteration,
            part=part.copy(),
            h=h.copy(),
            best_part=best_part.copy(),
            best_pen=float(best_pen),
            best_feas_part=None if best_feas_part is None else best_feas_part.copy(),
            best_feas_cost=float(best_feas_cost),
            shadow_part=None if shadow_part is None else shadow_part.copy(),
            history=list(history),
            improvements=list(improvements),
            rng_state=rng.bit_generator.state,
        )

    def safe_checkpoint(iteration: int) -> None:
        try:
            checkpointer.save(snapshot(iteration))
        except Exception:
            logger.warning(
                "solve_qbp: checkpoint write failed at iteration %d; continuing",
                iteration,
                exc_info=True,
            )

    effective_iterations = (
        iterations if budget is None else budget.iteration_cap(iterations)
    )
    cost_floor = evaluator.cost_floor()
    stop_reason = STOP_COMPLETED
    last_completed = start_iteration

    # Explicit enter/exit (rather than indenting the whole loop under a
    # ``with``) keeps this diff-friendly; the span closes in the
    # ``finally`` right before the result record is built.
    solve_span = tel.span(
        "qbp.solve",
        iterations=effective_iterations,
        eta_mode=eta_mode,
        components=n,
        partitions=m,
        resumed=resume is not None,
    )
    solve_span.__enter__()

    try:
        for k in range(start_iteration + 1, effective_iterations + 1):
            if best_feas_cost <= cost_floor:
                # Exact early exit: no cost falls below the floor, and a
                # penalized cost only swaps non-negative terms for
                # non-negative penalties, so no later candidate could pass
                # either incumbent's strict ``< best - 1e-12`` test below.
                # Under B = 0 this stops at the first feasible iterate.
                solve_span.set("floor_exit_iteration", last_completed)
                if checkpointer is not None:
                    safe_checkpoint(last_completed)
                break
            if budget is not None:
                reason = budget.check()
                if reason is not None:
                    stop_reason = reason
                    break
            maybe_fault("qbp.iteration")
            # Kernel timing instrumentation: per-iteration eta/GAP wall
            # time lands in qbp.iter.* histograms so metrics and
            # --profile flamegraphs cross-reference the same hot spots.
            timed = tel.enabled
            t0 = time.perf_counter() if timed else 0.0
            eta = state.eta(part)  # STEP 3 (sparse, Q never materialised)
            if timed:
                tel.histogram("qbp.iter.eta_seconds").observe(
                    time.perf_counter() - t0
                )
            xi = float(state.omega[np.arange(n), part].sum())
            gap_timing = state.timing_index if problem.has_timing else None
            trust_mask = None
            if problem.has_timing and shadow_part is not None:
                # Trust region: every single move must stay C2-feasible
                # against the feasible shadow.  Iterates then sit near the
                # feasible region while clusters migrate over iterations.
                trust_mask = timing_move_mask(
                    problem.timing, state.D, shadow_part, m
                ).T
                idx = np.arange(n)
                trust_mask[shadow_part, idx] = True  # anchor always allowed
            try:
                t0 = time.perf_counter() if timed else 0.0
                step4 = _solve_gap_graceful(
                    eta.T, sizes, capacities, gap_criteria, gap_timing, trust_mask,
                    budget, tel,
                )  # STEP 4
                if timed:
                    tel.histogram("qbp.iter.gap_seconds").observe(
                        time.perf_counter() - t0
                    )
                if step4 is None:
                    # S itself is (heuristically) empty for these costs; keep
                    # the incumbent and stop - more iterations cannot recover.
                    stop_reason = STOP_STALLED
                    break
                z = step4.cost
                # STEP 5 - computed into a fresh array so a budget abort in
                # STEP 6 leaves the end-of-previous-iteration state intact
                # (which is what checkpoints snapshot).
                h_next = h + eta / max(1.0, abs(z - xi))
                t0 = time.perf_counter() if timed else 0.0
                nxt = _solve_gap_graceful(
                    h_next.T, sizes, capacities, gap_criteria, gap_timing, trust_mask,
                    budget, tel,
                )  # STEP 6
                if timed:
                    tel.histogram("qbp.iter.gap_seconds").observe(
                        time.perf_counter() - t0
                    )
            except BudgetExceededError as exc:
                stop_reason = exc.reason
                break
            h = h_next
            if nxt is None:
                stop_reason = STOP_STALLED
                break
            part = nxt.assignment
            candidates = [part, step4.assignment]
            if (
                repair_iterates
                and problem.has_timing
                and evaluator.cost(part) < best_feas_cost
                and evaluator.timing_violation_count(part) > 0
            ):
                # A raw iterate cheaper than the feasible incumbent is worth
                # a real (bounded) min-conflicts repair attempt.  Under
                # B = 0 every infeasible iterate qualifies until the first
                # feasible one (ROADMAP direction 1).
                strong = repair_feasibility(
                    problem,
                    Assignment(part, m),
                    max_moves=repair_moves,
                    seed=rng,
                    evaluator=evaluator,
                    index=state.timing_index,
                )
                if strong is not None:
                    candidates.append(strong.part)
            if repair_iterates and problem.has_timing and shadow_part is not None:
                # Project the iterate onto the feasible region by walking a
                # feasible "shadow" of the trajectory toward it, keeping only
                # violation-free moves (see repair.feasible_merge).  The
                # shadow drifts with the iterates rather than sticking to the
                # incumbent, so the projection explores.
                merged = feasible_merge(
                    problem,
                    Assignment(shadow_part, m),
                    Assignment(part, m),
                    evaluator=evaluator,
                    index=state.timing_index,
                )
                shadow_part = merged.part
                candidates.append(shadow_part)
            pen = evaluator.penalized_cost(part, pen_value)  # STEP 7
            history.append(pen)

            # Enhancement: Burkard's STEP 4 keeps only the bound z and throws
            # the argmin away; evaluating it as a second candidate per
            # iteration is free and can only improve the incumbent.
            for candidate in candidates:
                cand_pen = pen if candidate is part else evaluator.penalized_cost(
                    candidate, pen_value
                )
                if cand_pen < best_pen - 1e-12:
                    best_pen = cand_pen
                    best_part = candidate.copy()
                    improvements.append(k)
                if is_fully_feasible(problem, evaluator, candidate):
                    true_cost = evaluator.cost(candidate)
                    if true_cost < best_feas_cost - 1e-12:
                        best_feas_cost = true_cost
                        best_feas_part = candidate.copy()
            if shadow_part is None and best_feas_part is not None:
                # First feasible iterate found mid-run: seed the shadow.
                shadow_part = best_feas_part.copy()
            last_completed = k
            if tel.enabled:
                tel.counter("solver.iterations").inc()
                tel.emit(
                    IterationEvent(
                        solver="qbp",
                        iteration=k,
                        cost=float(pen),
                        best_cost=float(best_pen),
                        best_feasible_cost=(
                            float(best_feas_cost)
                            if np.isfinite(best_feas_cost)
                            else None
                        ),
                        improved=bool(improvements and improvements[-1] == k),
                    )
                )
            if checkpointer is not None and (
                checkpointer.due(k) or k == effective_iterations
            ):
                safe_checkpoint(k)
    finally:
        state.kernel.stats.publish(tel)
        solve_span.set("stop_reason", stop_reason)
        solve_span.__exit__(None, None, None)

    if (
        checkpointer is not None
        and stop_reason not in (STOP_COMPLETED, STOP_STALLED)
        and last_completed > start_iteration
    ):
        # Budget-forced stop: persist the last consistent state so the
        # run can resume exactly where it left off.  (Stalled runs keep
        # their last periodic snapshot - the in-flight iteration mutated
        # ``h`` past the point the snapshot closure would capture.)
        safe_checkpoint(last_completed)

    best_assignment = Assignment(best_part, m)
    elapsed = time.perf_counter() - start_time
    return BurkardResult(
        assignment=best_assignment,
        cost=evaluator.cost(best_part),
        penalized_cost=best_pen,
        feasible=is_fully_feasible(problem, evaluator, best_part),
        timing_violations=evaluator.timing_violation_count(best_part),
        iterations=len(history) - 1,
        penalty=pen_value,
        eta_mode=eta_mode,
        elapsed_seconds=elapsed,
        best_feasible_assignment=(
            None if best_feas_part is None else Assignment(best_feas_part, m)
        ),
        best_feasible_cost=float(best_feas_cost),
        history=history,
        improvement_iterations=improvements,
        stop_reason=stop_reason,
    )


def _solve_gap_graceful(
    cost, sizes, capacities, criteria, timing, trust_mask=None, budget=None,
    telemetry=None,
):
    """One inner GAP solve down a fallback ladder of rungs.

    Rungs, in order: (1) the trust-region mask (single moves feasible
    against the shadow anchor - constructible whenever the shadow fits
    capacity-wise, and its iterates carry few mutual violations),
    (2) the dynamically timing-aware construction (the paper's
    generalized inner solver - exact C2 when it completes, but a greedy
    placement order can wedge on densely constrained instances),
    (3) the plain capacity-only GAP (iterates may violate C2; the eta
    penalties and the feasible-merge projection absorb that).  Returns
    ``None`` only when even the plain GAP finds no capacity-feasible
    assignment.  :class:`BudgetExceededError` from an exhausted shared
    budget propagates so the caller stops with its incumbent.
    """
    rungs = []
    if trust_mask is not None:
        rungs.append(("gap.trust", {"allowed_mask": trust_mask}))
    if timing is not None:
        rungs.append(("gap.timing", {"timing": timing}))
    rungs.append(("gap.plain", {}))
    for rung, kwargs in rungs:
        with RungTry(
            "gap", rung, GapInfeasibleError, budget=budget, telemetry=telemetry
        ):
            maybe_fault(rung)
            return solve_gap(
                cost, sizes, capacities, criteria=criteria, budget=budget, **kwargs
            )
    return None


__all__ = ["BurkardResult", "check_solve_args", "solve_qbp"]
