"""Simulated-annealing baseline.

A third interchange-family comparison point in the spirit of the era's
placement/partitioning tools (TimberWolf et al.): single-component
moves and pairwise swaps with Metropolis acceptance and geometric
cooling.  Like GFM/GKL, only violation-free moves are proposed, so a
feasible start yields a feasible result; unlike them it escapes local
minima stochastically instead of via pass/rollback structure.

Not part of the paper's evaluation - included as an extension baseline
for the benchmark suite (the paper's Table II/III protocol applies
unchanged).
"""

from __future__ import annotations

import math
import time
from typing import Optional

import numpy as np

from repro.engine.delta import DeltaCache
from repro.baselines.result import InterchangeResult
from repro.core.assignment import Assignment
from repro.core.constraints import check_feasibility
from repro.core.problem import PartitioningProblem
from repro.obs.events import IterationEvent
from repro.obs.telemetry import Telemetry, resolve as resolve_telemetry
from repro.runtime.budget import STOP_COMPLETED, Budget
from repro.utils.rng import RandomSource, ensure_rng


def annealing_partition(
    problem: PartitioningProblem,
    initial: Assignment,
    *,
    moves_per_temperature: Optional[int] = None,
    initial_acceptance: float = 0.5,
    cooling: float = 0.92,
    temperature_steps: int = 40,
    swap_probability: float = 0.4,
    seed: RandomSource = None,
    budget: Optional[Budget] = None,
    telemetry: Optional[Telemetry] = None,
) -> InterchangeResult:
    """Anneal from a feasible ``initial`` assignment.

    Parameters
    ----------
    moves_per_temperature:
        Proposals per temperature step (default ``8 * N``).
    initial_acceptance:
        The starting temperature is calibrated so a median-magnitude
        uphill move is accepted with this probability.
    cooling:
        Geometric cooling factor per temperature step.
    swap_probability:
        Fraction of proposals that are pairwise swaps (the rest are
        single moves).
    budget:
        Optional :class:`repro.runtime.budget.Budget`, checked per
        sweep and every few proposals; the best solution seen so far is
        returned with ``stop_reason`` recording any early stop.
    telemetry:
        Optional :class:`~repro.obs.telemetry.Telemetry`; ``None`` uses
        the ambient instance.  Each temperature step emits an
        ``IterationEvent`` (``solver="annealing"``) and bumps
        ``solver.passes``.
    """
    report = check_feasibility(problem, initial)
    if not report.feasible:
        raise ValueError(
            f"annealing needs a feasible initial solution: {report.summary()}"
        )
    if not 0 < cooling < 1:
        raise ValueError(f"cooling must be in (0, 1), got {cooling}")

    tel = resolve_telemetry(telemetry)
    start_time = time.perf_counter()
    rng = ensure_rng(seed)
    engine = DeltaCache(problem, initial)
    n, m = engine.n, engine.m
    proposals = moves_per_temperature or 8 * n
    initial_cost = engine.current_cost()

    # Temperature calibration: sample uphill deltas of random feasible
    # moves, target the requested initial acceptance for their median.
    uphill = []
    mask = engine.feasible_move_mask()
    candidates = np.argwhere(mask)
    if candidates.size:
        for _ in range(min(200, candidates.shape[0])):
            j, i = candidates[int(rng.integers(0, candidates.shape[0]))]
            delta = engine.delta[j, i]
            if delta > 0:
                uphill.append(float(delta))
    median_uphill = float(np.median(uphill)) if uphill else 1.0
    temperature = max(median_uphill, 1e-9) / max(
        -math.log(max(initial_acceptance, 1e-9)), 1e-9
    )

    best_part = engine.part.copy()
    best_cost = initial_cost
    current_cost = initial_cost
    applied = 0
    steps_run = 0
    stop_reason = STOP_COMPLETED

    with tel.span(
        "annealing.solve", components=n, temperature_steps=temperature_steps
    ) as span:
        for _ in range(temperature_steps):
            if budget is not None:
                reason = budget.check()
                if reason is not None:
                    stop_reason = reason
                    break
            steps_run += 1
            step_best = best_cost
            for proposal_index in range(proposals):
                if (
                    budget is not None
                    and proposal_index % 32 == 0
                    and budget.check() is not None
                ):
                    break
                delta_applied = None
                if rng.random() < swap_probability and n >= 2:
                    j1, j2 = rng.choice(n, size=2, replace=False)
                    j1, j2 = int(j1), int(j2)
                    if engine.part[j1] == engine.part[j2]:
                        continue
                    if not engine.exact_swap_feasible(j1, j2):
                        continue
                    delta = float(engine.evaluator.swap_delta(engine.part, j1, j2))
                    if delta <= 0 or rng.random() < math.exp(-delta / temperature):
                        engine.apply_swap(j1, j2)
                        delta_applied = delta
                else:
                    j = int(rng.integers(0, n))
                    i = int(rng.integers(0, m))
                    if i == engine.part[j]:
                        continue
                    # O(1) feasibility: loads for capacity, the maintained
                    # timing_block for C2.
                    if engine.loads[i] + engine.sizes[j] > engine.capacities[i] + 1e-9:
                        continue
                    if engine.timing_block[j, i]:
                        continue
                    delta = float(engine.delta[j, i])
                    if delta <= 0 or rng.random() < math.exp(-delta / temperature):
                        engine.apply_move(j, i)
                        delta_applied = delta
                if delta_applied is not None:
                    applied += 1
                    current_cost += delta_applied
                    if current_cost < best_cost - 1e-12:
                        best_cost = current_cost
                        best_part = engine.part.copy()
            temperature *= cooling
            if tel.enabled:
                tel.counter("solver.passes").inc()
                tel.emit(
                    IterationEvent(
                        solver="annealing",
                        iteration=steps_run,
                        cost=float(current_cost),
                        best_cost=float(best_cost),
                        improved=best_cost < step_best - 1e-12,
                    )
                )
        engine.stats.publish(tel)
        span.set("steps_run", steps_run)
        span.set("stop_reason", stop_reason)

    # Guard against floating-point drift in the incremental tracking.
    best_cost = float(engine.evaluator.cost(best_part))

    final = Assignment(best_part, m)
    feasible = check_feasibility(problem, final).feasible
    return InterchangeResult(
        assignment=final,
        cost=best_cost,
        initial_cost=initial_cost,
        passes=steps_run,
        moves_applied=applied,
        feasible=feasible,
        elapsed_seconds=time.perf_counter() - start_time,
        stop_reason=stop_reason,
    )
