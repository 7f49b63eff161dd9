"""GKL: generalized Kernighan-Lin pairwise-swap heuristic (Section 5).

The paper's second baseline: "a generalization of Kernighan & Lin's
heuristic, switching a pair of components at a time.  Associated with
each component are (N - 1) gain entries".  As in the paper:

* M-way, arbitrary-size components (a swap is feasible only if both
  destination capacities still hold), arbitrary cost metric,
* only violation-free swaps are admitted,
* "we have to force the algorithm to terminate after the first 6 outer
  loops due to excessive CPU runtime.  Since any gain obtained beyond
  the first 6 outer loops is insignificant, this cutoff strategy
  provides speedup without sacrificing solution quality" - the default
  ``max_outer_loops=6`` reproduces that cutoff.

Each outer loop is a KL pass: repeatedly apply the best feasible swap
among unlocked components (negative gains allowed), lock both, and roll
back to the best prefix at the end.  A pass keeps one ``N x N`` matrix
of swap scores: the swap delta of every candidate pair, ``inf`` for the
rest.  It is built once per pass, and after each swap only the rows and
columns of the components whose inputs the swap changed are recomputed
(see :func:`_run_pass` for why that set is exact), so a pick costs one
argmin rather than a rebuild of the whole matrix and its masks.  A
selected pair is confirmed with an exact feasibility check before being
applied (the vectorised timing mask is approximate for pairs with a
mutual constraint).

The rollback sends the pairs beyond the best prefix home with one
:meth:`~repro.engine.delta.DeltaCache.apply_moves` call, in the order
swapping each back would move them (last pair first, ``j1`` then
``j2``), so the loads are the same floats; the kernel refreshes the
union of their footprints once, and a refreshed row is the full
rebuild's float whatever else is refreshed with it.
"""

from __future__ import annotations

import time
from typing import List, Optional, Tuple

import numpy as np

from repro.engine.delta import DeltaCache
from repro.baselines.result import InterchangeResult
from repro.core.assignment import Assignment
from repro.core.constraints import check_feasibility
from repro.core.problem import PartitioningProblem
from repro.obs.events import IterationEvent
from repro.obs.telemetry import Telemetry, resolve as resolve_telemetry
from repro.runtime.budget import STOP_COMPLETED, Budget


def gkl_partition(
    problem: PartitioningProblem,
    initial: Assignment,
    *,
    max_outer_loops: int = 6,
    max_swaps_per_pass: Optional[int] = None,
    min_gain: float = 1e-9,
    budget: Optional[Budget] = None,
    telemetry: Optional[Telemetry] = None,
) -> InterchangeResult:
    """Run GKL from a feasible ``initial`` assignment.

    Parameters
    ----------
    initial:
        Must be C1+C2 feasible; raises ``ValueError`` otherwise.
    max_outer_loops:
        The paper's cutoff (6).  Passes also stop early when one yields
        no net improvement.
    max_swaps_per_pass:
        Optional cap on swaps per pass (``None`` = classic KL: continue
        until no unlocked feasible swap remains).
    budget:
        Optional :class:`repro.runtime.budget.Budget`, checked per outer
        loop and per swap.  A budget stop still rolls the interrupted
        pass back to its best prefix; ``stop_reason`` records the cause.
    telemetry:
        Optional :class:`~repro.obs.telemetry.Telemetry`; ``None`` uses
        the ambient instance.  Each outer loop emits an
        ``IterationEvent`` (``solver="gkl"``) and bumps ``solver.passes``.
    """
    report = check_feasibility(problem, initial)
    if not report.feasible:
        raise ValueError(f"GKL needs a feasible initial solution: {report.summary()}")

    tel = resolve_telemetry(telemetry)
    start = time.perf_counter()
    engine = DeltaCache(problem, initial)
    initial_cost = engine.current_cost()
    pass_costs: List[float] = []
    total_swaps = 0
    passes = 0
    stop_reason = STOP_COMPLETED

    with tel.span("gkl.solve", components=engine.n, max_outer_loops=max_outer_loops) as span:
        for _ in range(max_outer_loops):
            if budget is not None:
                reason = budget.check()
                if reason is not None:
                    stop_reason = reason
                    break
            passes += 1
            improvement, swaps = _run_pass(engine, max_swaps_per_pass, budget)
            total_swaps += swaps
            pass_costs.append(engine.current_cost())
            if tel.enabled:
                tel.counter("solver.passes").inc()
                tel.emit(
                    IterationEvent(
                        solver="gkl",
                        iteration=passes,
                        cost=float(pass_costs[-1]),
                        best_cost=float(min(pass_costs)),
                        improved=improvement > min_gain,
                    )
                )
            if budget is not None and budget.check() is not None:
                stop_reason = budget.check() or stop_reason
                break
            if improvement <= min_gain:
                break
        engine.stats.publish(tel)
        span.set("passes", passes)
        span.set("stop_reason", stop_reason)

    final = engine.assignment()
    final_cost = engine.current_cost()
    feasible = check_feasibility(problem, final).feasible
    return InterchangeResult(
        assignment=final,
        cost=final_cost,
        initial_cost=initial_cost,
        passes=passes,
        moves_applied=total_swaps,
        feasible=feasible,
        elapsed_seconds=time.perf_counter() - start,
        pass_costs=pass_costs,
        stop_reason=stop_reason,
    )


def _run_pass(
    engine: DeltaCache, max_swaps: Optional[int], budget: Optional[Budget] = None
) -> Tuple[float, int]:
    """One KL pass: best-swap/lock until exhausted, then best-prefix rollback.

    The pass keeps one ``(N, N)`` score matrix: ``scores[j1, j2]`` is
    the swap delta of the pair when it is unlocked, in different
    partitions and passes the capacity and approximate timing masks,
    and ``inf`` otherwise, on both sides of the diagonal.  It is built
    once, in row blocks, and after each swap only the rows and columns
    of the dirty components are recomputed.  That is exact: an entry
    reads the two components' move-delta rows, partitions, partition
    headrooms, timing-block rows and locks, and a swap of ``j1`` and
    ``j2`` changes only

    * the delta rows of the two footprints (the swapped components and
      their wire neighbours),
    * the timing rows of the two footprints (their constrained timing
      partners),
    * the headroom of the two partitions involved, read by every
      component in them,
    * the locks of ``j1`` and ``j2``.

    Every other entry keeps inputs equal bit for bit, so the matrix is
    the one a fresh rebuild would give, and the picks are the same.  A
    locked component's row and column stay ``inf`` for the rest of the
    pass, so locked components are never rescored.

    An exhausted ``budget`` ends the pass early; the rollback still
    restores the best prefix, so interruption never degrades the result.
    """
    n = engine.n
    locked = np.zeros(n, dtype=bool)
    scores = np.empty((n, n))
    for first in range(0, n, _BLOCK_ROWS):
        rows = np.arange(first, min(first + _BLOCK_ROWS, n))
        scores[rows] = _score_rows(engine, rows, locked)
    trail: List[Tuple[int, int, int, int]] = []  # (j1, home, j2, home), in order
    cumulative = 0.0
    best_cumulative = 0.0
    best_prefix = 0
    limit = n // 2 if max_swaps is None else min(n // 2, max_swaps)

    while len(trail) < limit:
        if budget is not None and budget.check() is not None:
            break
        pair = _best_swap(engine, scores)
        if pair is None:
            break
        j1, j2, delta = pair
        trail.append((j1, int(engine.part[j1]), j2, int(engine.part[j2])))
        engine.apply_swap(j1, j2)
        locked[j1] = locked[j2] = True
        cumulative -= delta
        if cumulative > best_cumulative + 1e-12:
            best_cumulative = cumulative
            best_prefix = len(trail)
        _rescore(engine, scores, locked, j1, j2)

    # Send each pair home, last pair first and j1 before j2: the moves
    # swapping back would make, in their order.
    engine.apply_moves(
        move
        for j1, i1, j2, i2 in reversed(trail[best_prefix:])
        for move in ((j1, i1), (j2, i2))
    )
    return best_cumulative, best_prefix


_BLOCK_ROWS = 32
"""Rows per block when a pass scores every component (bounds the temporaries)."""


def _score_rows(engine: DeltaCache, rows: np.ndarray, locked: np.ndarray) -> np.ndarray:
    """``(R, N)`` swap scores of the pairs ``(rows[k], c)``; ``rows`` are unlocked.

    The swap delta where the pair is a candidate, ``inf`` elsewhere.
    Every input is symmetric in the pair (the kernel's row routines
    give a pair the same float from either side), so the block is both
    the rows and the columns ``rows`` of the score matrix.
    """
    part = engine.part
    mask = engine.swap_capacity_rows(rows) & engine.swap_timing_rows(rows)
    mask &= part[rows, None] != part[None, :]
    mask &= ~locked
    return np.where(mask, engine.swap_delta_rows(rows), np.inf)


def _rescore(
    engine: DeltaCache, scores: np.ndarray, locked: np.ndarray, j1: int, j2: int
) -> None:
    """Bring ``scores`` up to date after ``j1`` and ``j2`` swapped and locked.

    The dirty rows are scored in one :func:`_score_rows` call.  A row's
    scores read only its own inputs and the whole-state arrays, never
    which rows share its block, so one call gives the floats row blocks
    would.
    """
    part = engine.part
    dirty = (part == part[j1]) | (part == part[j2])
    for j in (j1, j2):
        footprint = engine.footprint(j)
        dirty[footprint.rows] = True
        dirty[footprint.timing_rows] = True
    dirty &= ~locked
    for j in (j1, j2):
        scores[j, :] = np.inf
        scores[:, j] = np.inf
    rows = np.flatnonzero(dirty)
    block = _score_rows(engine, rows, locked)
    scores[rows, :] = block
    scores[:, rows] = block.T


def _best_swap(
    engine: DeltaCache, scores: np.ndarray
) -> Optional[Tuple[int, int, float]]:
    """Best feasible swap in the pass's score matrix, exactly validated.

    The matrix is symmetric with an ``inf`` diagonal, so the first flat
    occurrence of its minimum lies above the diagonal: the pair
    ``j1 < j2`` that the flat argmin over the upper triangle alone
    picks.  The masks narrow candidates; because the timing mask is
    approximate for mutually-constrained pairs, the cheapest candidates
    are confirmed with
    :meth:`~repro.engine.delta.DeltaCache.exact_swap_feasible` in that
    order until one passes.  Rejected pairs are put back afterwards:
    they are candidates again at the next pick.
    """
    n = engine.n
    flat = scores.ravel()
    rejected: List[Tuple[int, int, float]] = []
    try:
        # Validate candidates cheapest-first; almost always the first passes.
        for _ in range(64):
            idx = int(np.argmin(flat))
            value = float(flat[idx])
            if not np.isfinite(value):
                return None
            j1, j2 = divmod(idx, n)
            if engine.exact_swap_feasible(j1, j2):
                return j1, j2, value
            rejected.append((j1, j2, value))
            scores[j1, j2] = scores[j2, j1] = np.inf
        return None
    finally:
        for j1, j2, value in rejected:
            scores[j1, j2] = scores[j2, j1] = value
