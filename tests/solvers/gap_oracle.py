"""Reference MTHG for checking :mod:`repro.solvers.gap`.

:func:`_construct`, :func:`_improve` and :func:`_exchange_improve` are
the straightforward forms of the production phases: a full stable
``argsort`` of every popped item's masked measure, a numpy scan of
every item in each shift pass, and whole-matrix masks for the exchange
candidates.  :func:`reference_solve_gap` runs them in
:func:`~repro.solvers.gap.solve_gap`'s order, so the production solver
must return the same :class:`~repro.solvers.gap.GapResult` bit for bit.
:func:`_best_fit_decreasing` is the whole-array form of the fallback:
a fitting mask per item and a ``min`` over its fitting partitions.
:func:`_swap_timing_ok` is the exchange pass's own C2 swap check, which
production replaced with :meth:`~repro.core.constraints.TimingIndex.swap_is_feasible`
(the two agree on items in different partitions, the only pairs an
exchange tests).  The desirability measures are imported from the
production module.
"""

from __future__ import annotations

import heapq
from typing import List, Optional, Sequence

import numpy as np

from repro.runtime.budget import Budget
from repro.solvers.gap import (
    DEFAULT_CRITERIA,
    IMPROVEMENT_PASSES,
    GapInfeasibleError,
    GapResult,
    _desirability,
)


def reference_solve_gap(
    cost: np.ndarray,
    sizes: Sequence[float],
    capacities: Sequence[float],
    *,
    criteria: Sequence[str] = DEFAULT_CRITERIA,
    improve: bool = True,
    timing=None,
    allowed_mask=None,
) -> GapResult:
    """:func:`~repro.solvers.gap.solve_gap` on the reference phases."""
    cost = np.asarray(cost, dtype=float)
    sizes = np.asarray(sizes, dtype=float)
    capacities = np.asarray(capacities, dtype=float)
    m, n = cost.shape
    static = None
    if allowed_mask is not None:
        static = np.asarray(allowed_mask, dtype=bool).T.copy()
    best: Optional[np.ndarray] = None
    best_cost = np.inf
    best_criterion = "none"
    for criterion in criteria:
        assignment = _construct(cost, sizes, capacities, criterion, timing, static)
        if assignment is None:
            continue
        value = float(cost[assignment, np.arange(n)].sum())
        if value < best_cost:
            best, best_cost, best_criterion = assignment, value, criterion
    if best is None:
        best = _best_fit_decreasing(cost, sizes, capacities, timing, static)
        if best is None:
            raise GapInfeasibleError("no feasible GAP assignment found")
        best_cost = float(cost[best, np.arange(n)].sum())
        best_criterion = "best_fit_fallback"
    improved = False
    if improve:
        improved = _improve(
            best, cost, sizes, capacities, IMPROVEMENT_PASSES, timing, static
        )
        improved |= _exchange_improve(
            best, cost, sizes, capacities, IMPROVEMENT_PASSES, timing, static
        )
        best_cost = float(cost[best, np.arange(n)].sum())
    return GapResult(
        assignment=best, cost=best_cost, criterion=best_criterion, improved=improved
    )


def _construct(
    cost: np.ndarray,
    sizes: np.ndarray,
    capacities: np.ndarray,
    criterion: str,
    timing=None,
    static=None,
    budget: Optional[Budget] = None,
) -> Optional[np.ndarray]:
    """Regret-ordered MTHG construction; ``None`` when it dead-ends.

    Uses a lazy max-heap over regrets: popped entries are revalidated
    against the current residual capacities (and timing masks) and
    pushed back when stale, which keeps each step O(M log N) instead of
    rescanning all items.
    """
    m, n = cost.shape
    measure = _desirability(cost, sizes, criterion)
    residual = capacities.astype(float).copy()
    assignment = np.full(n, -1, dtype=int)
    # allowed[j, i]: partition i does not violate any constraint between
    # j and an already-placed partner.  Shrinks as placements happen.
    allowed = np.ones((n, m), dtype=bool) if timing is not None else None

    def best_two(j: int):
        """(regret, best_i) for item j, or None if stuck."""
        fits = sizes[j] <= residual + 1e-9
        if allowed is not None:
            fits = fits & allowed[j]
        if static is not None:
            fits = fits & static[j]
        if not fits.any():
            return None
        vals = np.where(fits, measure[:, j], np.inf)
        order = np.argsort(vals, kind="stable")
        best_i = int(order[0])
        if m > 1 and np.isfinite(vals[order[1]]):
            regret = float(vals[order[1]] - vals[best_i])
        else:
            regret = np.inf
        return regret, best_i

    def place(j: int, i: int) -> bool:
        """Commit item j to partition i; False if a partner gets stuck."""
        assignment[j] = i
        residual[i] -= sizes[j]
        if timing is None:
            return True
        delay = timing.delay
        # Constraint (j -> k): delay[i, where k goes] must fit.
        for k, bound in timing._out[j]:
            if assignment[k] < 0:
                allowed[k] &= delay[i, :] <= bound
                if not allowed[k].any():
                    return False
        # Constraint (k -> j): delay[where k goes, i] must fit.
        for k, bound in timing._in[j]:
            if assignment[k] < 0:
                allowed[k] &= delay[:, i] <= bound
                if not allowed[k].any():
                    return False
        return True

    heap: List[tuple] = []
    for j in range(n):
        info = best_two(j)
        if info is None:
            return None
        regret, best_i = info
        # Negate regret for a max-heap; ties broken by larger size
        # (harder to place) and then index for determinism.
        heapq.heappush(heap, (-regret, -sizes[j], j, best_i))

    placed = 0
    pops = 0
    while heap:
        pops += 1
        if budget is not None and pops % 128 == 0:
            budget.raise_if_exceeded()
        neg_regret, _, j, cached_i = heapq.heappop(heap)
        if assignment[j] >= 0:
            continue
        info = best_two(j)
        if info is None:
            return None
        regret, best_i = info
        cached_ok = sizes[j] <= residual[cached_i] + 1e-9 and (
            allowed is None or allowed[j, cached_i]
        ) and (static is None or static[j, cached_i])
        if regret < -neg_regret - 1e-12 or not cached_ok:
            # Stale entry: reinsert with the refreshed regret.
            heapq.heappush(heap, (-regret, -sizes[j], j, best_i))
            continue
        use_i = best_i if regret != -neg_regret else cached_i
        if not place(j, int(use_i)):
            return None
        placed += 1
    return assignment if placed == n else None


def _improve(
    assignment: np.ndarray,
    cost: np.ndarray,
    sizes: np.ndarray,
    capacities: np.ndarray,
    max_passes: int,
    timing=None,
    static=None,
    budget: Optional[Budget] = None,
) -> bool:
    """Single-item reassignment descent (in place); True if improved.

    With ``timing``, only moves that keep every constraint satisfied
    (against all other items' current positions) are considered.  The
    assignment stays feasible at every step, so an exhausted ``budget``
    simply stops polishing (no exception).
    """
    m, n = cost.shape
    residual = capacities - np.bincount(assignment, weights=sizes, minlength=m)
    any_improvement = False
    for _ in range(max_passes):
        if budget is not None and budget.check() is not None:
            break
        changed = False
        for j in range(n):
            current = assignment[j]
            fits = sizes[j] <= residual + 1e-9
            fits[current] = True
            if static is not None:
                fits &= static[j]
                fits[current] = True
            if timing is not None and timing.degree(j):
                delay = timing.delay
                for k, bound in timing._out[j]:
                    fits &= delay[:, assignment[k]] <= bound
                for k, bound in timing._in[j]:
                    fits &= delay[assignment[k], :] <= bound
                fits[current] = True  # staying put is always permitted
            vals = np.where(fits, cost[:, j], np.inf)
            target = int(np.argmin(vals))
            if vals[target] < cost[current, j] - 1e-12:
                assignment[j] = target
                residual[current] += sizes[j]
                residual[target] -= sizes[j]
                changed = True
                any_improvement = True
        if not changed:
            break
    return any_improvement


def _exchange_improve(
    assignment: np.ndarray,
    cost: np.ndarray,
    sizes: np.ndarray,
    capacities: np.ndarray,
    max_passes: int,
    timing=None,
    static=None,
    budget: Optional[Budget] = None,
) -> bool:
    """Pairwise exchange descent (Martello-Toth improvement, in place).

    Per pass, compute the exact linear-cost delta of every item exchange
    vectorised, then greedily apply non-overlapping improving exchanges
    (cheapest first).  Exchanges must respect both destination
    capacities, the static mask, and - when ``timing`` is given - the
    pair's constraints against all other items' current positions.
    """
    m, n = cost.shape
    if n < 2:
        return False
    improved = False
    for _ in range(max_passes):
        if budget is not None and budget.check() is not None:
            break
        part = assignment
        loads = np.bincount(part, weights=sizes, minlength=m)
        headroom = (capacities - loads)[part]  # per item, at its partition
        pos_cost = cost[part, :]  # [j1, j2] = cost of item j2 at part[j1]
        own = cost[part, np.arange(n)]
        # delta[j1, j2] = c(p2, j1) + c(p1, j2) - c(p1, j1) - c(p2, j2)
        delta = pos_cost.T + pos_cost - own[:, None] - own[None, :]
        size_diff = sizes[None, :] - sizes[:, None]  # s2 - s1
        ok = (size_diff <= headroom[:, None] + 1e-9) & (
            -size_diff <= headroom[None, :] + 1e-9
        )
        ok &= part[:, None] != part[None, :]
        if static is not None:
            ok &= static[:, part].T & static[:, part]
        ok &= np.triu(delta < -1e-9, k=1)
        candidates = np.argwhere(ok)
        if candidates.size == 0:
            break
        order = np.argsort(delta[candidates[:, 0], candidates[:, 1]], kind="stable")
        touched = np.zeros(n, dtype=bool)
        changed = False
        for j1, j2 in candidates[order]:
            if touched[j1] or touched[j2]:
                continue
            i1, i2 = int(part[j1]), int(part[j2])
            # Recheck capacity against the evolving loads.
            if loads[i1] - sizes[j1] + sizes[j2] > capacities[i1] + 1e-9:
                continue
            if loads[i2] - sizes[j2] + sizes[j1] > capacities[i2] + 1e-9:
                continue
            if timing is not None and not _swap_timing_ok(
                timing, part, int(j1), int(j2)
            ):
                continue
            part[j1], part[j2] = i2, i1
            loads[i1] += sizes[j2] - sizes[j1]
            loads[i2] += sizes[j1] - sizes[j2]
            touched[j1] = touched[j2] = True
            changed = True
            improved = True
        if not changed:
            break
    return improved



def _swap_timing_ok(timing, part, j1: int, j2: int) -> bool:
    """Exact C2 check for exchanging two items (everything else fixed)."""
    i1, i2 = int(part[j1]), int(part[j2])
    delay = timing.delay
    for j, new_i, other in ((j1, i2, j2), (j2, i1, j1)):
        partner_new = i1 if j is j1 else i2  # the other item's new spot
        for k, budget in timing._out[j]:
            at = partner_new if k == other else part[k]
            if delay[new_i, at] > budget:
                return False
        for k, budget in timing._in[j]:
            at = partner_new if k == other else part[k]
            if delay[at, new_i] > budget:
                return False
    return True


def _best_fit_decreasing(
    cost: np.ndarray,
    sizes: np.ndarray,
    capacities: np.ndarray,
    timing=None,
    static=None,
) -> Optional[np.ndarray]:
    """Feasibility-first fallback: largest items into the emptiest fit.

    With ``timing``, placements additionally respect constraints against
    already-placed partners (most-constrained-first ordering by timing
    degree, then size).
    """
    m, n = cost.shape
    residual = capacities.astype(float).copy()
    assignment = np.full(n, -1, dtype=int)
    allowed = np.ones((n, m), dtype=bool) if timing is not None else None

    if timing is not None:
        degree = np.array([timing.degree(j) for j in range(n)])
        order = sorted(range(n), key=lambda j: (-degree[j], -sizes[j], j))
    else:
        order = sorted(range(n), key=lambda j: (-sizes[j], j))

    for j in order:
        mask = sizes[j] <= residual + 1e-9
        if allowed is not None:
            mask = mask & allowed[j]
        if static is not None:
            mask = mask & static[j]
        fits = np.flatnonzero(mask)
        if fits.size == 0:
            return None
        # Most residual capacity first; break ties by cost then index.
        choice = int(min(fits, key=lambda i: (-residual[i], cost[i, j], i)))
        assignment[j] = choice
        residual[choice] -= sizes[j]
        if timing is not None:
            delay = timing.delay
            for k, budget in timing._out[j]:
                if assignment[k] < 0:
                    allowed[k] &= delay[choice, :] <= budget
                    if not allowed[k].any():
                        return None
            for k, budget in timing._in[j]:
                if assignment[k] < 0:
                    allowed[k] &= delay[:, choice] <= budget
                    if not allowed[k].any():
                        return None
    return assignment
