"""Generalized Assignment Problem heuristic (Martello & Toth's MTHG).

The generalized Burkard iteration solves, twice per iteration, the GAP::

    minimize    sum_{i,j} c[i, j] * x[i, j]
    subject to  sum_j s[j] * x[i, j] <= cap[i]      (capacity)
                sum_i x[i, j] = 1                   (GUB)

This module reimplements the heuristic the paper cites (Martello & Toth,
*Knapsack Problems*, 1990, Chapter 7 - MTHG):

1. **Regret-ordered construction.**  For a desirability measure
   ``f(i, j)``, repeatedly pick the unassigned item whose regret -
   the gap between its best and second-best *feasible* partition - is
   largest, and place it in its best feasible partition.  Items that can
   only go one place get infinite regret and are placed first.
2. **Multiple desirability criteria.**  MTHG tries several measures
   (cost, cost per unit size, size, residual-capacity weighted) and
   keeps the best feasible construction.
3. **Improvement.**  Single-item reassignment passes: move any item to a
   cheaper feasible partition until no such move exists; then pairwise
   exchange passes.

A plain best-fit-decreasing feasibility fallback runs when every
criterion fails; :class:`GapInfeasibleError` is raised only when that
fails too.

Each construction sorts every item's partitions by the measure once,
best first, and keeps a pointer per item to its first feasible entry.
Within one construction an item's feasible set only shrinks (residual
capacities only fall, timing placements only forbid partitions, the
static mask is fixed), so the pointer only moves forward, and the first
two feasible entries of the list are exactly the best and second-best
partitions that a fresh stable sort of the masked measure would give.
That needs finite costs, which :func:`solve_gap` checks: a masked
partition sorts as ``+inf``, and a fitting partition whose measure were
``+inf`` too would tie with it.  The improvement passes skip, exactly,
the items and pairs that cannot pass their move tests.

The exchange passes keep their improving pairs, with each pair's cost
delta, from one pass to the next.  A delta reads only its two items'
partitions and costs, so after a pass only the deltas in the rows and
columns of the items it swapped can change.  Those alone are
recomputed, with the same floating-point operations in the same order,
so every kept and recomputed delta is the float a full rebuild would
give.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from typing import List, Optional, Sequence

import numpy as np

from repro.obs.telemetry import resolve as resolve_telemetry
from repro.runtime.budget import Budget

DEFAULT_CRITERIA = ("cost", "cost_per_size", "size", "cost_times_size")
"""Desirability criteria tried, in order, by :func:`solve_gap`."""

IMPROVEMENT_PASSES = 4
"""Passes of each improvement phase (shift, then exchange) per solve."""


class GapInfeasibleError(RuntimeError):
    """No capacity-feasible assignment was found by any strategy."""


@dataclass(frozen=True)
class GapResult:
    """Outcome of one GAP solve."""

    assignment: np.ndarray
    cost: float
    criterion: str
    improved: bool

    @property
    def num_items(self) -> int:
        return int(self.assignment.size)


def solve_gap(
    cost: np.ndarray,
    sizes: Sequence[float],
    capacities: Sequence[float],
    *,
    criteria: Sequence[str] = DEFAULT_CRITERIA,
    improve: bool = True,
    timing=None,
    allowed_mask=None,
    budget: Optional[Budget] = None,
) -> GapResult:
    """Solve a min-cost GAP heuristically with MTHG.

    Parameters
    ----------
    cost:
        ``M x N`` cost matrix ``c[i, j]`` (partition-major, matching the
        paper's ``P``).  Every entry must be finite.
    sizes:
        Item sizes (length ``N``).
    capacities:
        Partition capacities (length ``M``).
    criteria:
        Desirability measures to try; see :data:`DEFAULT_CRITERIA`.
    improve:
        Run the improvement phases (single-item shifts, then pairwise
        exchanges, :data:`IMPROVEMENT_PASSES` passes each) after
        construction.
    timing:
        Optional :class:`repro.core.constraints.TimingIndex`.  This is the
        paper's Section 4.3 generalization "to handle additional Capacity
        Constraints *and Timing Constraints*": during construction each
        placement dynamically forbids, for every still-unplaced constraint
        partner, the partitions that would violate the pair's budget - so
        a completed construction satisfies C2 outright (for every
        constrained pair, whichever item lands second respected the
        first).  The improvement phase then only considers moves that
        stay violation-free.
    budget:
        Optional :class:`repro.runtime.budget.Budget`.  Checked at each
        construction/improvement boundary; an exhausted budget raises
        :class:`repro.runtime.budget.BudgetExceededError` so the calling
        solver can stop with its last consistent incumbent.

    Returns
    -------
    GapResult
        Best feasible assignment found over all criteria.

    Raises
    ------
    GapInfeasibleError
        If no criterion nor the feasibility fallback produced a full
        assignment.
    ValueError
        On malformed input, including a non-finite cost.
    """
    cost = np.asarray(cost, dtype=float)
    sizes = np.asarray(sizes, dtype=float)
    capacities = np.asarray(capacities, dtype=float)
    m, n = _validate(cost, sizes, capacities)
    static = None
    if allowed_mask is not None:
        static = np.asarray(allowed_mask, dtype=bool)
        if static.shape != (m, n):
            raise ValueError(
                f"allowed_mask must have shape ({m}, {n}), got {static.shape}"
            )
        static = static.T.copy()  # item-major internally

    tel = resolve_telemetry(None)
    with tel.span("gap.mthg", items=n, partitions=m) as gap_span:
        best: Optional[np.ndarray] = None
        best_cost = np.inf
        best_criterion = "none"
        for criterion in criteria:
            if budget is not None:
                budget.raise_if_exceeded()
            assignment = _construct(
                cost, sizes, capacities, criterion, timing, static, budget
            )
            if assignment is None:
                continue
            value = float(cost[assignment, np.arange(n)].sum())
            if value < best_cost:
                best, best_cost, best_criterion = assignment, value, criterion

        if best is None:
            if budget is not None:
                budget.raise_if_exceeded()
            assignment = _best_fit_decreasing(cost, sizes, capacities, timing, static)
            if assignment is None:
                raise GapInfeasibleError(
                    "no feasible GAP assignment found (constraints too tight)"
                )
            best = assignment
            best_cost = float(cost[best, np.arange(n)].sum())
            best_criterion = "best_fit_fallback"

        improved = False
        if improve:
            improved = _improve(
                best, cost, sizes, capacities, IMPROVEMENT_PASSES, timing, static,
                budget,
            )
            improved |= _exchange_improve(
                best, cost, sizes, capacities, IMPROVEMENT_PASSES, timing, static,
                budget,
            )
            best_cost = float(cost[best, np.arange(n)].sum())
        gap_span.set("criterion", best_criterion)
    return GapResult(
        assignment=best, cost=best_cost, criterion=best_criterion, improved=improved
    )


# ----------------------------------------------------------------------
# Construction
# ----------------------------------------------------------------------
def _desirability(cost: np.ndarray, sizes: np.ndarray, criterion: str) -> np.ndarray:
    """The ``M x N`` measure minimised when choosing an item's partition."""
    if criterion == "cost":
        return cost
    if criterion == "cost_per_size":
        return cost / np.maximum(sizes, 1e-12)[None, :]
    if criterion == "size":
        # Pure feasibility ordering: every partition equally desirable,
        # so regret ordering degenerates to "most constrained first".
        return np.zeros_like(cost)
    if criterion == "cost_times_size":
        return cost * np.maximum(sizes, 1e-12)[None, :]
    raise ValueError(f"unknown GAP criterion {criterion!r}")


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

    ``ranked[j]`` lists item ``j``'s statically allowed partitions by
    the measure, best first (ties to the lower index), and ``first[j]``
    points at the first entry that still fits.  Fitting only ever gets
    harder during a construction, so ``best_two`` moves the pointer
    forward and scans on to the next fitting entry for the regret.

    A lazy max-heap orders the items by regret: a popped entry is fresh
    when its regret has not dropped and its cached partition is still
    the item's first fitting one; a stale entry is pushed back with the
    refreshed regret, which keeps each step O(M + log N) instead of
    rescanning all items.
    """
    m, n = cost.shape
    measure = _desirability(cost, sizes, criterion)
    if static is not None:
        # Forbidden partitions sort last and are cut off the lists.
        measure = np.where(static.T, measure, np.inf)
    order = np.argsort(measure, axis=0, kind="stable")
    ranked = order.T.tolist()
    values = np.take_along_axis(measure, order, axis=0).T.tolist()
    if static is not None:
        counts = static.sum(axis=1).tolist()
        ranked = [row[:c] for row, c in zip(ranked, counts)]
    first = [0] * n
    size = sizes.tolist()
    residual = capacities.astype(float).tolist()
    assignment = [-1] * n
    # allowed[j][i]: partition i does not violate any constraint between
    # j and an already-placed partner.  Shrinks as placements happen.
    allowed = None
    if timing is not None:
        allowed = [[True] * m for _ in range(n)]
        delay_rows = timing.delay.tolist()
        delay_cols = timing.delay.T.tolist()

    def best_two(j: int):
        """(regret, best_i) for item j, or None if stuck."""
        row = ranked[j]
        s = size[j]
        allowed_j = None if allowed is None else allowed[j]
        k = first[j]
        end = len(row)
        while k < end:
            i = row[k]
            if s <= residual[i] + 1e-9 and (allowed_j is None or allowed_j[i]):
                break
            k += 1
        else:
            return None
        first[j] = k
        for q in range(k + 1, end):
            i = row[q]
            if s <= residual[i] + 1e-9 and (allowed_j is None or allowed_j[i]):
                return values[j][q] - values[j][k], row[k]
        return np.inf, row[k]

    def place(j: int, i: int) -> bool:
        """Commit item j to partition i; False if a partner gets stuck."""
        assignment[j] = i
        residual[i] -= size[j]
        if timing is None:
            return True
        # Constraint (j -> k): delay[i, where k goes] must fit;
        # constraint (k -> j): delay[where k goes, i] must fit.
        for partners, delays in (
            (timing._out[j], delay_rows[i]),
            (timing._in[j], delay_cols[i]),
        ):
            for k, bound in partners:
                if assignment[k] < 0:
                    allowed[k] = [a and d <= bound for a, d in zip(allowed[k], delays)]
                    if not any(allowed[k]):
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
        heap.append((-regret, -size[j], j, best_i))
    # Keys are unique by item index, so the pops follow key order
    # whatever the heap's layout.
    heapq.heapify(heap)

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
        # The cached partition was the first fitting entry when pushed,
        # and the entries before it cannot fit again: it still fits
        # exactly when it is still the first.
        if regret < -neg_regret - 1e-12 or best_i != cached_i:
            # Stale entry: reinsert with the refreshed regret.
            heapq.heappush(heap, (-regret, -size[j], j, best_i))
            continue
        if not place(j, best_i):
            return None
    # An unplaced item always keeps an entry, so the heap empties only
    # once every item is placed.
    return np.array(assignment, dtype=int)


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
    degree, then size).  Each item scans its partitions once, on plain
    lists, keeping the fitting one with the most residual capacity
    (ties to the lower cost, then the lower index).
    """
    m, n = cost.shape
    size = sizes.tolist()
    residual = capacities.astype(float).tolist()
    assignment = [-1] * n
    cost_of = cost.T.tolist()  # cost_of[j][i] = cost[i, j]
    static_of = None if static is None else static.tolist()
    allowed = None
    if timing is not None:
        allowed = [[True] * m for _ in range(n)]
        delay_rows = timing.delay.tolist()
        delay_cols = timing.delay.T.tolist()
        degree = [timing.degree(j) for j in range(n)]
        order = sorted(range(n), key=lambda j: (-degree[j], -size[j], j))
    else:
        order = sorted(range(n), key=lambda j: (-size[j], j))

    for j in order:
        s = size[j]
        costs = cost_of[j]
        allowed_j = None if allowed is None else allowed[j]
        static_j = None if static_of is None else static_of[j]
        choice = -1
        for i in range(m):
            if s > residual[i] + 1e-9:
                continue
            if allowed_j is not None and not allowed_j[i]:
                continue
            if static_j is not None and not static_j[i]:
                continue
            if (
                choice < 0
                or residual[i] > residual[choice]
                or (residual[i] == residual[choice] and costs[i] < costs[choice])
            ):
                choice = i
        if choice < 0:
            return None
        assignment[j] = choice
        residual[choice] -= s
        if timing is not None:
            for partners, delays in (
                (timing._out[j], delay_rows[choice]),
                (timing._in[j], delay_cols[choice]),
            ):
                for k, bound in partners:
                    if assignment[k] < 0:
                        allowed[k] = [a and d <= bound for a, d in zip(allowed[k], delays)]
                        if not any(allowed[k]):
                            return None
    return np.array(assignment, dtype=int)


# ----------------------------------------------------------------------
# Improvement
# ----------------------------------------------------------------------
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

    Each pass visits, in index order, only the items with some partition
    cheaper than their own: an item's own partition changes only when
    the pass reaches it, and no other item can pass the move test.  An
    item moves to the first fitting partition of least cost, so the
    scan tests the fit of only the partitions cheaper than the best
    found so far (its own partition never is).
    """
    m, n = cost.shape
    residual = (capacities - np.bincount(assignment, weights=sizes, minlength=m)).tolist()
    part = assignment.tolist()
    size = sizes.tolist()
    cost_of = cost.T.tolist()  # cost_of[j][i] = cost[i, j]
    cheapest = cost.min(axis=0, initial=np.inf).tolist()
    static_of = None if static is None else static.tolist()
    any_improvement = False
    for _ in range(max_passes):
        if budget is not None and budget.check() is not None:
            break
        changed = False
        for j in range(n):
            current = part[j]
            costs = cost_of[j]
            best = costs[current] - 1e-12
            if not cheapest[j] < best:
                continue
            s = size[j]
            allowed_j = None if static_of is None else static_of[j]
            target = -1
            for i in range(m):
                c = costs[i]
                if c < best and s <= residual[i] + 1e-9:
                    if allowed_j is not None and not allowed_j[i]:
                        continue
                    if timing is not None and not timing.move_is_feasible(part, j, i):
                        continue
                    best, target = c, i
            if target >= 0:
                part[j] = target
                residual[current] += s
                residual[target] -= s
                changed = True
                any_improvement = True
        if not changed:
            break
    assignment[:] = part
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

    The exact linear-cost delta of exchanging items ``j1 < j2``, at
    partitions ``p1`` and ``p2``, is ``((cost[p2, j1] + cost[p1, j2]) -
    own[j1]) - own[j2]`` with ``own[j] = cost[part[j], j]``.  Each pass
    greedily applies non-overlapping improving exchanges, cheapest
    first (ties in row-major pair order).  Exchanges must respect both
    destination capacities, the static mask, and - when ``timing`` is
    given - the pair's constraints against all other items' current
    positions.  Only the improving pairs are tested against the masks.

    The first pass computes every pair's delta and keeps the improving
    pairs with their deltas.  A delta reads only its two items'
    partitions and costs, so a swap changes only the deltas in its two
    items' rows and columns: each later pass drops the pairs of the
    items the previous pass swapped and recomputes them with the same
    operations in the same order, which gives the floats a full rebuild
    would.
    """
    m, n = cost.shape
    if n < 2:
        return False
    size = sizes.tolist()
    cap = capacities.tolist()
    improved = False
    part = assignment
    moved = None
    for _ in range(max_passes):
        if budget is not None and budget.check() is not None:
            break
        if moved is None:
            own = cost[part, np.arange(n)]
            j1s, j2s, deltas = _improving_exchanges(cost, part, own)
        else:
            own[moved] = cost[part[moved], moved]
            # Row r holds moved[r]'s pairs: (a, c) right of the diagonal,
            # (c, a) left of it, each in its own subtraction order.
            pair_sum = cost[:, moved][part].T + cost[part[moved], :]
            right = np.arange(n) > moved[:, None]
            fresh = np.where(
                right,
                (pair_sum - own[moved, None]) - own,
                (pair_sum - own) - own[moved, None],
            )
            hit = np.zeros(n, dtype=bool)
            hit[moved] = True
            kept = ~(hit[j1s] | hit[j2s])
            # A pair of two moved items comes from its lower item's row.
            rows, cols = np.divmod(np.flatnonzero((fresh < -1e-9) & (right | ~hit)), n)
            mine = moved[rows]
            j1s = np.concatenate((j1s[kept], np.minimum(mine, cols)))
            j2s = np.concatenate((j2s[kept], np.maximum(mine, cols)))
            deltas = np.concatenate((deltas[kept], fresh[rows, cols]))
        loads = np.bincount(part, weights=sizes, minlength=m)
        headroom = (capacities - loads)[part]  # per item, at its partition
        size_diff = sizes[j2s] - sizes[j1s]
        ok = (size_diff <= headroom[j1s] + 1e-9) & (-size_diff <= headroom[j2s] + 1e-9)
        ok &= part[j1s] != part[j2s]
        if static is not None:
            ok &= static[j2s, part[j1s]] & static[j1s, part[j2s]]
        firsts, seconds = j1s[ok], j2s[ok]
        if firsts.size == 0:
            break
        # Cheapest first, ties in row-major pair order (the kept and the
        # recomputed pairs are not in that order).
        order = np.lexsort((seconds, firsts, deltas[ok]))
        where = part.tolist()
        loads = loads.tolist()
        touched = [False] * n
        swapped = []
        for j1, j2 in zip(firsts[order].tolist(), seconds[order].tolist()):
            if touched[j1] or touched[j2]:
                continue
            i1, i2 = where[j1], where[j2]
            # Recheck capacity against the evolving loads.
            if loads[i1] - size[j1] + size[j2] > cap[i1] + 1e-9:
                continue
            if loads[i2] - size[j2] + size[j1] > cap[i2] + 1e-9:
                continue
            if timing is not None and not timing.swap_is_feasible(where, j1, j2):
                continue
            where[j1], where[j2] = i2, i1
            loads[i1] += size[j2] - size[j1]
            loads[i2] += size[j1] - size[j2]
            touched[j1] = touched[j2] = True
            swapped += (j1, j2)
        if not swapped:
            break
        improved = True
        moved = np.array(swapped)
        part[moved] = [where[j] for j in swapped]
    return improved


def _improving_exchanges(cost: np.ndarray, part: np.ndarray, own: np.ndarray):
    """Every exchange ``j1 < j2`` with delta below ``-1e-9``: ``(j1s, j2s, deltas)``.

    Computed with the operations of :func:`_exchange_improve`'s formula
    in its order, right of the diagonal only, over blocks of 64 rows so
    that each block's arrays stay small.
    """
    n = part.size
    by_item = cost.T  # by_item[j, i] = cost[i, j]
    firsts, seconds, deltas = [], [], []
    for lo in range(0, n - 1, 64):
        hi = min(n, lo + 64)
        # delta[a - lo, c - lo] for the pair (a, c), a in [lo, hi), c >= lo.
        delta = np.take(by_item[lo:hi], part[lo:], axis=1)
        delta += cost[part[lo:hi], lo:]
        delta -= own[lo:hi, None]
        delta -= own[lo:]
        rows, cols = np.divmod(np.flatnonzero(delta < -1e-9), n - lo)
        upper = cols > rows
        rows, cols = rows[upper], cols[upper]
        firsts.append(rows + lo)
        seconds.append(cols + lo)
        deltas.append(delta[rows, cols])
    return np.concatenate(firsts), np.concatenate(seconds), np.concatenate(deltas)


def _validate(cost: np.ndarray, sizes: np.ndarray, capacities: np.ndarray):
    if cost.ndim != 2:
        raise ValueError(f"cost must be 2-dimensional, got ndim={cost.ndim}")
    m, n = cost.shape
    if sizes.shape != (n,):
        raise ValueError(f"sizes must have length {n}, got shape {sizes.shape}")
    if capacities.shape != (m,):
        raise ValueError(
            f"capacities must have length {m}, got shape {capacities.shape}"
        )
    if (sizes < 0).any():
        raise ValueError("sizes must be non-negative")
    if (capacities < 0).any():
        raise ValueError("capacities must be non-negative")
    finite = np.isfinite(cost)
    if not finite.all():
        i, j = np.argwhere(~finite)[0]
        raise ValueError(f"cost must be finite, got cost[{i}, {j}] = {cost[i, j]}")
    return m, n
