"""Reference KL pass for checking :mod:`repro.baselines.gkl`.

:func:`_run_pass` and :func:`_best_swap` are the straightforward form of
a GKL pass: every pick rebuilds the whole ``N x N`` swap-delta matrix
and its masks and takes a masked flat argmin.  The whole-matrix
arithmetic (:func:`swap_delta_matrix`, :func:`swap_capacity_mask`,
:func:`swap_timing_mask`) is kept here as well, in its whole-matrix
form, so the kernel's row routines are checked against a copy of their
own.  The production pass keeps one score matrix per pass and rescores
only the pairs a swap changes; it must make the same swap with the same
delta float at every step.
"""

from __future__ import annotations

from typing import List, Optional, Tuple

import numpy as np

from repro.engine.delta import DeltaCache
from repro.runtime.budget import Budget


def swap_delta_matrix(engine: DeltaCache) -> np.ndarray:
    """Exact ``(N, N)`` swap deltas for the current assignment.

    Built from the move-delta matrix plus a sparse correction for
    directly-wired pairs (whose two move deltas each see the other
    component at a stale position).
    """
    part = engine.part
    move_to_partner = engine.delta[:, part]  # [j1, j2] = delta(j1 -> part[j2])
    swap = move_to_partner + move_to_partner.T
    src = engine.evaluator.wire_src
    if src.size:
        dst = engine.evaluator.wire_dst
        w = engine.evaluator.wire_w
        b = engine.B
        p1, p2 = part[src], part[dst]
        claimed = w * (b[p2, p2] - b[p1, p2] + b[p1, p1] - b[p1, p2])
        actual = w * (b[p2, p1] - b[p1, p2])
        correction = np.where(p1 == p2, 0.0, engine.beta * (actual - claimed))
        flat = swap.ravel()
        np.add.at(flat, src * engine.n + dst, correction)
        np.add.at(flat, dst * engine.n + src, correction)
    return swap


def swap_capacity_mask(engine: DeltaCache) -> np.ndarray:
    """``(N, N)`` boolean: the swap respects both capacities.

    Same-partition pairs are trivially feasible (the swap is a
    no-op for loads).
    """
    headroom_of = (engine.capacities - engine.loads)[engine.part]  # per component
    size_diff = engine.sizes[None, :] - engine.sizes[:, None]  # s2 - s1 at [j1, j2]
    mask = (size_diff <= headroom_of[:, None] + 1e-9) & (
        -size_diff <= headroom_of[None, :] + 1e-9
    )
    mask |= engine.part[:, None] == engine.part[None, :]
    return mask


def swap_timing_mask(engine: DeltaCache) -> np.ndarray:
    """``(N, N)`` boolean: approximately timing-feasible swaps."""
    ok_move = engine.timing_block == 0  # (N, M)
    to_partner = ok_move[:, engine.part]  # [j1, j2] = j1 can move to part[j2]
    return to_partner & to_partner.T


def reference_scores(engine: DeltaCache, locked: np.ndarray) -> np.ndarray:
    """The masked score matrix :func:`_best_swap` searches, built fresh."""
    n = engine.n
    swap = swap_delta_matrix(engine)
    mask = swap_capacity_mask(engine) & swap_timing_mask(engine)
    same = engine.part[:, None] == engine.part[None, :]
    mask &= ~same
    mask[locked, :] = False
    mask[:, locked] = False
    mask &= np.triu(np.ones((n, n), dtype=bool), k=1)
    return np.where(mask, swap, np.inf)


def _run_pass(
    engine: DeltaCache, max_swaps: Optional[int], budget: Optional[Budget] = None
) -> Tuple[float, int]:
    """One KL pass: best-swap/lock until exhausted, then best-prefix rollback.

    An exhausted ``budget`` ends the pass early; the rollback still
    restores the best prefix, so interruption never degrades the result.
    """
    n = engine.n
    locked = np.zeros(n, dtype=bool)
    trail: List[Tuple[int, int]] = []  # swapped pairs, in order
    cumulative = 0.0
    best_cumulative = 0.0
    best_prefix = 0
    limit = n // 2 if max_swaps is None else min(n // 2, max_swaps)

    while len(trail) < limit:
        if budget is not None and budget.check() is not None:
            break
        pair = _best_swap(engine, locked)
        if pair is None:
            break
        j1, j2, delta = pair
        engine.apply_swap(j1, j2)
        locked[j1] = locked[j2] = True
        trail.append((j1, j2))
        cumulative -= delta
        if cumulative > best_cumulative + 1e-12:
            best_cumulative = cumulative
            best_prefix = len(trail)

    for j1, j2 in reversed(trail[best_prefix:]):
        engine.apply_swap(j1, j2)  # swapping back undoes the move exactly
    return best_cumulative, best_prefix


def _best_swap(
    engine: DeltaCache, locked: np.ndarray
) -> Optional[Tuple[int, int, float]]:
    """Best feasible swap among unlocked pairs, exactly validated.

    The vectorised masks narrow candidates; because the timing mask is
    approximate for mutually-constrained pairs, the cheapest candidates
    are confirmed with :meth:`~repro.engine.delta.DeltaCache.exact_swap_feasible` in score
    order until one passes.
    """
    n = engine.n
    swap = swap_delta_matrix(engine)
    mask = swap_capacity_mask(engine) & swap_timing_mask(engine)
    same = engine.part[:, None] == engine.part[None, :]
    mask &= ~same
    mask[locked, :] = False
    mask[:, locked] = False
    # Keep the upper triangle only: (j1, j2) and (j2, j1) are one swap.
    mask &= np.triu(np.ones((n, n), dtype=bool), k=1)
    if not mask.any():
        return None

    scores = np.where(mask, swap, np.inf)
    flat = scores.ravel()
    # Validate candidates cheapest-first; almost always the first passes.
    for _ in range(64):
        idx = int(np.argmin(flat))
        if not np.isfinite(flat[idx]):
            return None
        j1, j2 = divmod(idx, n)
        if engine.exact_swap_feasible(j1, j2):
            return j1, j2, float(flat[idx])
        flat[idx] = np.inf
    return None
