"""Per-row reference for the move kernel.

The engine tests check :class:`~repro.engine.delta.DeltaCache`'s
whole-array kernel against these loops: one ``move_deltas(j)`` call per
component for the move deltas, one pass over the problem's timing
constraints per component for the violation counts, and a flat scan for
the best feasible move.
"""

from __future__ import annotations

from typing import Optional, Tuple

import numpy as np

TOL = 1e-8
"""Absolute tolerance on a move delta (the loop sums in another order)."""


def move_delta_rows(cache) -> np.ndarray:
    """``(N, M)`` move deltas, one ``cache.move_deltas(j)`` row at a time."""
    return np.array([cache.move_deltas(j) for j in range(cache.n)])


def timing_block_row(cache, j: int) -> np.ndarray:
    """Timing constraints violated by moving ``j`` to each partition."""
    row = np.zeros(cache.m, dtype=np.int32)
    part, delay = cache.part, cache.D
    for j1, j2, budget in cache.problem.timing.items():
        if j1 == j:
            row += delay[:, part[j2]] > budget
        elif j2 == j:
            row += delay[part[j1], :] > budget
    return row


def timing_block(cache) -> np.ndarray:
    """``(N, M)`` violation counts, one constraint at a time."""
    block = np.zeros((cache.n, cache.m), dtype=np.int32)
    for j in range(cache.n):
        block[j, :] = timing_block_row(cache, j)
    return block


def best_move(
    cache, locked: Optional[np.ndarray] = None
) -> Optional[Tuple[int, int, float]]:
    """The feasible non-trivial move with the smallest oracle delta.

    Scans candidates in flat ``(component, partition)`` order and keeps
    the first minimum, the tie-break of a flat argmin.
    """
    delta = move_delta_rows(cache)
    block = timing_block(cache)
    loads = np.bincount(cache.part, weights=cache.sizes, minlength=cache.m)
    best = None
    for j in range(cache.n):
        if locked is not None and locked[j]:
            continue
        for i in range(cache.m):
            if i == cache.part[j] or block[j, i]:
                continue
            if cache.sizes[j] > cache.capacities[i] - loads[i] + 1e-9:
                continue
            if best is None or delta[j, i] < best[2]:
                best = (j, i, float(delta[j, i]))
    return best


def assert_matches_oracle(cache, locked: Optional[np.ndarray] = None) -> None:
    """The cache's maintained state and best move agree with the loops."""
    assert np.allclose(cache.delta, move_delta_rows(cache), rtol=0.0, atol=TOL)
    assert np.array_equal(cache.timing_block, timing_block(cache))
    loads = np.bincount(cache.part, weights=cache.sizes, minlength=cache.m)
    assert np.allclose(cache.loads, loads)
    expected = best_move(cache, locked)
    chosen = cache.best_move(locked)
    if expected is None:
        assert chosen is None
    else:
        assert chosen is not None
        assert chosen[:2] == expected[:2]
        assert abs(chosen[2] - expected[2]) <= TOL
