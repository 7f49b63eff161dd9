"""Reference GFM pass for checking :mod:`repro.baselines.gfm`.

:func:`_run_pass` rolls a pass back one :meth:`~repro.engine.delta.DeltaCache.apply_move`
at a time, each move refreshing its own footprint.  The production pass
rolls back with one :meth:`~repro.engine.delta.DeltaCache.apply_moves`
call that refreshes the union of the footprints once; it must end every
pass in the same state, bit for bit.
"""

from __future__ import annotations

from typing import List, Optional, Tuple

import numpy as np

from repro.engine.delta import DeltaCache
from repro.runtime.budget import Budget


def _run_pass(
    engine: DeltaCache, max_moves: Optional[int], budget: Optional[Budget] = None
) -> Tuple[float, int]:
    """One FM pass with locking and best-prefix rollback.

    Returns ``(net_improvement, moves_kept)``.  An exhausted ``budget``
    ends the pass early; the rollback below still restores the best
    prefix, so interruption never degrades the solution.
    """
    n = engine.n
    locked = np.zeros(n, dtype=bool)
    trail: List[Tuple[int, int]] = []  # (component, previous partition)
    cumulative = 0.0
    best_cumulative = 0.0
    best_prefix = 0
    limit = n if max_moves is None else min(n, max_moves)

    while len(trail) < limit:
        if budget is not None and budget.check() is not None:
            break
        move = engine.best_move(locked)
        if move is None:
            break
        j, target, delta = move
        previous = int(engine.part[j])
        engine.apply_move(j, target)
        locked[j] = True
        trail.append((j, previous))
        cumulative -= delta  # gain = -delta
        if cumulative > best_cumulative + 1e-12:
            best_cumulative = cumulative
            best_prefix = len(trail)

    # Roll back every move beyond the best prefix.
    for j, previous in reversed(trail[best_prefix:]):
        engine.apply_move(j, previous)
    return best_cumulative, best_prefix
