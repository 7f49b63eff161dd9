"""GFM: generalized Fiduccia-Mattheyses single-move heuristic (Section 5).

The paper's first baseline: "a generalization of Fiduccia & Mattheyses'
approach, moving one component at a time.  Associated with each
component are (M - 1) gain entries, each entry representing the
potential gain if that component is moved to the corresponding
partition."  Generalizations over classic FM:

* M-way instead of 2-way,
* arbitrary interconnection cost (any ``B``), not just cut counting,
* moves are admitted only when they keep the solution violation-free
  (C1 and C2), so a feasible start yields a feasible result.

Structure per pass (classic FM): every component starts unlocked; the
best feasible move (largest gain, possibly negative - FM's
hill-climbing) is applied and its component locked; at the end of the
pass the solution rolls back to the best prefix.  Passes repeat until a
pass yields no improvement ("runs till no more improvement is
possible").

The rollback is one :meth:`~repro.engine.delta.DeltaCache.apply_moves`
call: the moves beyond the best prefix, last first.  The kernel does
their bookkeeping in that order, so the loads are the floats undoing
them one by one would give, and refreshes the union of their footprints
once; a refreshed row is recomputed from the final assignment over the
same nonzeros in the same order as a full rebuild, so the rows are the
same floats too.  Only the state after the last undo is ever read.
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


def gfm_partition(
    problem: PartitioningProblem,
    initial: Assignment,
    *,
    max_passes: int = 50,
    max_moves_per_pass: Optional[int] = None,
    min_gain: float = 1e-9,
    budget: Optional[Budget] = None,
    telemetry: Optional[Telemetry] = None,
) -> InterchangeResult:
    """Run GFM from a feasible ``initial`` assignment.

    Parameters
    ----------
    initial:
        Must be C1+C2 feasible (the paper obtains it from QBP with
        ``B = 0``); raises ``ValueError`` otherwise.
    max_passes:
        Safety bound on outer passes; the natural exit is a pass with no
        net improvement.
    max_moves_per_pass:
        Optional cap on moves inside one pass (``None`` = until no
        unlocked feasible move remains, the classic FM rule).
    min_gain:
        Minimum net pass improvement to continue iterating.
    budget:
        Optional :class:`repro.runtime.budget.Budget`, checked per pass
        and per move.  A budget stop still rolls the interrupted pass
        back to its best prefix, so the result never worsens and
        ``stop_reason`` records why the run ended early.
    telemetry:
        Optional :class:`~repro.obs.telemetry.Telemetry`; ``None`` uses
        the ambient instance.  Each pass emits an ``IterationEvent``
        (``solver="gfm"``) and bumps the ``solver.passes`` counter.
    """
    report = check_feasibility(problem, initial)
    if not report.feasible:
        raise ValueError(f"GFM needs a feasible initial solution: {report.summary()}")

    tel = resolve_telemetry(telemetry)
    start = time.perf_counter()
    engine = DeltaCache(problem, initial)
    initial_cost = engine.current_cost()
    pass_costs: List[float] = []
    total_moves = 0
    passes = 0
    stop_reason = STOP_COMPLETED

    with tel.span("gfm.solve", components=engine.n, max_passes=max_passes) as span:
        for _ in range(max_passes):
            if budget is not None:
                reason = budget.check()
                if reason is not None:
                    stop_reason = reason
                    break
            passes += 1
            improvement, moves = _run_pass(engine, max_moves_per_pass, budget)
            total_moves += moves
            pass_costs.append(engine.current_cost())
            if tel.enabled:
                tel.counter("solver.passes").inc()
                tel.emit(
                    IterationEvent(
                        solver="gfm",
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
        moves_applied=total_moves,
        feasible=feasible,
        elapsed_seconds=time.perf_counter() - start,
        pass_costs=pass_costs,
        stop_reason=stop_reason,
    )


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

    # Roll back every move beyond the best prefix, last move first.
    engine.apply_moves(reversed(trail[best_prefix:]))
    return best_cumulative, best_prefix
