"""Feasibility repair: a min-conflicts finisher for the bootstrap.

The paper obtains initial feasible solutions by running QBP with
``B = 0`` "for a few iterations".  The zero-``B`` Burkard iteration
drives violation counts down globally but - being a global reassignment
heuristic - can stall with a small residue of violated constraints.
:func:`repair_feasibility` finishes the job with min-conflicts local
search: repeatedly relocate a violation-participating component to the
capacity-feasible partition that minimises its violated-constraint
count, with seeded random restarts out of local minima.

This composes with (not replaces) the paper's bootstrap; see
:func:`repro.solvers.burkard.bootstrap_initial_solution`.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.core.assignment import Assignment
from repro.core.constraints import TimingIndex, partition_loads
from repro.core.problem import PartitioningProblem
from repro.obs.telemetry import resolve as resolve_telemetry
from repro.utils.rng import RandomSource, ensure_rng


def repair_feasibility(
    problem: PartitioningProblem,
    assignment: Assignment,
    *,
    max_moves: int = 20000,
    seed: RandomSource = None,
    evaluator=None,
    index: Optional[TimingIndex] = None,
) -> Optional[Assignment]:
    """Try to drive ``assignment`` to zero timing violations.

    The input must be capacity-feasible; every move keeps it so.
    Returns a fully feasible assignment, or ``None`` when the move
    budget is exhausted first.

    When an :class:`~repro.core.objective.ObjectiveEvaluator` is passed
    as ``evaluator``, conflict-count ties between candidate moves are
    broken by objective delta, so the repaired solution stays close in
    cost to the input (used by the QBP iterate projection).  ``index``
    is a prebuilt :class:`TimingIndex` of ``problem``, as for
    :func:`feasible_merge`; ``None`` builds one.

    Each step makes these random draws from ``seed``, in order:

    1. one ``integers`` call picks a component among those in
       violation.  If none of its constraints is violated any more, it
       is dropped and the step ends there, without counting a move;
    2. one ``permutation(M)`` orders its candidate destinations;
    3. when no move lowers its conflict count, :func:`_swap_step`
       draws one ``random()`` per other partition, in partition order
       (the ranking's tie-break), then one ``permutation`` of the
       members of each partition it tries, in ranking order, skipping
       empty ones;
    4. when neither helped for more than 20 steps in a row, one
       ``choice`` over the other partitions that fit the component
       kicks it there (no draw when none fits).
    """
    part = problem.validate_assignment_shape(assignment.part).copy()
    if not problem.has_timing:
        return Assignment(part, problem.num_partitions)

    rng = ensure_rng(seed)
    if index is None:
        index = TimingIndex(problem.timing, problem.delay_matrix)
    sizes = problem.sizes()
    size = sizes.tolist()
    cap = problem.capacities().tolist()
    m = problem.num_partitions
    loads = partition_loads(part, sizes, m).tolist()
    delay = problem.delay_matrix
    t_src, t_dst, t_budget = problem.timing.arrays()
    rows, cols = delay.tolist(), delay.T.tolist()  # delay[a, b] = rows[a][b] = cols[b][a]
    initial_violated = (
        int((delay[part[t_src], part[t_dst]] > t_budget).sum()) if t_src.size else 0
    )
    part = part.tolist()

    def conflicts(j: int, at: int) -> int:
        """Violated constraints touching j if j were at partition ``at``."""
        count = 0
        row = rows[at]
        for k, bound in index._out[j]:
            if row[part[k]] > bound:
                count += 1
        col = cols[at]
        for k, bound in index._in[j]:
            if col[part[k]] > bound:
                count += 1
        return count

    def conflict_row(j: int) -> list:
        """``conflicts(j, i)`` for every partition ``i``."""
        counts = [0] * m
        for k, bound in index._out[j]:
            counts = [c + (d > bound) for c, d in zip(counts, cols[part[k]])]
        for k, bound in index._in[j]:
            counts = [c + (d > bound) for c, d in zip(counts, rows[part[k]])]
        return counts

    def violating_components() -> list[int]:
        """Components participating in any violated constraint (vectorised)."""
        at = np.array(part)
        violated = delay[at[t_src], at[t_dst]] > t_budget
        if not violated.any():
            return []
        return np.union1d(t_src[violated], t_dst[violated]).tolist()

    hot = violating_components()
    moves = 0
    stall = 0
    while hot and moves < max_moves:
        j = hot[int(rng.integers(0, len(hot)))]
        here = part[j]
        current = conflicts(j, here)
        if current == 0:
            # Stale entry (a partner's move resolved it); drop and go on.
            hot.remove(j)
            continue
        best_i, best_c = here, current
        best_delta = 0.0
        row = conflict_row(j)
        s = size[j]
        for i in rng.permutation(m).tolist():
            if i == here or loads[i] + s > cap[i] + 1e-9:
                continue
            c = row[i]
            if c > best_c:
                continue
            delta = (
                float(evaluator.move_delta(part, j, i)) if evaluator is not None else 0.0
            )
            if c < best_c or (evaluator is not None and delta < best_delta - 1e-12):
                best_i, best_c, best_delta = i, c, delta
        if best_i != here:
            part[j] = best_i
            loads[here] -= s
            loads[best_i] += s
            stall = 0
        elif _swap_step(j, part, loads, size, cap, conflicts, row, rng):
            stall = 0
        else:
            stall += 1
            if stall > 20:
                # Local minimum: random capacity-feasible kick of j.
                fits = [i for i in range(m) if i != here and loads[i] + s <= cap[i] + 1e-9]
                if fits:
                    target = int(rng.choice(fits))
                    part[j] = target
                    loads[here] -= s
                    loads[target] += s
                stall = 0
        moves += 1
        if moves % 64 == 0 or best_c == 0:
            hot = violating_components()

    if violating_components():
        return None
    tel = resolve_telemetry(None)
    if tel.enabled and initial_violated:
        tel.counter("timing.violations_repaired").inc(initial_violated)
    return Assignment(part, m)


def feasible_merge(
    problem: PartitioningProblem,
    base: Assignment,
    target: Assignment,
    *,
    evaluator=None,
    passes: int = 3,
    index: Optional[TimingIndex] = None,
) -> Assignment:
    """Walk from feasible ``base`` toward ``target`` without losing feasibility.

    Used by the QBP solver to project a (typically slightly infeasible)
    GAP iterate onto the feasible region: starting from the incumbent
    feasible solution, every component on which the two differ is moved
    to its target partition *if* the move keeps C1 and C2 satisfied.
    Blocked moves are retried on later passes (an earlier move can
    unblock them).  The result is feasible by construction and adopts as
    much of the target's structure as constraints allow.

    When ``evaluator`` is given, moves are attempted in ascending
    objective-delta order each pass, so the cheapest differences land
    first.
    """
    part = problem.validate_assignment_shape(base.part).copy()
    target_part = problem.validate_assignment_shape(target.part)
    if index is None:
        index = TimingIndex(problem.timing, problem.delay_matrix)
    sizes = problem.sizes()
    capacities = problem.capacities()
    m = problem.num_partitions
    loads = partition_loads(part, sizes, m)

    for _ in range(max(1, passes)):
        pending = np.flatnonzero(part != target_part)
        if pending.size == 0:
            break
        if evaluator is not None:
            deltas = np.array(
                [evaluator.move_delta(part, int(j), int(target_part[j])) for j in pending]
            )
            pending = pending[np.argsort(deltas, kind="stable")]
        moved_any = False
        for j in pending:
            j = int(j)
            i = int(target_part[j])
            if loads[i] + sizes[j] > capacities[i] + 1e-9:
                continue
            if not index.move_is_feasible(part, j, i):
                continue
            loads[part[j]] -= sizes[j]
            loads[i] += sizes[j]
            part[j] = i
            moved_any = True
        if not moved_any:
            break
    return Assignment(part, m)


def _swap_step(j, part, loads, size, cap, conflicts, counts, rng) -> bool:
    """Try to reduce ``j``'s conflicts by swapping with another component.

    Handles the case where ``j``'s best destination is capacity-blocked:
    exchanging ``j`` with a resident of that partition sidesteps the
    block.  Applies the first swap that strictly reduces the two
    components' combined conflict count (evaluated post-swap) while
    keeping both capacities satisfied; returns whether a swap happened.
    ``counts[i]`` is ``conflicts(j, i)`` for every partition ``i``; a
    rejected trial swap is undone before the next, so it stays valid.
    """
    here = part[j]
    current_j = counts[here]
    # Partitions ranked by how conflict-free they'd be for j.
    ranking = sorted(
        (i for i in range(len(cap)) if i != here),
        key=lambda i: (counts[i], rng.random()),
    )
    for i in ranking[:4]:
        if counts[i] >= current_j:
            break
        members = [k for k, at in enumerate(part) if at == i]
        if not members:
            continue
        for r in rng.permutation(len(members))[:8].tolist():
            k = members[r]
            if loads[i] - size[k] + size[j] > cap[i] + 1e-9:
                continue
            if loads[here] - size[j] + size[k] > cap[here] + 1e-9:
                continue
            before = current_j + conflicts(k, i)
            # Evaluate after-positions with the swap applied.
            part[j], part[k] = i, here
            after = conflicts(j, i) + conflicts(k, here)
            if after < before:
                loads[i] += size[j] - size[k]
                loads[here] += size[k] - size[j]
                return True
            part[j], part[k] = here, i
    return False
