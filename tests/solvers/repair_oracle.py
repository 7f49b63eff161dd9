"""Reference min-conflicts repair for checking :mod:`repro.solvers.repair`.

:func:`repair_feasibility` and :func:`_swap_step` are the numpy forms of
the production repair: conflict counts by fancy indexing over
per-component constraint arrays, a full conflict row per step, and one
``conflicts`` call per partition when ranking swap targets.  Given the
same input and the same generator, the production repair must return
the same assignment (or ``None``) and leave the generator in the same
state, so every random draw happens in the same number and order.
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
) -> Optional[Assignment]:
    """Try to drive ``assignment`` to zero timing violations.

    The input must be capacity-feasible; every move keeps it so.
    Returns a fully feasible assignment, or ``None`` when the move
    budget is exhausted first.

    When an :class:`~repro.core.objective.ObjectiveEvaluator` is passed
    as ``evaluator``, conflict-count ties between candidate moves are
    broken by objective delta, so the repaired solution stays close in
    cost to the input (used by the QBP iterate projection).
    """
    part = problem.validate_assignment_shape(assignment.part).copy()
    if not problem.has_timing:
        return Assignment(part, problem.num_partitions)

    rng = ensure_rng(seed)
    index = TimingIndex(problem.timing, problem.delay_matrix)
    sizes = problem.sizes()
    capacities = problem.capacities()
    m = problem.num_partitions
    loads = partition_loads(part, sizes, m)
    delay = problem.delay_matrix
    t_src, t_dst, t_budget = problem.timing.arrays()

    # Per-component numpy views of the constraint lists, for vectorised
    # conflict counting (the hot path of the whole repair).
    out_arr = [
        (
            np.array([k for k, _ in index._out[j]], dtype=int),
            np.array([b for _, b in index._out[j]], dtype=float),
        )
        for j in range(index.num_components)
    ]
    in_arr = [
        (
            np.array([k for k, _ in index._in[j]], dtype=int),
            np.array([b for _, b in index._in[j]], dtype=float),
        )
        for j in range(index.num_components)
    ]

    def conflicts(j: int, at: int) -> int:
        """Violated constraints touching j if j were at partition ``at``."""
        ks, bs = out_arr[j]
        count = int((delay[at, part[ks]] > bs).sum()) if ks.size else 0
        ks, bs = in_arr[j]
        if ks.size:
            count += int((delay[part[ks], at] > bs).sum())
        return count

    def conflict_row(j: int) -> np.ndarray:
        """Violation counts for every candidate partition at once."""
        row = np.zeros(m, dtype=np.int64)
        ks, bs = out_arr[j]
        if ks.size:
            row += (delay[:, part[ks]] > bs[None, :]).sum(axis=1)
        ks, bs = in_arr[j]
        if ks.size:
            row += (delay[part[ks], :].T > bs[None, :]).sum(axis=1)
        return row

    def violating_components() -> list[int]:
        """Components participating in any violated constraint (vectorised)."""
        violated = delay[part[t_src], part[t_dst]] > t_budget
        if not violated.any():
            return []
        hot = np.union1d(t_src[violated], t_dst[violated])
        return hot.tolist()

    initial_violated = (
        int((delay[part[t_src], part[t_dst]] > t_budget).sum()) if t_src.size else 0
    )
    hot = violating_components()
    moves = 0
    stall = 0
    while hot and moves < max_moves:
        j = hot[int(rng.integers(0, len(hot)))]
        here = int(part[j])
        current = conflicts(j, here)
        if current == 0:
            # Stale entry (a partner's move resolved it); drop and go on.
            hot.remove(j)
            continue
        best_i, best_c = here, current
        best_delta = 0.0
        row = conflict_row(j)
        fits = loads + sizes[j] <= capacities + 1e-9
        order = rng.permutation(m)
        for i in order:
            i = int(i)
            if i == here or not fits[i]:
                continue
            c = int(row[i])
            if c > best_c:
                continue
            delta = (
                float(evaluator.move_delta(part, j, i)) if evaluator is not None else 0.0
            )
            if c < best_c or (evaluator is not None and delta < best_delta - 1e-12):
                best_i, best_c, best_delta = i, c, delta
        if best_i != here:
            part[j] = best_i
            loads[here] -= sizes[j]
            loads[best_i] += sizes[j]
            stall = 0
        elif _swap_step(
            j, part, loads, sizes, capacities, conflicts, index, rng
        ):
            stall = 0
        else:
            stall += 1
            if stall > 20:
                # Local minimum: random capacity-feasible kick of j.
                fits = np.flatnonzero(loads + sizes[j] <= capacities + 1e-9)
                fits = fits[fits != here]
                if fits.size:
                    target = int(rng.choice(fits))
                    part[j] = target
                    loads[here] -= sizes[j]
                    loads[target] += sizes[j]
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


def _swap_step(j, part, loads, sizes, capacities, conflicts, index, rng) -> bool:
    """Try to reduce ``j``'s conflicts by swapping with another component.

    Handles the case where ``j``'s best destination is capacity-blocked:
    exchanging ``j`` with a resident of that partition sidesteps the
    block.  Applies the first swap that strictly reduces the two
    components' combined conflict count (evaluated post-swap) while
    keeping both capacities satisfied; returns whether a swap happened.
    """
    here = int(part[j])
    m = capacities.size
    current_j = conflicts(j, here)
    # Partitions ranked by how conflict-free they'd be for j.
    ranking = sorted(
        (i for i in range(m) if i != here),
        key=lambda i: (conflicts(j, i), rng.random()),
    )
    for i in ranking[:4]:
        gain_target = conflicts(j, i)
        if gain_target >= current_j:
            break
        members = np.flatnonzero(part == i)
        if members.size == 0:
            continue
        members = members[rng.permutation(members.size)]
        for k in members[:8]:
            k = int(k)
            if loads[i] - sizes[k] + sizes[j] > capacities[i] + 1e-9:
                continue
            if loads[here] - sizes[j] + sizes[k] > capacities[here] + 1e-9:
                continue
            before = current_j + conflicts(k, i)
            # Evaluate after-positions with the swap applied.
            part[j], part[k] = i, here
            after = conflicts(j, i) + conflicts(k, here)
            if after < before:
                loads[i] += sizes[j] - sizes[k]
                loads[here] += sizes[k] - sizes[j]
                return True
            part[j], part[k] = here, i
    return False
