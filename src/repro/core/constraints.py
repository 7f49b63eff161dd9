"""Constraint checking: C1 (capacity), C2 (timing), C3 (GUB).

C3 is structural for :class:`~repro.core.assignment.Assignment` (every
component maps to exactly one partition), so the checkers here cover C1
and C2 and produce machine-readable violation reports used by the
solvers, the harness's final-solution audit, and the test suite.

:class:`TimingIndex` is the per-component adjacency view of a
:class:`~repro.timing.TimingConstraints` set that the move-based solvers
(GFM/GKL) use to answer "may component ``j`` move to partition ``i``
without violating timing?" in time proportional to ``j``'s constraint
degree.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Sequence, Tuple

import numpy as np

from repro.core.assignment import Assignment
from repro.core.problem import PartitioningProblem
from repro.timing.constraints import TimingConstraints


@dataclass(frozen=True)
class FeasibilityReport:
    """Outcome of a full feasibility check."""

    capacity_violations: Tuple[Tuple[int, float, float], ...]
    timing_violations: Tuple[Tuple[int, int, float, float], ...]

    @property
    def feasible(self) -> bool:
        """``True`` when no constraint of any kind is violated."""
        return not self.capacity_violations and not self.timing_violations

    def summary(self) -> str:
        """One-line human-readable summary."""
        if self.feasible:
            return "feasible"
        return (
            f"{len(self.capacity_violations)} capacity violation(s), "
            f"{len(self.timing_violations)} timing violation(s)"
        )


def partition_loads(
    assignment: Assignment | Sequence[int], sizes: np.ndarray, num_partitions: int
) -> np.ndarray:
    """Total assigned size per partition (length ``M``)."""
    part = assignment.part if isinstance(assignment, Assignment) else np.asarray(assignment, dtype=int)
    sizes = np.asarray(sizes, dtype=float)
    if part.shape != sizes.shape:
        raise ValueError(
            f"assignment length {part.shape} does not match sizes {sizes.shape}"
        )
    return np.bincount(part, weights=sizes, minlength=num_partitions)


def capacity_violations(
    assignment: Assignment | Sequence[int],
    sizes: np.ndarray,
    capacities: np.ndarray,
) -> List[Tuple[int, float, float]]:
    """C1 violations: ``(partition, load, capacity)`` for overloaded partitions."""
    capacities = np.asarray(capacities, dtype=float)
    loads = partition_loads(assignment, sizes, capacities.size)
    out = []
    for i in np.flatnonzero(loads > capacities + 1e-9):
        out.append((int(i), float(loads[i]), float(capacities[i])))
    return out


def check_feasibility(
    problem: PartitioningProblem, assignment: Assignment | Sequence[int]
) -> FeasibilityReport:
    """Full C1+C2 check of ``assignment`` against ``problem``."""
    part = problem.validate_assignment_shape(
        assignment.part if isinstance(assignment, Assignment) else assignment
    )
    cap = capacity_violations(part, problem.sizes(), problem.capacities())
    tim = problem.timing.violations(part, problem.delay_matrix)
    return FeasibilityReport(
        capacity_violations=tuple(cap), timing_violations=tuple(tim)
    )


class TimingIndex:
    """Per-component view of timing constraints for O(degree) move checks.

    For each component ``j`` this stores the constraints in which ``j``
    participates, split into outgoing (``j`` is the source, the budget
    bounds ``D[A(j), A(k)]``) and incoming (``j`` is the target).
    """

    def __init__(self, constraints: TimingConstraints, delay_matrix: np.ndarray) -> None:
        self.delay = np.asarray(delay_matrix, dtype=float)
        n = constraints.num_components
        self.num_components = n
        self._out: List[List[Tuple[int, float]]] = [[] for _ in range(n)]
        self._in: List[List[Tuple[int, float]]] = [[] for _ in range(n)]
        for j1, j2, budget in constraints.items():
            self._out[j1].append((j2, budget))
            self._in[j2].append((j1, budget))

    def degree(self, j: int) -> int:
        """Number of constraints touching component ``j``."""
        return len(self._out[j]) + len(self._in[j])

    def constrained_components(self) -> List[int]:
        """Components that participate in at least one constraint."""
        return [j for j in range(self.num_components) if self.degree(j) > 0]

    # ------------------------------------------------------------------
    def move_is_feasible(
        self, part: np.ndarray, j: int, new_i: int, *, ignore: int | None = None
    ) -> bool:
        """C2 check for moving component ``j`` to partition ``new_i``.

        ``ignore`` (used by swap checking) names one counterpart
        component whose constraints are validated elsewhere.
        """
        delay = self.delay
        # Self-constraints are rejected at construction, so k != j always.
        for k, budget in self._out[j]:
            if k != ignore and delay[new_i, part[k]] > budget:
                return False
        for k, budget in self._in[j]:
            if k != ignore and delay[part[k], new_i] > budget:
                return False
        return True

    def swap_is_feasible(self, part: np.ndarray, j1: int, j2: int) -> bool:
        """C2 check for exchanging the partitions of ``j1`` and ``j2``."""
        i1, i2 = int(part[j1]), int(part[j2])
        if i1 == i2:
            return True
        # Constraints against third components, with each other excluded.
        if not self.move_is_feasible(part, j1, i2, ignore=j2):
            return False
        if not self.move_is_feasible(part, j2, i1, ignore=j1):
            return False
        # The mutual constraints, evaluated at the post-swap locations.
        delay = self.delay
        for k, budget in self._out[j1]:
            if k == j2 and delay[i2, i1] > budget:
                return False
        for k, budget in self._in[j1]:
            if k == j2 and delay[i1, i2] > budget:
                return False
        return True


def timing_move_mask(
    constraints: TimingConstraints, delay_matrix: np.ndarray, anchor: Sequence[int], num_partitions: int
) -> np.ndarray:
    """Vectorised single-move C2 feasibility against an anchor assignment.

    Returns a boolean ``(N, M)`` matrix whose ``[j, i]`` entry says:
    with every *other* component at its ``anchor`` position, may
    component ``j`` sit in partition ``i`` without violating any of its
    timing constraints?  This is the matrix of "(M-1) gain entry"
    feasibilities that GFM uses, and the trust-region mask the QBP
    solver hands to the inner GAP.
    """
    part = np.asarray(anchor, dtype=int)
    n = constraints.num_components
    delay = np.asarray(delay_matrix, dtype=float)
    violated = np.zeros((n, num_partitions), dtype=np.int32)
    t_src, t_dst, t_budget = constraints.arrays()
    if t_src.size:
        # Mover = source of the constraint: D[i, anchor(target)] <= budget.
        src_side = (delay.T[part[t_dst], :] > t_budget[:, None]).astype(np.int32)
        np.add.at(violated, t_src, src_side)
        # Mover = target of the constraint: D[anchor(source), i] <= budget.
        dst_side = (delay[part[t_src], :] > t_budget[:, None]).astype(np.int32)
        np.add.at(violated, t_dst, dst_side)
    return violated == 0


@dataclass
class CapacityTracker:
    """Mutable per-partition load tracker used by move-based solvers.

    Keeps ``loads`` synchronised with an evolving assignment so that
    capacity feasibility of a candidate move is an O(1) question.
    """

    sizes: np.ndarray
    capacities: np.ndarray
    loads: np.ndarray = field(init=False)

    def __post_init__(self) -> None:
        self.sizes = np.asarray(self.sizes, dtype=float)
        self.capacities = np.asarray(self.capacities, dtype=float)
        self.loads = np.zeros_like(self.capacities)

    @classmethod
    def for_assignment(
        cls, assignment: Assignment, sizes: np.ndarray, capacities: np.ndarray
    ) -> "CapacityTracker":
        tracker = cls(sizes, capacities)
        tracker.loads = partition_loads(assignment, tracker.sizes, tracker.capacities.size)
        return tracker

    def apply_move(self, j: int, old_i: int, new_i: int) -> None:
        """Record that component ``j`` moved from ``old_i`` to ``new_i``."""
        self.loads[old_i] -= self.sizes[j]
        self.loads[new_i] += self.sizes[j]
