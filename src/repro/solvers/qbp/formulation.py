"""Formulation-side pieces of the generalized Burkard solver.

Penalty resolution (Section 3.2), the STEP 2 omega bounds (eq. 2), and
:class:`IterationState` — the per-solve view that evaluates the STEP 3
``eta`` rows through the shared :class:`~repro.engine.delta.DeltaCache`
kernel instead of a private sparse implementation.
"""

from __future__ import annotations

import numpy as np

from repro.core.assignment import Assignment
from repro.core.constraints import capacity_violations
from repro.core.objective import ObjectiveEvaluator
from repro.core.problem import PartitioningProblem
from repro.engine.delta import ETA_MODES, DeltaCache

PAPER_PENALTY = 50.0
"""The fixed penalty value used in the paper's experiments."""

DEFAULT_GAP_CRITERIA = ("cost", "cost_per_size")
"""Desirability criteria for the inner GAP solves (speed/quality balance)."""


def resolve_penalty(problem: PartitioningProblem, penalty) -> float:
    """Resolve a penalty specification to a number.

    * ``None`` - auto-scale: strictly above twice the largest possible
      single-pair cost, so rejecting one violation always pays,
    * ``"paper"`` - the paper's fixed 50,
    * ``"theorem1"`` - the exact-embedding constant
      ``U = 2 * sum|q| + 1`` computed without materialising ``Q``,
    * a number - used as-is.
    """
    if isinstance(penalty, str):
        if penalty == "paper":
            return PAPER_PENALTY
        if penalty == "theorem1":
            sum_a = float(problem.circuit.sparse_connection_matrix().sum())
            sum_b = float(problem.cost_matrix.sum())
            total = problem.beta * sum_a * sum_b
            p = problem.linear_cost_matrix()
            if p is not None:
                total += problem.alpha * float(np.abs(p).sum())
            return 2.0 * total + 1.0
        raise ValueError(f"unknown penalty spec {penalty!r}")
    if penalty is None:
        max_wire = max((w.weight for w in problem.circuit.wires()), default=0.0)
        max_b = float(problem.cost_matrix.max()) if problem.cost_matrix.size else 0.0
        auto = 2.0 * problem.beta * max_wire * max_b
        p = problem.linear_cost_matrix()
        if p is not None and p.size:
            auto += problem.alpha * float(p.max())
        return auto + 1.0
    value = float(penalty)
    if value < 0:
        raise ValueError(f"penalty must be >= 0, got {value}")
    return value


class IterationState:
    """Per-solve view over the shared kernel used by every iteration.

    Thin by design: the sparse row products and the timing-penalty fold
    live in :class:`~repro.engine.delta.DeltaCache` (one implementation
    for solver and baselines alike); this class binds them to a solve's
    ``(penalty, eta_mode)`` and carries the STEP 2 omega bounds.
    """

    def __init__(
        self,
        problem: PartitioningProblem,
        evaluator: ObjectiveEvaluator,
        penalty: float,
        eta_mode: str,
    ) -> None:
        self.problem = problem
        self.penalty = penalty
        self.eta_mode = eta_mode
        self.kernel = DeltaCache(problem, evaluator=evaluator)
        self.alpha, self.beta = problem.alpha, problem.beta
        self.B = self.kernel.B
        self.D = self.kernel.D
        self.P = self.kernel.P
        self.A = self.kernel._A
        self.t_src = self.kernel.t_src
        self.t_wire = self.kernel.t_wire
        self.timing_index = self.kernel.timing_index
        self.omega = self._omega_bound()

    def eta(self, part: np.ndarray) -> np.ndarray:
        """STEP 3: the ``(N, M)`` matrix ``eta[j, i] = sum_r qhat[r, s] u_r``.

        Delegates to the shared kernel (sparse, ``Q`` never
        materialised; see :meth:`repro.engine.delta.DeltaCache.eta`).
        """
        return self.kernel.eta(part, mode=self.eta_mode, penalty=self.penalty)

    def _omega_bound(self) -> np.ndarray:
        """STEP 2: the ``(N, M)`` upper bounds of eq. (2).

        ``omega[(i1, j1)]`` bounds ``sum_s qhat[(i1,j1), s] y_s`` for any
        ``y in S``: each component ``j2`` contributes at most
        ``max_i2 qhat[(i1,j1), (i2,j2)]``, bounded by the row maximum of
        ``B`` times the wire weight (or the penalty for constrained
        pairs), plus the candidate's own diagonal linear cost.
        """
        n, m = self.problem.num_components, self.problem.num_partitions
        row_max_b = self.B.max(axis=1) if self.B.size else np.zeros(m)
        w_out = np.asarray(self.A.sum(axis=1)).ravel()
        w_out_constrained = np.zeros(n)
        if self.t_src.size:
            np.add.at(w_out_constrained, self.t_src, self.t_wire)
        w_free = np.maximum(w_out - w_out_constrained, 0.0)
        omega = self.beta * w_free[:, None] * row_max_b[None, :]
        if self.t_src.size:
            contrib = np.maximum(
                self.beta * self.t_wire[:, None] * row_max_b[None, :], self.penalty
            )
            np.add.at(omega, self.t_src, contrib)
        if self.P is not None and self.alpha:
            omega = omega + self.alpha * self.P.T
        return omega


def validated_initial(problem: PartitioningProblem, initial: Assignment) -> Assignment:
    """Validate a caller-provided ``u(1)`` lies in S (C1 + C3)."""
    part = problem.validate_assignment_shape(initial.part)
    violations = capacity_violations(part, problem.sizes(), problem.capacities())
    if violations:
        raise ValueError(
            f"initial assignment violates capacity in {len(violations)} partition(s); "
            "u(1) must lie in S (C1 + C3)"
        )
    return Assignment(part, problem.num_partitions)


def is_fully_feasible(
    problem: PartitioningProblem, evaluator: ObjectiveEvaluator, part: np.ndarray
) -> bool:
    """Full C1+C2 feasibility of ``part`` (the STEP 7 audit predicate)."""
    if evaluator.timing_violation_count(part) > 0:
        return False
    return not capacity_violations(part, problem.sizes(), problem.capacities())


__all__ = [
    "DEFAULT_GAP_CRITERIA",
    "ETA_MODES",
    "IterationState",
    "PAPER_PENALTY",
    "is_fully_feasible",
    "resolve_penalty",
    "validated_initial",
]
