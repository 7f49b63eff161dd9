"""Objective evaluation for ``PP(alpha, beta)``.

The objective (paper equation (1)) is::

    alpha * sum_j P[A(j), j]  +  beta * sum_{j1, j2} a[j1, j2] * B[A(j1), A(j2)]

:class:`ObjectiveEvaluator` computes it vectorised from the sparse wire
list, and additionally provides

* the *penalized* cost ``yT Q_hat y`` used by the QBP solver, where every
  timing-violating candidate pair contributes the embedding penalty
  instead of its ``a*b`` product (Section 3.2),
* exact incremental deltas for single-component moves and pairwise swaps
  - the shared machinery under the GFM and GKL baselines.

Wire bundles are *directed* and each counted once, exactly as the paper's
double sum over ordered pairs ``(j1, j2)``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from repro.core.assignment import Assignment
from repro.core.problem import PartitioningProblem


@dataclass(frozen=True)
class CostBreakdown:
    """The objective split into its terms."""

    linear: float
    quadratic: float
    alpha: float
    beta: float

    @property
    def total(self) -> float:
        """``alpha * linear + beta * quadratic``."""
        return self.alpha * self.linear + self.beta * self.quadratic


class ObjectiveEvaluator:
    """Vectorised cost evaluation and move/swap deltas for one problem.

    Construction extracts numpy-friendly views (wire arrays, constraint
    arrays, adjacency lists) once; all queries afterwards are loop-free
    or O(degree).
    """

    def __init__(self, problem: PartitioningProblem) -> None:
        self.problem = problem
        self.alpha = problem.alpha
        self.beta = problem.beta
        self.B = problem.cost_matrix
        self.D = problem.delay_matrix
        self.P = problem.linear_cost_matrix()
        n = problem.num_components

        wires = list(problem.circuit.wires())
        self.wire_src = np.array([w.source for w in wires], dtype=int)
        self.wire_dst = np.array([w.target for w in wires], dtype=int)
        self.wire_w = np.array([w.weight for w in wires], dtype=float)

        # Timing-constraint arrays and the wire weight (possibly zero) of
        # each constrained pair, needed to swap a*b out for the penalty.
        self.t_src, self.t_dst, self.t_budget = problem.timing.arrays()
        weight_lookup = {}
        for w in wires:
            weight_lookup[(w.source, w.target)] = weight_lookup.get(
                (w.source, w.target), 0.0
            ) + w.weight
        self.t_wire = np.array(
            [weight_lookup.get((a, b), 0.0) for a, b in zip(self.t_src, self.t_dst)],
            dtype=float,
        )

        # Per-component adjacency: for move deltas we need, for each j,
        # the wires leaving j (k, w) and entering j (k, w).
        out_adj: list[list[tuple[int, float]]] = [[] for _ in range(n)]
        in_adj: list[list[tuple[int, float]]] = [[] for _ in range(n)]
        for w in wires:
            out_adj[w.source].append((w.target, w.weight))
            in_adj[w.target].append((w.source, w.weight))
        self._out_adj = [
            (np.array([k for k, _ in lst], dtype=int), np.array([v for _, v in lst]))
            for lst in out_adj
        ]
        self._in_adj = [
            (np.array([k for k, _ in lst], dtype=int), np.array([v for _, v in lst]))
            for lst in in_adj
        ]

    # ------------------------------------------------------------------
    # Full-cost evaluation
    # ------------------------------------------------------------------
    def linear_cost(self, assignment: Assignment | Sequence[int]) -> float:
        """The linear term ``sum_j P[A(j), j]`` (unscaled)."""
        if self.P is None:
            return 0.0
        part = self._as_part(assignment)
        return float(self.P[part, np.arange(part.size)].sum())

    def quadratic_cost(self, assignment: Assignment | Sequence[int]) -> float:
        """The quadratic term ``sum a[j1,j2] * B[A(j1), A(j2)]`` (unscaled)."""
        part = self._as_part(assignment)
        if self.wire_src.size == 0:
            return 0.0
        return float(
            (self.wire_w * self.B[part[self.wire_src], part[self.wire_dst]]).sum()
        )

    def cost(self, assignment: Assignment | Sequence[int]) -> float:
        """The full objective ``alpha*linear + beta*quadratic``."""
        return self.breakdown(assignment).total

    def cost_floor(self) -> float:
        """A lower bound on :meth:`cost` over every assignment.

        ``0.0`` when no term can be negative: ``beta``, ``B`` and the wire
        weights are all ``>= 0``, and there is no linear term or
        ``alpha * P >= 0`` entry by entry.  Sums and products of
        non-negative floats stay non-negative, so the bound also holds
        in floating point.  ``-inf`` otherwise.
        """
        nonnegative = (
            self.beta >= 0
            and bool(np.all(self.B >= 0))
            and bool(np.all(self.wire_w >= 0))
            and (self.P is None or bool(np.all(self.alpha * self.P >= 0)))
        )
        return 0.0 if nonnegative else -np.inf

    def breakdown(self, assignment: Assignment | Sequence[int]) -> CostBreakdown:
        """The objective with its terms reported separately."""
        return CostBreakdown(
            linear=self.linear_cost(assignment),
            quadratic=self.quadratic_cost(assignment),
            alpha=self.alpha,
            beta=self.beta,
        )

    def penalized_cost(self, assignment: Assignment | Sequence[int], penalty: float) -> float:
        """``yT Q_hat y``: the cost under the timing-embedded matrix.

        Every timing-violating constrained pair contributes ``penalty``
        *instead of* its ``beta * a * b`` product, mirroring how the
        embedding overwrites (not adds to) the ``Q`` entry.
        """
        base = self.cost(assignment)
        if self.t_src.size == 0:
            return base
        part = self._as_part(assignment)
        delays = self.D[part[self.t_src], part[self.t_dst]]
        violated = delays > self.t_budget
        if not violated.any():
            return base
        removed = (
            self.beta
            * (
                self.t_wire[violated]
                * self.B[part[self.t_src[violated]], part[self.t_dst[violated]]]
            ).sum()
        )
        return float(base - removed + penalty * int(violated.sum()))

    def timing_violation_count(self, assignment: Assignment | Sequence[int]) -> int:
        """Number of violated (directed) timing constraints."""
        if self.t_src.size == 0:
            return 0
        part = self._as_part(assignment)
        delays = self.D[part[self.t_src], part[self.t_dst]]
        return int((delays > self.t_budget).sum())

    # ------------------------------------------------------------------
    # Incremental deltas
    # ------------------------------------------------------------------
    def move_delta(self, assignment: Assignment | Sequence[int], j: int, new_i: int) -> float:
        """Exact objective change for moving component ``j`` to ``new_i``.

        O(degree of j).  Returns 0 for a no-op move.
        """
        part = self._as_part(assignment)
        old_i = int(part[j])
        if old_i == new_i:
            return 0.0
        delta = 0.0
        if self.P is not None and self.alpha:
            delta += self.alpha * (self.P[new_i, j] - self.P[old_i, j])
        if self.beta:
            out_k, out_w = self._out_adj[j]
            if out_k.size:
                targets = part[out_k]
                delta += self.beta * float(
                    (out_w * (self.B[new_i, targets] - self.B[old_i, targets])).sum()
                )
            in_k, in_w = self._in_adj[j]
            if in_k.size:
                sources = part[in_k]
                delta += self.beta * float(
                    (in_w * (self.B[sources, new_i] - self.B[sources, old_i])).sum()
                )
        return delta

    def swap_delta(self, assignment: Assignment | Sequence[int], j1: int, j2: int) -> float:
        """Exact objective change for exchanging components ``j1`` and ``j2``.

        Computed as the two independent move deltas plus a correction for
        the wires between ``j1`` and ``j2`` themselves, which both move
        deltas evaluate against stale positions.
        """
        part = self._as_part(assignment)
        i1, i2 = int(part[j1]), int(part[j2])
        if i1 == i2 or j1 == j2:
            return 0.0
        d1 = self.move_delta(part, j1, i2)
        d2 = self.move_delta(part, j2, i1)

        a12 = self._pair_weight(j1, j2)
        a21 = self._pair_weight(j2, j1)
        if a12 == 0.0 and a21 == 0.0:
            return d1 + d2
        B = self.B
        # What the two single-move deltas claimed for the mutual wires:
        claimed = (
            a12 * (B[i2, i2] - B[i1, i2])
            + a21 * (B[i2, i2] - B[i2, i1])
            + a21 * (B[i1, i1] - B[i2, i1])
            + a12 * (B[i1, i1] - B[i1, i2])
        )
        # What actually happens to them:
        actual = a12 * (B[i2, i1] - B[i1, i2]) + a21 * (B[i1, i2] - B[i2, i1])
        return d1 + d2 + self.beta * (actual - claimed)

    def _pair_weight(self, j1: int, j2: int) -> float:
        out_k, out_w = self._out_adj[j1]
        hits = out_k == j2
        return float(out_w[hits].sum()) if hits.any() else 0.0

    # ------------------------------------------------------------------
    @staticmethod
    def _as_part(assignment: Assignment | Sequence[int]) -> np.ndarray:
        if isinstance(assignment, Assignment):
            return assignment.part
        return np.asarray(assignment, dtype=int)
