"""The shared incremental-evaluation kernel (:class:`DeltaCache`).

Every solver in this repository — the generalized Burkard iteration, the
GFM/GKL/annealing baselines, and the repair projections — reduces to the
same primitive: evaluate the change in ``yT Q y`` when one component
moves (or two swap) under C1/C2 feasibility.  :class:`DeltaCache` is the
single implementation of that primitive.  It maintains, for an evolving
assignment:

* ``delta`` — the ``(N, M)`` matrix of exact objective changes for
  moving each component to each partition (the GFM gain entries are
  ``-delta``; the paper's "(M-1) gain entries per component"),
* ``timing_block`` — an ``(N, M)`` count of timing constraints each
  candidate move would violate (0 = timing-feasible move),
* partition loads (a :class:`~repro.core.constraints.CapacityTracker`)
  for O(1) capacity checks.

All three are updated *incrementally* after a move: only the rows of the
moved component's wire/constraint neighbours are recomputed, so a full
GFM pass costs O(nnz(A) * M) instead of O(N^2 * M).

Which rows a move of ``j`` changes depends only on the wires and timing
constraints, so :meth:`DeltaCache.footprint` works it out on ``j``'s
first move and keeps it: the sorted delta rows (``j`` and its wire
neighbours), the sorted timing rows (the constrained ones among ``j``
and its timing partners) and where the delta rows' entries lie in the
kernel's stacked ``A.T``/``A`` arrays.  A refresh gathers those entries
into one row slice and multiplies it with the maintained
``[B[part, :]; B.T[part, :]]`` rows (:meth:`DeltaCache.all_move_deltas`
is the same arithmetic over every row); the timing rows are one
vectorised fold over the constraint list.  GKL reads the same footprint
to find the swap scores a swap invalidates.

A batch of moves (:meth:`DeltaCache.apply_moves`, GFM's and GKL's
best-prefix rollbacks) does each move's bookkeeping in order, then
refreshes the union of the moves' footprints once from the final
assignment.  A refreshed row is summed over its own nonzeros in their
stored order whichever rows share its slice, so the batch leaves the
floats the moves applied one at a time would, while a row that several
moves touch is recomputed once.

The same precomputed sparse views also back the Burkard iteration's
STEP 3 vector: :meth:`eta` evaluates the per-component x per-partition
marginal-cost rows of ``Q_hat`` directly from the sparse
interconnection matrix — the kernel can therefore be built *without* an
assignment (``assignment=None``) when only the stateless row products
are needed.

Layering: this module lives in ``repro.engine`` and imports only from
``repro.core`` (machine-enforced by ``scripts/check_imports.py``); the
solvers and baselines build on it, never the other way around.
"""

from __future__ import annotations

from typing import Iterable, NamedTuple, Optional, Tuple

import numpy as np
from scipy import sparse

from repro.core.assignment import Assignment
from repro.core.constraints import CapacityTracker, TimingIndex
from repro.core.objective import ObjectiveEvaluator
from repro.core.problem import PartitioningProblem

ETA_MODES = ("burkard", "diagonal", "symmetric")
"""How :meth:`DeltaCache.eta` treats the ``Q_hat`` diagonal (see
:func:`repro.solvers.burkard.solve_qbp` for the semantics of each)."""


class MoveFootprint(NamedTuple):
    """The state rows one move of a component changes (structure only)."""

    rows: np.ndarray
    """Sorted delta rows: the component and its wire neighbours."""
    timing_rows: np.ndarray
    """Sorted timing rows: the constrained ones among the component and
    its timing partners."""
    indptr: np.ndarray
    """Row pointer of the rows' slice: ``A.T`` over ``rows``, then ``A``."""
    offsets: np.ndarray
    """Per slice row, where its entries start in the stacked ``A.T``/``A``
    arrays less where they start in the slice."""
    lengths: np.ndarray
    """Entries per slice row."""


class DeltaStats:
    """Hot-path counters for one :class:`DeltaCache` instance.

    Plain integer attributes bumped unconditionally (an ``int += 1`` is
    far cheaper than any telemetry lookup, so the kernel stays fast with
    telemetry off) and *drained* into ``delta.*`` counters by
    :meth:`publish`.  The split the counters expose is the cache's
    hit/miss story: ``row_refreshes``/``timing_row_refreshes`` are the
    rows the incremental updates recomputed (cache hits - only
    neighbour rows, each row once per refresh, however many moves of a
    batch touched it), ``full_rebuilds`` are the full ``(N, M)``
    recomputations (misses: construction, :meth:`DeltaCache.reset`).
    ``moves`` counts every applied move, batched or not; ``swaps``
    counts :meth:`DeltaCache.apply_swap` calls that swapped.
    """

    __slots__ = (
        "eta_evals",
        "moves",
        "swaps",
        "row_refreshes",
        "timing_row_refreshes",
        "full_rebuilds",
        "_published",
    )

    COUNTER_PREFIX = "delta."

    def __init__(self) -> None:
        self.eta_evals = 0
        self.moves = 0
        self.swaps = 0
        self.row_refreshes = 0
        self.timing_row_refreshes = 0
        self.full_rebuilds = 0
        self._published: dict = {}

    def as_dict(self) -> dict:
        return {
            "eta_evals": self.eta_evals,
            "moves": self.moves,
            "swaps": self.swaps,
            "row_refreshes": self.row_refreshes,
            "timing_row_refreshes": self.timing_row_refreshes,
            "full_rebuilds": self.full_rebuilds,
        }

    def publish(self, telemetry) -> None:
        """Drain counts-since-last-publish into ``delta.*`` counters.

        Safe to call repeatedly (per solve, per restart): only the
        increment since the previous publish is added, so shared kernels
        never double-count.  No-op on a disabled bundle.
        """
        if telemetry is None or not telemetry.enabled:
            return
        for name, value in self.as_dict().items():
            delta = value - self._published.get(name, 0)
            if delta:
                telemetry.counter(self.COUNTER_PREFIX + name).inc(delta)
                self._published[name] = value


class DeltaCache:
    """Incrementally maintained move/swap deltas and feasibility masks.

    Parameters
    ----------
    problem:
        The partitioning problem; its sparse views are extracted once.
    assignment:
        The starting assignment for the stateful ``delta`` /
        ``timing_block`` / load tracking.  ``None`` builds a *stateless*
        kernel exposing only the row products (:meth:`eta`,
        :meth:`marginal_rows`); call :meth:`reset` later to attach an
        assignment.
    evaluator:
        An existing :class:`~repro.core.objective.ObjectiveEvaluator`
        for ``problem`` to share (its wire/constraint arrays are
        reused); ``None`` constructs one.
    """

    def __init__(
        self,
        problem: PartitioningProblem,
        assignment: Optional[Assignment] = None,
        *,
        evaluator: Optional[ObjectiveEvaluator] = None,
    ) -> None:
        self.problem = problem
        self.evaluator = evaluator if evaluator is not None else ObjectiveEvaluator(problem)
        self.timing_index = TimingIndex(problem.timing, problem.delay_matrix)
        self.n = problem.num_components
        self.m = problem.num_partitions
        self.sizes = problem.sizes()
        self.capacities = problem.capacities()
        self.B = problem.cost_matrix
        self.BT = problem.cost_matrix.T.copy()
        self.D = problem.delay_matrix
        self.DT = problem.delay_matrix.T.copy()
        self.P = problem.linear_cost_matrix()
        self.alpha, self.beta = problem.alpha, problem.beta

        self._A = problem.sparse_connection_matrix()
        self._AT = self._A.T.tocsr()
        # The CSR arrays of A.T stacked over A, with A's columns shifted by
        # N: a row slice of them times [B[part, :]; B.T[part, :]] gives the
        # in-edge terms in its A.T rows and the out-edge terms in its A rows.
        self._io_indptr = np.concatenate(
            (self._AT.indptr, self._AT.nnz + self._A.indptr[1:])
        )
        self._io_indices = np.concatenate((self._AT.indices, self._A.indices + self.n))
        self._io_data = np.concatenate((self._AT.data, self._A.data))
        # Wire adjacency and timing-constraint arrays reused from the
        # evaluator (the single place they are extracted).
        self._out_adj = self.evaluator._out_adj
        self._in_adj = self.evaluator._in_adj
        self.t_src = self.evaluator.t_src
        self.t_dst = self.evaluator.t_dst
        self.t_budget = self.evaluator.t_budget
        self.t_wire = self.evaluator.t_wire

        self.stats = DeltaStats()
        # One MoveFootprint per component, built on its first move.
        self._footprints: list = [None] * self.n
        self.part: Optional[np.ndarray] = None
        self.capacity: Optional[CapacityTracker] = None
        self.delta: Optional[np.ndarray] = None
        self.timing_block: Optional[np.ndarray] = None
        # Row k holds B[part[k], :] and row N + k holds BT[part[k], :],
        # kept in sync by apply_move so row refreshes skip the (2N, M)
        # gather a fresh [B[part, :]; BT[part, :]] would cost on every move.
        self._b_both: Optional[np.ndarray] = None
        if assignment is not None:
            self.reset(assignment)

    # ------------------------------------------------------------------
    # Stateful tracking lifecycle
    # ------------------------------------------------------------------
    def reset(self, assignment: Assignment) -> None:
        """(Re)attach the kernel to ``assignment`` and rebuild all state."""
        self.stats.full_rebuilds += 1
        self.part = self.problem.validate_assignment_shape(assignment.part).copy()
        self.capacity = CapacityTracker.for_assignment(
            Assignment(self.part, self.m), self.sizes, self.capacities
        )
        self._b_both = np.concatenate((self.B[self.part, :], self.BT[self.part, :]))
        self.delta = self._full_delta()
        self.timing_block = self._full_timing_block()

    @property
    def loads(self) -> np.ndarray:
        """Per-partition assigned size (the capacity tracker's view)."""
        return self.capacity.loads

    # ------------------------------------------------------------------
    # Stateless row products (shared with the Burkard eta evaluation)
    # ------------------------------------------------------------------
    def in_rows(self, part: np.ndarray) -> np.ndarray:
        """``(N, M)`` rows ``sum_k a[k, j] * B[part[k], i]`` (unscaled)."""
        return np.asarray(self._AT @ self.B[part, :])

    def out_rows(self, part: np.ndarray) -> np.ndarray:
        """``(N, M)`` rows ``sum_k a[j, k] * B[i, part[k]]`` (unscaled)."""
        return np.asarray(self._A @ self.BT[part, :])

    def marginal_rows(self, part: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        """Both directed row products for ``part`` (in-edges, out-edges)."""
        return self.in_rows(part), self.out_rows(part)

    def eta(self, part: np.ndarray, *, mode: str, penalty: float) -> np.ndarray:
        """Burkard STEP 3: ``eta[j, i] = sum_r qhat[r, (i, j)] u_r``.

        Computed from the sparse ``A`` per the paper's Section 4.3: the
        quadratic part is one sparse matrix product per direction;
        timing penalties overwrite the affected ``a*b`` contributions
        vectorised over the constraint list.  ``mode`` is one of
        :data:`ETA_MODES`.
        """
        self.stats.eta_evals += 1
        n = self.n
        b_rows = self.B[part, :]  # (N, M): b_rows[j1, i2] = B[A(j1), i2]
        eta = self.beta * (self._AT @ b_rows)
        eta = np.asarray(eta)
        self._apply_timing(
            eta, part, self.D, self.B, self.t_src, self.t_dst, penalty, out_rows=False
        )

        if mode == "symmetric":
            bt_rows = self.BT[part, :]  # (N, M): bt_rows[j2, i1] = B[i1, A(j2)]
            eta_out = self.beta * np.asarray(self._A @ bt_rows)
            self._apply_timing(
                eta_out, part, self.DT, self.BT, self.t_dst, self.t_src, penalty,
                out_rows=True,
            )
            eta = eta + eta_out

        if self.P is not None and self.alpha:
            if mode == "burkard":
                # Paper pseudocode: the diagonal only contributes where u is 1.
                idx = np.arange(n)
                eta[idx, part] += self.alpha * self.P[part, idx]
            else:
                eta += self.alpha * self.P.T
        return eta

    def _apply_timing(
        self,
        eta: np.ndarray,
        part: np.ndarray,
        delay: np.ndarray,
        cost: np.ndarray,
        anchors: np.ndarray,
        movers: np.ndarray,
        penalty: float,
        *,
        out_rows: bool,
    ) -> None:
        """Overwrite timing-violating candidate contributions with the penalty.

        For the in-direction (``out_rows=False``): constraint
        ``(j1, j2)`` with ``j1`` anchored at ``part[j1]`` makes candidate
        ``(i2, j2)`` cost ``penalty`` instead of ``beta*a*B[A(j1), i2]``
        whenever ``D[A(j1), i2] > budget``.  The out-direction is the
        transposed statement used by the symmetric eta mode.
        """
        if self.t_src.size == 0:
            return
        anchor_pos = part[anchors]  # (C,)
        delays = delay[anchor_pos, :]  # (C, M)
        violated = delays > self.t_budget[:, None]
        if not violated.any():
            return
        base = self.beta * self.t_wire[:, None] * cost[anchor_pos, :]
        adjustment = np.where(violated, penalty - base, 0.0)
        np.add.at(eta, movers, adjustment)

    # ------------------------------------------------------------------
    # Full move evaluation
    # ------------------------------------------------------------------
    def all_move_deltas(self, part: Optional[np.ndarray] = None) -> np.ndarray:
        """The complete ``(N, M)`` move-delta matrix, one shot of array ops.

        ``delta[j, i]`` is the exact objective change of moving ``j`` to
        ``i`` under assignment ``part`` (default: the tracked
        assignment).  Wire terms are two sparse matrix products, the
        linear term one broadcast add — no per-component Python loop.
        """
        if part is None:
            part = self.part
        # in_term[j, i]  = sum_k a[k, j] * B[part[k], i]
        # out_term[j, i] = sum_k a[j, k] * B[i, part[k]]
        in_term = self.in_rows(part)
        out_term = self.out_rows(part)
        total = self.beta * (in_term + out_term)
        if self.P is not None and self.alpha:
            total = total + self.alpha * self.P.T
        current = total[np.arange(self.n), part]
        return total - current[:, None]

    def move_deltas(self, j: int) -> np.ndarray:
        """Move deltas for one component against the current assignment.

        The ``(M,)`` row :meth:`all_move_deltas` computes for ``j``,
        evaluated on its own from the component's wire neighbourhood.
        """
        part = self.part
        total = np.zeros(self.m)
        out_k, out_w = self._out_adj[j]
        if out_k.size:
            total += self.beta * (self.B[:, part[out_k]] @ out_w)
        in_k, in_w = self._in_adj[j]
        if in_k.size:
            total += self.beta * (in_w @ self.B[part[in_k], :])
        if self.P is not None and self.alpha:
            total += self.alpha * self.P[:, j]
        return total - total[part[j]]

    def scan_move_deltas(self) -> np.ndarray:
        """Evaluate every candidate move under the tracked assignment.

        The full candidate scan: :meth:`all_move_deltas` of the tracked
        assignment, recomputed rather than read from ``delta``.
        """
        return self.all_move_deltas(self.part)

    # ------------------------------------------------------------------
    # Full recomputation (construction / audit)
    # ------------------------------------------------------------------
    def _full_delta(self) -> np.ndarray:
        """The complete ``(N, M)`` move-delta matrix."""
        return self.all_move_deltas(self.part)

    def _full_timing_block(self) -> np.ndarray:
        """``(N, M)`` violated-constraint counts per candidate move."""
        block = np.zeros((self.n, self.m), dtype=np.int32)
        rows = np.asarray(self.timing_index.constrained_components(), dtype=np.intp)
        if rows.size:
            block[rows, :] = self._timing_rows(rows)
        return block

    def _timing_rows(self, rows: np.ndarray) -> np.ndarray:
        """Violation-count rows for ``rows``, vectorised over constraints.

        Integer accumulation, so the counts are exact whatever the fold
        order.
        """
        block = np.zeros((rows.size, self.m), dtype=np.int32)
        if self.t_src.size == 0:
            return block
        row_of = np.full(self.n, -1, dtype=np.intp)
        row_of[rows] = np.arange(rows.size)
        part, d = self.part, self.D
        out_sel = row_of[self.t_src] >= 0
        if out_sel.any():
            violated = d[:, part[self.t_dst[out_sel]]].T > self.t_budget[
                out_sel, None
            ]
            np.add.at(block, row_of[self.t_src[out_sel]], violated.astype(np.int32))
        in_sel = row_of[self.t_dst] >= 0
        if in_sel.any():
            violated = d[part[self.t_src[in_sel]], :] > self.t_budget[in_sel, None]
            np.add.at(block, row_of[self.t_dst[in_sel]], violated.astype(np.int32))
        return block

    def footprint(self, j: int) -> MoveFootprint:
        """The rows a move of ``j`` changes, with where their entries lie.

        A move of ``j`` changes the delta rows of ``j`` and its wire
        neighbours (a row reads only its own and its neighbours'
        partitions) and the timing rows of ``j`` and its constraint
        partners.  That depends only on the problem, never on the
        assignment, so the footprint is built on the first request and
        kept, across :meth:`reset` too.  It holds index arrays only, a
        few per row; the slice entries themselves are gathered at each
        refresh, so the kept memory grows with the wires, not with the
        square of the degrees.
        """
        fp = self._footprints[j]
        if fp is None:
            rows = np.unique(
                np.concatenate(([j], self._out_adj[j][0], self._in_adj[j][0]))
            ).astype(np.intp)
            partners = {j}
            partners.update(k for k, _ in self.timing_index._out[j])
            partners.update(k for k, _ in self.timing_index._in[j])
            constrained = sorted(k for k in partners if self.timing_index.degree(k))
            fp = self._layout(rows, np.asarray(constrained, dtype=np.intp))
            self._footprints[j] = fp
        return fp

    def _layout(self, rows: np.ndarray, timing_rows: np.ndarray) -> MoveFootprint:
        """The footprint of sorted ``rows`` and ``timing_rows``: where the
        delta rows' entries lie in the stacked ``A.T``/``A`` arrays."""
        slice_rows = np.concatenate((rows, rows + self.n))
        starts = self._io_indptr[slice_rows]
        lengths = self._io_indptr[slice_rows + 1] - starts
        indptr = np.zeros(slice_rows.size + 1, dtype=self._io_indptr.dtype)
        np.cumsum(lengths, out=indptr[1:])
        return MoveFootprint(rows, timing_rows, indptr, starts - indptr[:-1], lengths)

    def _refresh(self, fp: MoveFootprint) -> None:
        """Recompute the delta and timing rows of ``fp`` and count them."""
        self._refresh_rows(fp)
        self.stats.row_refreshes += fp.rows.size
        if fp.timing_rows.size:
            self.timing_block[fp.timing_rows, :] = self._timing_rows(fp.timing_rows)
            self.stats.timing_row_refreshes += fp.timing_rows.size

    def _refresh_rows(self, fp: MoveFootprint) -> None:
        """Recompute the delta rows of ``fp``.

        The rows' entries of the stacked ``A.T``/``A`` arrays are
        gathered, in their stored order, into one ``(2R, 2N)`` slice,
        and one product with the maintained ``[B[part, :]; B.T[part, :]]``
        rows gives the in-edge terms (its ``A.T`` half) and the out-edge
        terms (its ``A`` half).  Each entry is summed over the same
        nonzeros in the same order as a full :meth:`all_move_deltas`
        rebuild restricted to those rows, and therefore is the same float.
        """
        idx = fp.rows
        r = idx.size
        entries = np.repeat(fp.offsets, fp.lengths) + np.arange(fp.indptr[-1])
        slices = sparse.csr_matrix(
            (self._io_data[entries], self._io_indices[entries], fp.indptr),
            shape=(2 * r, 2 * self.n),
        )
        terms = np.asarray(slices @ self._b_both)
        total = self.beta * (terms[:r] + terms[r:])
        if self.P is not None and self.alpha:
            total = total + self.alpha * self.P.T[idx, :]
        current = total[np.arange(r), self.part[idx]]
        self.delta[idx, :] = total - current[:, None]

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    def capacity_mask(self) -> np.ndarray:
        """``(N, M)`` boolean: move fits the destination capacity."""
        headroom = self.capacities - self.loads
        return self.sizes[:, None] <= headroom[None, :] + 1e-9

    def feasible_move_mask(self, locked: Optional[np.ndarray] = None) -> np.ndarray:
        """``(N, M)`` boolean: capacity- and timing-feasible non-trivial moves."""
        mask = self.capacity_mask() & (self.timing_block == 0)
        mask[np.arange(self.n), self.part] = False
        if locked is not None:
            mask[locked, :] = False
        return mask

    def best_move(
        self, locked: Optional[np.ndarray] = None
    ) -> Optional[Tuple[int, int, float]]:
        """The feasible move with the smallest delta (largest gain).

        One masked argmin over the maintained ``(N, M)`` delta matrix,
        never a per-component scan.  Returns ``(component, target_partition, delta)`` or ``None`` when
        no feasible move exists.  Deterministic tie-breaking by flattened
        index.
        """
        mask = self.feasible_move_mask(locked)
        if not mask.any():
            return None
        scores = np.where(mask, self.delta, np.inf)
        flat = int(np.argmin(scores))
        j, i = divmod(flat, self.m)
        return j, i, float(scores[j, i])

    def current_cost(self) -> float:
        """Objective of the current assignment."""
        return self.evaluator.cost(self.part)

    def assignment(self) -> Assignment:
        """Snapshot of the current assignment."""
        return Assignment(self.part, self.m)

    # ------------------------------------------------------------------
    # Mutation
    # ------------------------------------------------------------------
    def apply_move(self, j: int, new_i: int) -> float:
        """Move component ``j`` to ``new_i`` and update all state.

        Returns the exact objective delta of the move.  The move is
        applied unconditionally (callers enforce feasibility policy).
        Only the rows of ``j``'s :meth:`footprint` (built on ``j``'s
        first move) are recomputed.
        """
        old_i = int(self.part[j])
        if old_i == new_i:
            return 0.0
        moved_delta = float(self.delta[j, new_i])
        self._record_move(j, old_i, new_i)
        # Wire neighbours' deltas and constraint partners' timing rows
        # depend on j's position; refresh exactly those.
        self._refresh(self.footprint(j))
        return moved_delta

    def apply_moves(self, moves: Iterable[Tuple[int, int]]) -> None:
        """Apply ``(component, partition)`` moves in order, refreshing once.

        Each move's bookkeeping (partition, loads, maintained ``B``
        rows) is :meth:`apply_move`'s, in the given order, so the loads
        are the same floats; no-op moves are skipped.  The union of the
        moved components' footprints is then refreshed once from the
        final assignment.  A refreshed row is recomputed over the same
        nonzeros in the same order whichever rows share its slice, so
        the state equals the moves applied one at a time, bit for bit,
        while each row is refreshed once rather than once per move that
        touches it.
        """
        moved = []
        for j, new_i in moves:
            old_i = int(self.part[j])
            if old_i != new_i:
                self._record_move(j, old_i, new_i)
                moved.append(j)
        if moved:
            footprints = [self.footprint(j) for j in moved]
            self._refresh(
                self._layout(
                    np.unique(np.concatenate([fp.rows for fp in footprints])),
                    np.unique(np.concatenate([fp.timing_rows for fp in footprints])),
                )
            )

    def _record_move(self, j: int, old_i: int, new_i: int) -> None:
        """Move ``j`` in the partition, load and ``B``-row bookkeeping."""
        self.part[j] = new_i
        self.capacity.apply_move(j, old_i, new_i)
        self._b_both[j] = self.B[new_i, :]
        self._b_both[self.n + j] = self.BT[new_i, :]
        self.stats.moves += 1

    def apply_swap(self, j1: int, j2: int) -> float:
        """Exchange two components; returns the exact objective delta.

        The delta is the sum of the two moves' deltas: the second move
        is priced after the first, so the wires between the pair are
        counted at their final positions.
        """
        i1, i2 = int(self.part[j1]), int(self.part[j2])
        if i1 == i2:
            return 0.0
        self.stats.swaps += 1
        # Two raw moves; loads net out exactly (each also counts as a move).
        return self.apply_move(j1, i2) + self.apply_move(j2, i1)

    # ------------------------------------------------------------------
    # Swap-specific queries (GKL)
    # ------------------------------------------------------------------
    def swap_delta_rows(self, rows: np.ndarray) -> np.ndarray:
        """Exact swap deltas of every pair ``(rows[k], c)``: ``(R, N)``.

        The two move deltas of each pair from the move-delta matrix,
        plus a correction for the wires between the pair themselves
        (each move delta sees the other component at its stale
        position).  A pair wired both ways takes its corrections in one
        order whichever of its components asks - first the wire that
        leaves the lower index - so every entry is the same float in
        both of the pair's rows.
        """
        part = self.part
        rows = np.asarray(rows, dtype=np.intp)
        n = self.n
        swap = self.delta[rows][:, part] + self.delta[:, part[rows]].T
        src, dst = self.evaluator.wire_src, self.evaluator.wire_dst
        if src.size:
            row_of = np.full(n, -1, dtype=np.intp)
            row_of[rows] = np.arange(rows.size)
            at_src, at_dst = row_of[src], row_of[dst]
            hit = np.flatnonzero((at_src >= 0) | (at_dst >= 0))
            s, d, w = src[hit], dst[hit], self.evaluator.wire_w[hit]
            at_src, at_dst = at_src[hit], at_dst[hit]
            b = self.B
            p1, p2 = part[s], part[d]
            claimed = w * (b[p2, p2] - b[p1, p2] + b[p1, p1] - b[p1, p2])
            actual = w * (b[p2, p1] - b[p1, p2])
            correction = np.where(p1 == p2, 0.0, self.beta * (actual - claimed))
            # A wire leaving row k lands at (k, d), one entering it at
            # (k, s); the upward wires (s < d) go in first.
            leaves, enters, up = at_src >= 0, at_dst >= 0, s < d
            out_at, in_at = at_src * n + d, at_dst * n + s
            picks = (
                (leaves & up, out_at),
                (enters & up, in_at),
                (leaves & ~up, out_at),
                (enters & ~up, in_at),
            )
            np.add.at(
                swap.ravel(),
                np.concatenate([at[sel] for sel, at in picks]),
                np.concatenate([correction[sel] for sel, _ in picks]),
            )
        return swap

    def swap_capacity_rows(self, rows: np.ndarray) -> np.ndarray:
        """``(R, N)`` boolean: swapping ``rows[k]`` and ``c`` respects both capacities.

        Same-partition pairs are trivially feasible (the swap is a
        no-op for loads).
        """
        rows = np.asarray(rows, dtype=np.intp)
        # Per component, at its partition, with the tolerance.
        headroom_of = (self.capacities - self.loads)[self.part] + 1e-9
        size_diff = self.sizes[None, :] - self.sizes[rows, None]  # s2 - s1 at [k, j2]
        mask = (size_diff <= headroom_of[rows, None]) & (
            size_diff >= -headroom_of[None, :]
        )
        mask |= self.part[rows, None] == self.part[None, :]
        return mask

    def swap_timing_rows(self, rows: np.ndarray) -> np.ndarray:
        """``(R, N)`` boolean: approximately timing-feasible swaps of ``rows[k]`` and ``c``.

        Exact for pairs with no mutual constraint; pairs with a direct
        mutual constraint are evaluated against the partner's *stale*
        position, so callers must confirm a selected pair with
        :meth:`exact_swap_feasible` (GKL does).
        """
        rows = np.asarray(rows, dtype=np.intp)
        ok_move = self.timing_block == 0  # (N, M)
        # [k, j2]: rows[k] can move to part[j2], and j2 to part[rows[k]].
        return ok_move[rows][:, self.part] & ok_move[:, self.part[rows]].T

    def swap_delta_matrix(self) -> np.ndarray:
        """Exact ``(N, N)`` swap deltas for the current assignment.

        :meth:`swap_delta_rows` over every row, so the matrix is exactly
        symmetric.
        """
        return self.swap_delta_rows(np.arange(self.n))

    def swap_capacity_mask(self) -> np.ndarray:
        """``(N, N)`` boolean: the swap respects both capacities.

        :meth:`swap_capacity_rows` over every row.
        """
        return self.swap_capacity_rows(np.arange(self.n))

    def swap_timing_mask(self) -> np.ndarray:
        """``(N, N)`` boolean: approximately timing-feasible swaps.

        :meth:`swap_timing_rows` over every row; confirm a selected pair
        with :meth:`exact_swap_feasible`.
        """
        return self.swap_timing_rows(np.arange(self.n))

    def exact_swap_feasible(self, j1: int, j2: int) -> bool:
        """Exact C1+C2 feasibility of swapping ``j1`` and ``j2``."""
        i1, i2 = int(self.part[j1]), int(self.part[j2])
        s1, s2 = self.sizes[j1], self.sizes[j2]
        if i1 != i2:
            if self.loads[i1] - s1 + s2 > self.capacities[i1] + 1e-9:
                return False
            if self.loads[i2] - s2 + s1 > self.capacities[i2] + 1e-9:
                return False
        return self.timing_index.swap_is_feasible(self.part, j1, j2)

    # ------------------------------------------------------------------
    # Consistency audit (used by tests)
    # ------------------------------------------------------------------
    def audit(self) -> None:
        """Raise ``AssertionError`` if incremental state drifted.

        The delta matrix must be the full rebuild's floats byte for
        byte (a refreshed row sums the same nonzeros in the same order)
        and the timing block its exact counts.  The loads are compared
        within a tolerance: they are running sums, not a fresh
        ``bincount``.
        """
        if self.delta.tobytes() != self._full_delta().tobytes():
            raise AssertionError("incremental delta matrix drifted from ground truth")
        expected_block = self._full_timing_block()
        if not np.array_equal(self.timing_block, expected_block):
            raise AssertionError("incremental timing block drifted from ground truth")
        expected_loads = np.bincount(
            self.part, weights=self.sizes, minlength=self.m
        )
        if not np.allclose(self.loads, expected_loads, atol=1e-6):
            raise AssertionError("partition loads drifted from ground truth")
