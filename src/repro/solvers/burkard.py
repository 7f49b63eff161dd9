"""The generalized Burkard heuristic for QBP partitioning (paper Section 4).

This is the paper's main algorithmic contribution.  Burkard's iterative
linearisation for quadratic boolean programs (STEP 1-8 of Section 4.2)
is generalized so that

* the solution space ``S`` is *capacity-constrained assignments* (C1 +
  C3) rather than permutations, making the STEP 4 / STEP 6 subproblems
  Generalized Assignment Problems solved with Martello-Toth
  (:mod:`repro.solvers.gap`) - Section 4.3,
* timing constraints are embedded as penalties in the cost matrix
  ``Q_hat`` (Section 3.2) - the solver never materialises ``Q_hat``;
  following Section 4.3 it evaluates the STEP 3 vector ``eta`` directly
  from the sparse interconnection matrix ``A``, the small ``M x M``
  ``B``/``D`` matrices, and the explicit timing-constraint list, so each
  iteration costs O(nnz(A) * M + |constraints| * M) instead of
  O(M^2 N^2).

The iteration, faithful to the paper's pseudocode::

    STEP 1  k <- 1, h <- 0
    STEP 2  compute bounds omega (eq. 2); pick u(1) in S; best <- u(1)
    STEP 3  eta_s = sum_r qhat[r, s] * u_r;   xi = sum_r omega_r * u_r
    STEP 4  z = min over S of sum_r eta_r u_r          (GAP solve)
    STEP 5  h += eta / max(1, |z - xi|)
    STEP 6  u(k+1) = argmin over S of sum_r h_r u_r    (GAP solve)
    STEP 7  keep u(k+1) if its true quadratic cost beats the incumbent
    STEP 8  stop after N_iterations

"The user can have precise control over the total runtime": quality is
monotone in ``iterations`` (the incumbent never worsens), and the best
solution seen is returned.

This module is the stable import surface; the implementation lives in
:mod:`repro.solvers.qbp` (``formulation`` / ``iteration`` /
``multistart`` / ``bootstrap``), all built on the shared engine layer
(:mod:`repro.engine`).

Reference: :func:`solve_qbp` keyword parameters
-----------------------------------------------
iterations:
    The paper's ``N_iterations`` (100 in its experiments), as a cap.
    More iterations never worsen the returned solution.  The solve
    stops early, with ``stop_reason="completed"``, once its feasible
    incumbent costs
    :meth:`~repro.core.objective.ObjectiveEvaluator.cost_floor` (0.0
    when no objective term can be negative): no later iterate could
    replace either incumbent, so the result is the one the full run
    would return, with fewer ``iterations``, a shorter ``history`` and
    fewer draws from a ``seed`` generator.  Under ``B = 0`` (the
    bootstrap) that is the first feasible iterate; with a real ``B``
    it takes an assignment that costs nothing, which is optimal.
penalty:
    Timing-violation penalty; see :func:`resolve_penalty` (``None``
    auto-scales, ``"paper"`` is the fixed 50, ``"theorem1"`` the exact
    embedding constant).
eta_mode:
    How STEP 3 treats the ``Q_hat`` diagonal (the linear costs):
    ``"burkard"`` is the paper's pseudocode verbatim (the diagonal
    enters only where ``u`` is 1, which blinds a pure-linear problem,
    and only the in-edge column sums are seen - faithful when ``A``
    is symmetric as in the paper's examples); ``"diagonal"`` always
    charges a candidate its own linear cost; ``"symmetric"``
    (default) additionally sums the transposed (out-going) half of
    ``Q_hat`` - the full marginal cost, equivalent to the paper's
    behaviour on a symmetrised ``A`` and strictly better when wires
    are stored one-directionally.
initial:
    A capacity-feasible start (``u(1) in S``).  ``None`` builds one
    with :func:`repro.solvers.greedy.greedy_feasible_assignment`
    (the paper notes "QBP can start from any random solution").
seed:
    Randomness for the initial construction and iterate repair; the
    core iteration itself is deterministic.
repair_iterates:
    Timing-problem enhancement: evaluate, alongside each raw STEP 6
    iterate, its projection onto the feasible region.  The MTHG
    inner solver assigns components one at a time against partners
    anchored at ``u(k)``, so on densely timing-constrained problems
    its reassignments systematically carry a small residue of mutual
    violations that the penalty cannot express per-item; the
    projection (:func:`repro.solvers.repair.feasible_merge` from the
    feasible incumbent toward the iterate) closes that gap at
    O(N * degree) cost.  No-op on timing-free problems.
repair_moves:
    Move budget for the targeted min-conflicts repair of promising
    iterates (those whose raw cost beats the feasible incumbent);
    the cheap merge projection has no budget to tune.
budget:
    Optional :class:`repro.runtime.budget.Budget`.  Checked at the
    top of every iteration and inside the inner GAP solves; on
    expiry/cancellation the best incumbent so far is returned with
    ``stop_reason`` set accordingly.
checkpointer:
    Optional :class:`repro.runtime.checkpoint.QbpCheckpointer`.
    Snapshots the full iteration state (including the RNG state)
    every ``checkpointer.every`` iterations, at the last iteration, at
    the floor exit and at budget-forced stops, so a killed run can
    resume bit-exactly.
resume:
    A :class:`repro.runtime.checkpoint.QbpCheckpoint` to continue
    from (``initial`` is then ignored).  A resumed run reproduces
    the uninterrupted run exactly on the same problem and seed.
telemetry:
    Optional :class:`~repro.obs.telemetry.Telemetry`; ``None`` uses
    the ambient instance.  When enabled, the solve runs inside a
    ``qbp.solve`` span (with ``floor_exit_iteration`` set when the
    floor exit fired), every iteration emits an
    :class:`~repro.obs.events.IterationEvent` and bumps the
    ``solver.iterations`` counter, and the inner GAP ladder reports
    fallbacks.  Telemetry never alters the computation; a sink that
    reacts to the ``IterationEvent`` stream (progress, live traces,
    ``budget.cancel()``) sees each iteration before its checkpoint
    save.
"""

from __future__ import annotations

from repro.solvers.qbp.bootstrap import BootstrapStallError, bootstrap_initial_solution
from repro.solvers.qbp.formulation import (
    DEFAULT_GAP_CRITERIA,
    ETA_MODES,
    IterationState,
    PAPER_PENALTY,
    is_fully_feasible,
    resolve_penalty,
    validated_initial,
)
from repro.solvers.qbp.iteration import BurkardResult, solve_qbp
from repro.solvers.qbp.multistart import MultistartError, solve_qbp_multistart

__all__ = [
    "BootstrapStallError",
    "BurkardResult",
    "DEFAULT_GAP_CRITERIA",
    "ETA_MODES",
    "IterationState",
    "MultistartError",
    "PAPER_PENALTY",
    "bootstrap_initial_solution",
    "is_fully_feasible",
    "resolve_penalty",
    "solve_qbp",
    "solve_qbp_multistart",
    "validated_initial",
]
