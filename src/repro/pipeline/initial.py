"""The shared initial-solution ladders.

Before this layer existed the degrading fallback ladder (QBP bootstrap
-> greedy+repair -> plain greedy) was copy-pasted into
``tools/partition.py`` and ``service/executor.py``, and the harness
kept its own paper-protocol variant.  Both now live here, once, and the
three call sites import them.

Two ladders because the two protocols differ deliberately:

* :func:`supervised_initial_solution` — the *partitioner's* ladder for
  arbitrary user problems: always ends in something runnable, even if
  only capacity-feasible.
* :func:`paper_initial_solution` — the *experiment harness's* ladder:
  the paper's bootstrap recipe with a known-feasible reference
  assignment as the safety net (synthetic workloads carry one by
  construction).
"""

from __future__ import annotations

from typing import Optional, Tuple

from repro.core.assignment import Assignment
from repro.core.problem import PartitioningProblem
from repro.obs.telemetry import resolve as resolve_telemetry
from repro.runtime.budget import Budget, BudgetExceededError
from repro.runtime.supervisor import RungTry
from repro.solvers.burkard import bootstrap_initial_solution
from repro.solvers.greedy import greedy_feasible_assignment
from repro.solvers.repair import repair_feasibility
from repro.utils.rng import RandomSource


class InitialSolutionError(RuntimeError):
    """No starting assignment could be constructed (every rung failed)."""


def supervised_initial_solution(
    problem: PartitioningProblem,
    seed: int,
    budget: Optional[Budget] = None,
    *,
    name: str = "pipeline.initial",
) -> Tuple[Assignment, str]:
    """Build a starting assignment via a degrading fallback ladder.

    Rungs, in order: the paper's QBP bootstrap (fully feasible), greedy
    placement polished by min-conflicts repair (fully feasible), and
    plain greedy placement (capacity-feasible only - timing violations
    possible, but the partitioner still has *something* to improve).
    Returns the assignment and the name of the rung that produced it;
    raises :class:`InitialSolutionError`, naming each rung and its
    error, if every rung fails.  A spent ``budget`` stops the ladder
    and returns plain greedy placement, built outside it in a span of
    that rung's name.  ``name`` labels the ladder's telemetry (callers
    keep their historical labels: ``partition.initial``,
    ``service.initial``).
    """

    def qbp_bootstrap() -> Assignment:
        return bootstrap_initial_solution(problem, seed=seed, budget=budget)

    def repaired_greedy() -> Assignment:
        base = greedy_feasible_assignment(problem, seed=seed)
        repaired = repair_feasibility(problem, base, seed=seed)
        if repaired is None:
            raise RuntimeError("min-conflicts repair exhausted its move budget")
        return repaired

    def greedy_capacity_only() -> Assignment:
        return greedy_feasible_assignment(problem, seed=seed)

    failures = []
    try:
        for rung, build in (
            ("qbp-bootstrap", qbp_bootstrap),
            ("greedy+repair", repaired_greedy),
            ("greedy-capacity-only", greedy_capacity_only),
        ):
            with RungTry(name, rung, RuntimeError, budget=budget) as attempt:
                return build(), rung
            failures.append(f"{rung} ({attempt.error})")
    except BudgetExceededError:
        # Budget gone before any rung finished: fall back to the cheap
        # constructor outside the ladder so the caller still gets a start.
        rung = "greedy-capacity-only"
        with resolve_telemetry(None).span(rung, ladder=name):
            return greedy_feasible_assignment(problem, seed=seed), rung
    raise InitialSolutionError(
        "no initial solution could be constructed; every rung failed: "
        + "; ".join(failures)
    )


def paper_initial_solution(
    problem: PartitioningProblem,
    reference: Assignment,
    *,
    seed: RandomSource = None,
    bootstrap_iterations: int = 40,
    budget: Optional[Budget] = None,
) -> Assignment:
    """The harness's shared start: paper bootstrap, reference safety net.

    The paper generates ONE initial feasible solution per circuit by
    running QBP with ``B = 0`` and reuses it for every method.  On a
    synthetic workload the recipe can occasionally fail to reach full
    feasibility; ``reference`` (feasible by construction) then stands
    in, playing the same role as the designer's initial assignment in
    the MCM flow.  An exhausted ``budget`` also falls through to the
    reference, copied outside the ladder in a ``reference-fallback``
    span, so callers always get *some* feasible start.  The ladder's
    telemetry is labelled ``paper.initial``.
    """

    def paper_bootstrap() -> Assignment:
        return bootstrap_initial_solution(
            problem, iterations=bootstrap_iterations, seed=seed, budget=budget
        )

    try:
        for rung, build in (
            ("paper-bootstrap", paper_bootstrap),
            ("reference-fallback", reference.copy),
        ):
            with RungTry("paper.initial", rung, RuntimeError, budget=budget):
                return build()
    except BudgetExceededError:
        pass
    # Budget gone or every rung failed: copy the reference outside the
    # ladder so the caller still gets a start.
    with resolve_telemetry(None).span("reference-fallback", ladder="paper.initial"):
        return reference.copy()


__all__ = [
    "InitialSolutionError",
    "paper_initial_solution",
    "supervised_initial_solution",
]
