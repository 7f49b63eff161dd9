"""The paper's zero-``B`` bootstrap for initial feasible solutions."""

from __future__ import annotations

from typing import Optional

from repro.core.assignment import Assignment
from repro.core.problem import PartitioningProblem
from repro.obs.telemetry import Telemetry, resolve as resolve_telemetry
from repro.runtime.budget import Budget
from repro.runtime.faults import maybe_fault
from repro.runtime.supervisor import RungTry
from repro.solvers.greedy import greedy_feasible_assignment
from repro.solvers.qbp.iteration import solve_qbp
from repro.utils.rng import RandomSource, ensure_rng


class BootstrapStallError(RuntimeError):
    """One zero-``B`` bootstrap attempt failed to reach full feasibility."""


def bootstrap_initial_solution(
    problem: PartitioningProblem,
    *,
    iterations: int = 20,
    attempts: int = 3,
    seed: RandomSource = None,
    budget: Optional[Budget] = None,
    telemetry: Optional[Telemetry] = None,
) -> Assignment:
    """The paper's initial-solution recipe: QBP with ``B`` set to zero.

    With ``B = 0`` the quadratic term vanishes and the penalized cost
    reduces to counting timing violations, so a few Burkard iterations
    act as a pure feasibility solver ("this will generate an initial
    feasible solution in a few iterations").  Returns a C1+C2-feasible
    assignment usable as the shared start for QBP/GFM/GKL.

    ``iterations`` is a cap per attempt, not a count: without a linear
    term every zero-``B`` assignment costs 0, the floor of
    :meth:`~repro.core.objective.ObjectiveEvaluator.cost_floor`, so
    :func:`~repro.solvers.qbp.iteration.solve_qbp`'s exact floor exit
    ends an attempt at its first feasible iterate.

    Each attempt starts from a fresh randomized greedy placement and
    finishes with min-conflicts repair (the zero-``B`` iteration drives
    violations down globally but can stall with a small residue).  Each
    attempt is one :class:`~repro.runtime.supervisor.RungTry`, so a
    stalled attempt is a ``fallback`` event on the telemetry stream, and
    an optional ``budget`` bounds the total wall clock.

    Raises
    ------
    RuntimeError
        When no fully feasible assignment is found within ``attempts``
        runs of ``iterations`` iterations each, or - as the
        :class:`~repro.runtime.budget.BudgetExceededError` subclass -
        when the budget runs out first.
    """
    tel = resolve_telemetry(telemetry)
    zeroed = problem.with_zero_interconnect()
    if not zeroed.has_timing:
        return greedy_feasible_assignment(zeroed, seed)
    rng = ensure_rng(seed)
    from repro.solvers.repair import repair_feasibility

    with tel.span("qbp.bootstrap", attempts=attempts, iterations=iterations):
        for try_index in range(max(1, attempts)):
            with RungTry(
                "bootstrap", "qbp-bootstrap", BootstrapStallError,
                budget=budget, telemetry=telemetry, try_index=try_index,
            ):
                maybe_fault("bootstrap.attempt")
                result = solve_qbp(
                    zeroed, iterations=iterations, seed=rng, budget=budget,
                    telemetry=telemetry,
                )
                if result.best_feasible_assignment is not None:
                    return result.best_feasible_assignment
                repaired = repair_feasibility(zeroed, result.assignment, seed=rng)
                if repaired is not None:
                    return repaired
                raise BootstrapStallError(
                    f"zero-B attempt stalled with {result.timing_violations} "
                    "timing violation(s) after repair"
                )
        raise RuntimeError(
            "bootstrap failed: no timing+capacity feasible assignment found in "
            f"{attempts} attempt(s) of {iterations} iterations plus repair"
        )


__all__ = ["BootstrapStallError", "bootstrap_initial_solution"]
