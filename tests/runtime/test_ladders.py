"""Telemetry of the four fallback ladders, pinned case by case.

Each ladder runs in five cases: its first rung succeeds, one rung fails
and the next succeeds, every rung fails, the shared budget is spent
before the first rung, and the budget runs out inside a rung.  Each case
pins what the ladder returned or raised, its rung spans (name,
attributes, parent), its ``fallback`` events and the
``supervisor.fallbacks`` count.  The expected values are those the
``SolverSupervisor`` implementation of these ladders produced, except
the harness ladder's label (``paper.initial`` where it was the default
``supervisor``) and the spans of the starts the two initial-solution
ladders build outside their rungs, which it did not record.

The rung bodies of the bootstrap and of the initial-solution ladders
are stubs, so only the ladders themselves are pinned; the GAP ladder
runs the real ``solve_gap`` on a four-item instance.
"""

from __future__ import annotations

from types import SimpleNamespace

import numpy as np
import pytest

import repro.pipeline.initial as initial
import repro.solvers.qbp.bootstrap as bootstrap
import repro.solvers.qbp.iteration as iteration
from repro.core.constraints import TimingIndex
from repro.obs.telemetry import Telemetry, use_telemetry
from repro.pipeline.initial import InitialSolutionError
from repro.runtime.budget import Budget
from repro.runtime.faults import FaultPlan, inject_faults
from repro.solvers.gap import solve_gap
from repro.solvers.qbp.bootstrap import BootstrapStallError
from repro.timing.constraints import TimingConstraints

CASES = ("first", "fallthrough", "exhausted", "spent", "inside")


class Clock:
    """A settable clock, so a rung can run the budget out."""

    def __init__(self) -> None:
        self.now = 0.0

    def __call__(self) -> float:
        return self.now


class Reference:
    """A stand-in reference assignment whose first copy may fail."""

    def __init__(self, fail_first: bool) -> None:
        self.fail_first = fail_first

    def copy(self) -> str:
        if self.fail_first:
            self.fail_first = False
            raise RuntimeError("reference unavailable")
        return "reference"


def spend(clock: Clock, budget: Budget) -> None:
    """Run ``budget`` out from inside a rung, as a cooperative solver would."""
    clock.now += 10.0
    budget.raise_if_exceeded()


def run_gap(case, monkeypatch, problem, budget, clock, tel):
    constraints = TimingConstraints(4)
    constraints.add(0, 1, 0.5, symmetric=True)
    timing = TimingIndex(constraints, np.array([[0.0, 1.0], [1.0, 0.0]]))
    cost = np.array([[1.0, 2.0, 3.0, 4.0], [4.0, 3.0, 2.0, 1.0]])
    capacities = [1.0, 1.0] if case == "exhausted" else [2.0, 2.0]
    trust = np.ones((2, 4), dtype=bool)
    if case == "fallthrough":
        trust[:, 0] = False  # item 0 fits nowhere on the trust rung
    if case == "inside":

        def spending_solve_gap(*args, **kwargs):
            clock.now += 10.0  # the real solve checks the budget first
            return solve_gap(*args, **kwargs)

        monkeypatch.setattr(iteration, "solve_gap", spending_solve_gap)
    result = iteration._solve_gap_graceful(
        cost, np.ones(4), capacities, ("cost",), timing, trust, budget, tel
    )
    return None if result is None else type(result).__name__


def run_bootstrap(case, monkeypatch, problem, budget, clock, tel):
    def solve_qbp(zeroed, *, budget=None, **kwargs):
        if case == "inside":
            spend(clock, budget)
        return SimpleNamespace(best_feasible_assignment="bootstrap")

    monkeypatch.setattr(bootstrap, "solve_qbp", solve_qbp)
    plan = FaultPlan()
    if case in ("fallthrough", "exhausted"):
        times = 1 if case == "fallthrough" else None
        plan.fail("bootstrap.attempt", times=times, error=BootstrapStallError)
    with inject_faults(plan):
        return bootstrap.bootstrap_initial_solution(
            problem, iterations=3, attempts=2, seed=0, budget=budget, telemetry=tel
        )


def stub_initial_rungs(case, monkeypatch, clock):
    def bootstrap_initial_solution(problem, *, seed, budget=None, iterations=20):
        if case == "inside":
            spend(clock, budget)
        if case in ("fallthrough", "exhausted"):
            raise RuntimeError("bootstrap failed: stub")
        return "bootstrap"

    def greedy_feasible_assignment(problem, seed=None):
        if case == "exhausted":
            raise RuntimeError("no capacity-feasible packing")
        return "greedy"

    monkeypatch.setattr(initial, "bootstrap_initial_solution", bootstrap_initial_solution)
    monkeypatch.setattr(initial, "greedy_feasible_assignment", greedy_feasible_assignment)
    monkeypatch.setattr(initial, "repair_feasibility", lambda problem, base, seed: "repaired")


def run_supervised(case, monkeypatch, problem, budget, clock, tel):
    stub_initial_rungs(case, monkeypatch, clock)
    return initial.supervised_initial_solution(
        problem, 0, budget, name="partition.initial"
    )


def run_paper(case, monkeypatch, problem, budget, clock, tel):
    stub_initial_rungs(case, monkeypatch, clock)
    reference = Reference(fail_first=case == "exhausted")
    return initial.paper_initial_solution(problem, reference, seed=0, budget=budget)


LADDERS = {
    "gap": run_gap,
    "bootstrap": run_bootstrap,
    "supervised": run_supervised,
    "paper": run_paper,
}


def run_ladder(ladder, case, monkeypatch, problem):
    """Run one ladder in one case; what it gave and what it recorded."""
    clock = Clock()
    budget = None
    if case in ("spent", "inside"):
        budget = Budget(wall_seconds=5.0, clock=clock)
        if case == "spent":
            budget.cancel()
    tel = Telemetry.enabled_default()
    with use_telemetry(tel):
        try:
            outcome = ("returned", LADDERS[ladder](
                case, monkeypatch, problem, budget, clock, tel
            ))
        except Exception as exc:
            outcome = ("raised", type(exc).__name__, getattr(exc, "reason", None))
    names = {span.span_id: span.name for span in tel.tracer.spans}
    return {
        "outcome": outcome,
        "spans": [
            (span.name, span.attrs, names.get(span.parent_id))
            for span in tel.tracer.spans
            if "ladder" in span.attrs or span.name == "qbp.bootstrap"
        ],
        "events": [
            (e.ladder, e.rung, e.try_index, e.status, e.error, e.elapsed_seconds == 0.0)
            for e in tel.events()
            if e.kind == "fallback"
        ],
        "fallbacks": tel.metrics_snapshot()["counters"].get("supervisor.fallbacks", 0.0),
    }


def span(name, ladder, try_index=0, error=None, parent=None):
    attrs = {"ladder": ladder, "try_index": try_index}
    if error is not None:
        attrs["error"] = error
    return (name, attrs, parent)


def outside(name, ladder):
    """The span of a start built outside the ladder's rung tries."""
    return (name, {"ladder": ladder}, None)


def boot(try_index=0, error=None):
    return span("qbp-bootstrap", "bootstrap", try_index, error, "qbp.bootstrap")


def boot_ladder(error=None):
    attrs = {"attempts": 2, "iterations": 3}
    if error is not None:
        attrs["error"] = error
    return ("qbp.bootstrap", attrs, None)


def failed(ladder, rung, error, try_index=0):
    return (ladder, rung, try_index, "error", error, False)


def skipped(ladder, rung, before_body):
    """``before_body``: skipped on entry, so with zero elapsed seconds."""
    return (ladder, rung, 0, "skipped", "budget exhausted", before_body)


INFEASIBLE = "GapInfeasibleError: no feasible GAP assignment found (constraints too tight)"
STALL = "BootstrapStallError: injected fault at 'bootstrap.attempt'"
NO_BOOTSTRAP = "RuntimeError: bootstrap failed: stub"
NO_PACKING = "RuntimeError: no capacity-feasible packing"
CANCELLED = ("raised", "BudgetExceededError", "cancelled")
DEADLINE = ("raised", "BudgetExceededError", "deadline")
GAP_E = "GapInfeasibleError"
RUN_E = "RuntimeError"
BUDGET_E = "BudgetExceededError"
SUP = "partition.initial"
PAPER = "paper.initial"

# (ladder, case) -> (outcome, spans, events)
EXPECTED = {
    ("gap", "first"): (("returned", "GapResult"), [span("gap.trust", "gap")], []),
    ("gap", "fallthrough"): (
        ("returned", "GapResult"),
        [span("gap.trust", "gap", error=GAP_E), span("gap.timing", "gap")],
        [failed("gap", "gap.trust", INFEASIBLE)],
    ),
    ("gap", "exhausted"): (
        ("returned", None),
        [span(rung, "gap", error=GAP_E) for rung in ("gap.trust", "gap.timing", "gap.plain")],
        [failed("gap", rung, INFEASIBLE) for rung in ("gap.trust", "gap.timing", "gap.plain")],
    ),
    ("gap", "spent"): (CANCELLED, [], [skipped("gap", "gap.trust", True)]),
    ("gap", "inside"): (
        DEADLINE,
        [span("gap.trust", "gap", error=BUDGET_E)],
        [skipped("gap", "gap.trust", False)],
    ),
    ("bootstrap", "first"): (("returned", "bootstrap"), [boot(), boot_ladder()], []),
    ("bootstrap", "fallthrough"): (
        ("returned", "bootstrap"),
        [boot(0, "BootstrapStallError"), boot(1), boot_ladder()],
        [failed("bootstrap", "qbp-bootstrap", STALL)],
    ),
    ("bootstrap", "exhausted"): (
        ("raised", RUN_E, None),
        [boot(0, "BootstrapStallError"), boot(1, "BootstrapStallError"), boot_ladder(RUN_E)],
        [failed("bootstrap", "qbp-bootstrap", STALL, t) for t in (0, 1)],
    ),
    ("bootstrap", "spent"): (
        CANCELLED, [boot_ladder(BUDGET_E)], [skipped("bootstrap", "qbp-bootstrap", True)]
    ),
    ("bootstrap", "inside"): (
        DEADLINE,
        [boot(0, BUDGET_E), boot_ladder(BUDGET_E)],
        [skipped("bootstrap", "qbp-bootstrap", False)],
    ),
    ("supervised", "first"): (
        ("returned", ("bootstrap", "qbp-bootstrap")), [span("qbp-bootstrap", SUP)], []
    ),
    ("supervised", "fallthrough"): (
        ("returned", ("repaired", "greedy+repair")),
        [span("qbp-bootstrap", SUP, error=RUN_E), span("greedy+repair", SUP)],
        [failed(SUP, "qbp-bootstrap", NO_BOOTSTRAP)],
    ),
    ("supervised", "exhausted"): (
        ("raised", "InitialSolutionError", None),
        [
            span(rung, SUP, error=RUN_E)
            for rung in ("qbp-bootstrap", "greedy+repair", "greedy-capacity-only")
        ],
        [
            failed(SUP, "qbp-bootstrap", NO_BOOTSTRAP),
            failed(SUP, "greedy+repair", NO_PACKING),
            failed(SUP, "greedy-capacity-only", NO_PACKING),
        ],
    ),
    ("supervised", "spent"): (
        ("returned", ("greedy", "greedy-capacity-only")),
        [outside("greedy-capacity-only", SUP)],
        [skipped(SUP, "qbp-bootstrap", True)],
    ),
    ("supervised", "inside"): (
        ("returned", ("greedy", "greedy-capacity-only")),
        [span("qbp-bootstrap", SUP, error=BUDGET_E), outside("greedy-capacity-only", SUP)],
        [skipped(SUP, "qbp-bootstrap", False)],
    ),
    ("paper", "first"): (("returned", "bootstrap"), [span("paper-bootstrap", PAPER)], []),
    ("paper", "fallthrough"): (
        ("returned", "reference"),
        [span("paper-bootstrap", PAPER, error=RUN_E), span("reference-fallback", PAPER)],
        [failed(PAPER, "paper-bootstrap", NO_BOOTSTRAP)],
    ),
    ("paper", "exhausted"): (
        ("returned", "reference"),
        [
            span("paper-bootstrap", PAPER, error=RUN_E),
            span("reference-fallback", PAPER, error=RUN_E),
            outside("reference-fallback", PAPER),
        ],
        [
            failed(PAPER, "paper-bootstrap", NO_BOOTSTRAP),
            failed(PAPER, "reference-fallback", "RuntimeError: reference unavailable"),
        ],
    ),
    ("paper", "spent"): (
        ("returned", "reference"),
        [outside("reference-fallback", PAPER)],
        [skipped(PAPER, "paper-bootstrap", True)],
    ),
    ("paper", "inside"): (
        ("returned", "reference"),
        [span("paper-bootstrap", PAPER, error=BUDGET_E), outside("reference-fallback", PAPER)],
        [skipped(PAPER, "paper-bootstrap", False)],
    ),
}


@pytest.mark.parametrize("case", CASES)
@pytest.mark.parametrize("ladder", sorted(LADDERS))
def test_ladder_telemetry(ladder, case, monkeypatch, paper_problem):
    outcome, spans, events = EXPECTED[ladder, case]
    got = run_ladder(ladder, case, monkeypatch, paper_problem)
    assert got["outcome"] == outcome
    assert got["spans"] == spans
    assert got["events"] == events
    # Every recorded try counts once.
    assert got["fallbacks"] == len(events)


def test_initial_solution_error_names_each_rung_and_its_error(monkeypatch, paper_problem):
    stub_initial_rungs("exhausted", monkeypatch, Clock())
    with pytest.raises(InitialSolutionError) as excinfo:
        initial.supervised_initial_solution(paper_problem, 0)
    message = str(excinfo.value)
    assert f"qbp-bootstrap ({NO_BOOTSTRAP})" in message
    assert f"greedy+repair ({NO_PACKING})" in message
    assert f"greedy-capacity-only ({NO_PACKING})" in message


def test_bootstrap_error_starts_with_bootstrap_failed(paper_problem):
    plan = FaultPlan().fail("bootstrap.attempt", times=None, error=BootstrapStallError)
    with inject_faults(plan), pytest.raises(RuntimeError) as excinfo:
        bootstrap.bootstrap_initial_solution(paper_problem, attempts=2, seed=0)
    assert str(excinfo.value).startswith("bootstrap failed: ")
    assert plan.calls["bootstrap.attempt"] == 2
