"""The cost-floor exit of ``solve_qbp`` is exact.

``solve_qbp`` stops once its feasible incumbent costs
``ObjectiveEvaluator.cost_floor()``.  A run with the floor patched to
``-inf`` never stops there, so it is the reference: the run with the
exit must return the same assignments and costs, bit for bit, and stop
in the iteration that produced the first feasible candidate.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.objective import ObjectiveEvaluator
from repro.eval.workloads import BASE_SEED, build_workload, workload_names
from repro.obs.telemetry import Telemetry
from repro.runtime.checkpoint import QbpCheckpointer
from repro.solvers.burkard import bootstrap_initial_solution, solve_qbp
from repro.solvers.greedy import greedy_feasible_assignment
from repro.solvers.qbp.formulation import is_fully_feasible
from repro.utils.rng import ensure_rng

# The bootstrap's own solve, on the three twins that reach feasibility
# within three iterations (its stalls cost seconds each); and, on all
# seven, a solve without the iterate repair, whose stalls stay cheap and
# whose first feasible iterate can come later.
SETTINGS = {
    "bootstrap": (("ckta", "cktb", "cktg"), {"iterations": 40}),
    "no-repair": (workload_names(), {"iterations": 12, "repair_iterates": False}),
}


def without_floor(monkeypatch) -> None:
    monkeypatch.setattr(ObjectiveEvaluator, "cost_floor", lambda self: -np.inf)


def assert_bit_identical(got, want) -> None:
    assert np.array_equal(got.assignment.part, want.assignment.part)
    if want.best_feasible_assignment is None:
        assert got.best_feasible_assignment is None
    else:
        assert np.array_equal(
            got.best_feasible_assignment.part, want.best_feasible_assignment.part
        )
    assert float(got.cost).hex() == float(want.cost).hex()
    assert float(got.penalized_cost).hex() == float(want.penalized_cost).hex()
    # The run with the exit is the reference, cut short.
    assert got.history == want.history[: len(got.history)]
    assert got.improvement_iterations == [
        k for k in want.improvement_iterations if k <= got.iterations
    ]


def first_feasible_iteration(problem, seed, events):
    """The iteration of the first feasible candidate: 0 for the start, else
    read off the reference's ``iteration`` events; ``None`` if none was."""
    start = greedy_feasible_assignment(problem, ensure_rng(seed))
    if is_fully_feasible(problem, ObjectiveEvaluator(problem), start.part):
        return 0
    found = [
        e.iteration
        for e in events
        if e.kind == "iteration" and e.best_feasible_cost is not None
    ]
    return found[0] if found else None


@pytest.mark.parametrize("setting", sorted(SETTINGS))
def test_zero_b_twins_match_runs_without_the_exit(setting, monkeypatch):
    circuits, kwargs = SETTINGS[setting]
    firsts = []
    for circuit in circuits:
        zeroed = build_workload(circuit, scale=0.1).problem.with_zero_interconnect()
        assert ObjectiveEvaluator(zeroed).cost_floor() == 0.0
        for seed in range(5):
            got = solve_qbp(zeroed, seed=seed, **kwargs)
            if got.best_feasible_assignment is None:
                # No feasible incumbent: every floor check failed, so this
                # run made the reference's computation.
                firsts.append(None)
                continue
            tel = Telemetry.enabled_default()
            with monkeypatch.context() as patch:
                without_floor(patch)
                want = solve_qbp(zeroed, seed=seed, telemetry=tel, **kwargs)
            assert_bit_identical(got, want)
            first = first_feasible_iteration(zeroed, seed, tel.events())
            assert got.iterations == (want.iterations if first is None else first)
            assert got.stop_reason == want.stop_reason == "completed"
            firsts.append(first)
    # The sweep holds exits at the first iteration and later ones, and
    # without the repair solves that never reach feasibility.
    assert 1 in firsts
    assert any(first is not None and first > 1 for first in firsts)
    assert (None in firsts) == (setting == "no-repair")


def test_full_size_cktb_bootstrap_matches_a_run_without_the_exit(monkeypatch):
    # Table II's shared start of the full-size cktb twin.
    problem = build_workload("cktb", scale=1.0, seed=BASE_SEED).problem
    tel = Telemetry.enabled_default()
    got = bootstrap_initial_solution(problem, iterations=40, seed=0, telemetry=tel)
    without_floor(monkeypatch)
    reference_tel = Telemetry.enabled_default()
    want = bootstrap_initial_solution(
        problem, iterations=40, seed=0, telemetry=reference_tel
    )
    assert np.array_equal(got.part, want.part)
    # The bootstrap's generator draws the first attempt's start first.
    first = first_feasible_iteration(
        problem.with_zero_interconnect(), 0, reference_tel.events()
    )
    [solve] = [span for span in tel.tracer.spans if span.name == "qbp.solve"]
    assert solve.attrs["floor_exit_iteration"] == first


def test_feasible_start_at_the_floor_runs_no_iteration(tmp_path):
    workload = build_workload("ckta", scale=0.1)
    zeroed = workload.problem.with_zero_interconnect()
    checkpointer = QbpCheckpointer(tmp_path / "qbp.json")
    tel = Telemetry.enabled_default()
    result = solve_qbp(
        zeroed, iterations=5, initial=workload.reference, seed=0,
        checkpointer=checkpointer, telemetry=tel,
    )
    assert result.iterations == 0
    assert result.stop_reason == "completed"
    assert result.history == [0.0]
    assert np.array_equal(result.best_feasible_assignment.part, workload.reference.part)
    assert not [e for e in tel.events() if e.kind == "iteration"]
    [solve] = [span for span in tel.tracer.spans if span.name == "qbp.solve"]
    assert solve.attrs["floor_exit_iteration"] == 0
    assert solve.attrs["stop_reason"] == "completed"
    # The final snapshot is written at the exit, and resuming from it
    # exits again at once with the same result.
    snapshot = checkpointer.load()
    assert snapshot is not None and snapshot.iteration == 0
    assert np.array_equal(snapshot.best_feas_part, workload.reference.part)
    resumed = solve_qbp(zeroed, iterations=5, resume=snapshot, seed=0)
    assert resumed.iterations == 0
    assert_bit_identical(resumed, result)
