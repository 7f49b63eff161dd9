"""The production MTHG against the reference phases, bit for bit.

:mod:`tests.solvers.gap_oracle` keeps the straightforward phases (a
stable ``argsort`` per popped item, a scan of every item per shift pass,
whole-matrix exchange masks).  Every instance here is solved by both,
and the results must agree exactly: same assignment, same cost, same
criterion, same ``improved`` flag.  The last test builds the full-size
Table II shared start both ways, comparing every GAP outcome on the way.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.constraints import TimingIndex, timing_move_mask
from repro.core.objective import ObjectiveEvaluator
from repro.eval.harness import shared_initial_solution
from repro.eval.workloads import BASE_SEED, build_workload
from repro.solvers import gap, repair
from repro.solvers.gap import DEFAULT_CRITERIA, GapInfeasibleError, solve_gap
from repro.solvers.qbp import iteration
from repro.solvers.qbp.formulation import IterationState, resolve_penalty
from repro.timing.constraints import TimingConstraints

from tests.solvers import gap_oracle, repair_oracle
from tests.solvers.gap_oracle import reference_solve_gap


def outcome(solver, *args, **kwargs):
    try:
        return solver(*args, **kwargs)
    except GapInfeasibleError:
        return None


def assert_same(cost, sizes, capacities, **kwargs):
    """Both solvers agree exactly; returns the reference result (or None)."""
    got = outcome(solve_gap, cost, sizes, capacities, **kwargs)
    want = outcome(reference_solve_gap, cost, sizes, capacities, **kwargs)
    if want is None:
        assert got is None
        return None
    assert got is not None
    assert np.array_equal(got.assignment, want.assignment)
    assert got.cost == want.cost
    assert got.criterion == want.criterion
    assert got.improved == want.improved
    return want


def assert_same_constructions(cost, sizes, capacities, timing=None, static=None):
    """Every criterion's construction agrees; returns how many completed."""
    completed = 0
    for criterion in DEFAULT_CRITERIA:
        got = gap._construct(cost, sizes, capacities, criterion, timing, static)
        want = gap_oracle._construct(cost, sizes, capacities, criterion, timing, static)
        if want is None:
            assert got is None, criterion
            continue
        assert got is not None, criterion
        assert np.array_equal(got, want), criterion
        completed += 1
    return completed


def random_instance(rng, *, rounded, integer_sizes, tight, masked):
    m = int(rng.integers(1, 17))
    n = int(rng.integers(1, 121))
    cost = rng.uniform(-5.0, 20.0, (m, n))
    if rounded:
        cost = np.round(cost)  # many ties between partitions
    if integer_sizes:
        sizes = rng.integers(0, 6, n).astype(float)
    else:
        sizes = rng.uniform(0.1, 4.0, n)
    slack = rng.uniform(1.0, 1.08) if tight else rng.uniform(1.3, 2.5)
    capacities = rng.uniform(0.8, 1.2, m) * sizes.sum() / m * slack
    mask = rng.random((m, n)) < 0.8 if masked else None
    return cost, sizes, capacities, mask


@pytest.mark.parametrize("masked", [False, True], ids=["unmasked", "masked"])
@pytest.mark.parametrize("tight", [False, True], ids=["loose", "tight"])
@pytest.mark.parametrize("integer_sizes", [False, True], ids=["real", "integer"])
@pytest.mark.parametrize("rounded", [False, True], ids=["distinct", "ties"])
def test_random_instances(rounded, integer_sizes, tight, masked):
    seed = 8 * rounded + 4 * integer_sizes + 2 * tight + masked
    rng = np.random.default_rng(seed)
    for _ in range(6):
        cost, sizes, capacities, mask = random_instance(
            rng, rounded=rounded, integer_sizes=integer_sizes, tight=tight, masked=masked
        )
        assert_same(cost, sizes, capacities, allowed_mask=mask)
        static = None if mask is None else mask.T.copy()
        assert_same_constructions(cost, sizes, capacities, static=static)


@pytest.mark.parametrize("criterion", DEFAULT_CRITERIA)
def test_each_criterion_alone(criterion):
    rng = np.random.default_rng(100)
    for _ in range(8):
        cost, sizes, capacities, mask = random_instance(
            rng, rounded=True, integer_sizes=True, tight=True, masked=False
        )
        for improve in (False, True):
            assert_same(cost, sizes, capacities, criteria=(criterion,), improve=improve)


def random_start(rng, *, masked, timed):
    """A random assignment with little headroom and its GAP data.

    Few cost levels: many tied improving moves and exchanges, most of
    them blocked by capacity.  The cost step runs from below the move
    tolerances to far above them.
    """
    m = int(rng.integers(2, 9))
    n = int(rng.integers(2, 80))
    cost = rng.integers(0, 4, (m, n)) * rng.choice([1e-13, 1e-6, 1.0, 1e6])
    sizes = rng.integers(1, 4, n).astype(float)
    start = rng.integers(0, m, n)
    capacities = np.bincount(start, weights=sizes, minlength=m) + rng.integers(0, 3, m)
    static = None
    if masked:
        static = rng.random((n, m)) < 0.7
        static[np.arange(n), start] = True
    timing = None
    if timed:
        constraints = TimingConstraints(n)
        for j1, j2 in rng.integers(0, n, (n, 2)):
            if j1 != j2:
                constraints.add(j1, j2, float(rng.integers(1, 3)), symmetric=True)
        timing = TimingIndex(constraints, rng.integers(0, 4, (m, m)).astype(float))
    return start, (cost, sizes, capacities, 4, timing, static)


def assert_same_improvement(start, args):
    """Both improvement phases agree with the reference from ``start``."""
    for phase in ("_improve", "_exchange_improve"):
        got, want = start.copy(), start.copy()
        improved = getattr(gap, phase)(got, *args)
        expected = getattr(gap_oracle, phase)(want, *args)
        assert improved == expected, phase
        assert np.array_equal(got, want), phase


def swapping_passes(start, args) -> int:
    """How many passes of the reference exchange descent swap something."""
    cost, sizes, capacities, _, timing, static = args
    last = start
    for passes in range(1, 5):
        now = start.copy()
        gap_oracle._exchange_improve(now, cost, sizes, capacities, passes, timing, static)
        if np.array_equal(now, last):
            return passes - 1
        last = now
    return 4


@pytest.mark.parametrize("timed", [False, True], ids=["untimed", "timed"])
@pytest.mark.parametrize("masked", [False, True], ids=["unmasked", "masked"])
def test_improvement_passes_from_random_starts(masked, timed):
    rng = np.random.default_rng(200 + 2 * masked + timed)
    for _ in range(25):
        assert_same_improvement(*random_start(rng, masked=masked, timed=timed))


@pytest.mark.parametrize("timed", [False, True], ids=["untimed", "timed"])
@pytest.mark.parametrize("masked", [False, True], ids=["unmasked", "masked"])
def test_improvement_passes_on_transposed_costs(masked, timed):
    # The costs come as the transposed view of an item-major array, the
    # way solve_qbp passes eta.T.  The exchange descent carries its
    # improving pairs across passes, so some instances must swap in at
    # least three passes.
    rng = np.random.default_rng(400 + 2 * masked + timed)
    deep = 0
    for _ in range(25):
        start, (cost, *rest) = random_start(rng, masked=masked, timed=timed)
        args = (np.ascontiguousarray(cost.T).T, *rest)
        assert args[0].flags.f_contiguous and not args[0].flags.c_contiguous
        assert_same_improvement(start, args)
        deep += swapping_passes(start, args) >= 3
    assert deep > 0


@pytest.mark.parametrize("timed", [False, True], ids=["untimed", "timed"])
@pytest.mark.parametrize("masked", [False, True], ids=["unmasked", "masked"])
def test_best_fit_fallback_matches_reference(masked, timed):
    # Integer sizes and capacities and rounded costs: residuals and
    # costs tie often, so every tie-break of the choice is exercised.
    rng = np.random.default_rng(300 + 2 * masked + timed)
    placed = dead_ends = 0
    for _ in range(80):
        m = int(rng.integers(1, 9))
        n = int(rng.integers(1, 60))
        cost = np.round(rng.uniform(0.0, 6.0, (m, n)))
        sizes = rng.integers(1, 6, n).astype(float)
        total = int(sizes.sum()) + int(rng.integers(0, 2 * m + 1))
        capacities = rng.multinomial(total, np.full(m, 1.0 / m)).astype(float)
        static = rng.random((n, m)) < 0.75 if masked else None
        timing = None
        if timed:
            constraints = TimingConstraints(n)
            for j1, j2 in rng.integers(0, n, (n // 2 + 1, 2)):
                if j1 != j2:
                    constraints.add(j1, j2, float(rng.integers(1, 4)))
            timing = TimingIndex(constraints, rng.integers(0, 5, (m, m)).astype(float))
        got = gap._best_fit_decreasing(cost, sizes, capacities, timing, static)
        want = gap_oracle._best_fit_decreasing(cost, sizes, capacities, timing, static)
        if want is None:
            assert got is None
            dead_ends += 1
            continue
        assert got is not None
        assert got.dtype == want.dtype
        assert np.array_equal(got, want)
        placed += 1
    assert placed > 0
    assert dead_ends > 0


def test_empty_instances():
    # No items, with and without partitions: nothing to place or improve.
    for m in (0, 2):
        result = assert_same(np.zeros((m, 0)), [], np.ones(m))
        assert result.assignment.size == 0 and result.cost == 0.0


def test_dead_ends_reach_the_best_fit_fallback():
    # Near-exact packings: every regret construction can wedge while the
    # best-fit fallback still packs.
    rng = np.random.default_rng(0)
    fallbacks = 0
    for _ in range(2000):
        m = int(rng.integers(2, 5))
        n = int(rng.integers(3, 9))
        sizes = rng.integers(1, 6, n).astype(float)
        total = int(sizes.sum()) + int(rng.integers(0, 2))
        capacities = rng.multinomial(total, np.full(m, 1.0 / m)).astype(float)
        cost = np.round(rng.uniform(0.0, 10.0, (m, n)))
        want = assert_same(cost, sizes, capacities)
        if want is not None and want.criterion == "best_fit_fallback":
            fallbacks += 1
            if fallbacks == 5:
                break
    assert fallbacks == 5


@pytest.mark.parametrize("scale", [0.1, 0.25])
@pytest.mark.parametrize("name", ["ckta", "cktb", "cktc"])
def test_timing_aware_on_eta_costs(name, scale):
    workload = build_workload(name, scale=scale)
    problem = workload.problem
    state = IterationState(
        problem, ObjectiveEvaluator(problem), resolve_penalty(problem, None), "symmetric"
    )
    sizes, capacities = problem.sizes(), problem.capacities()
    n, m = problem.num_components, problem.num_partitions
    rng = np.random.default_rng(1)
    parts = [workload.reference.part] + [rng.integers(0, m, n) for _ in range(2)]
    for part in parts:
        cost = state.eta(np.asarray(part)).T
        assert_same(cost, sizes, capacities, timing=state.timing_index)
        trust = timing_move_mask(problem.timing, state.D, workload.reference.part, m).T
        trust[workload.reference.part, np.arange(n)] = True
        assert_same(cost, sizes, capacities, allowed_mask=trust)
        assert_same_constructions(cost, sizes, capacities, timing=state.timing_index)


def test_some_timing_aware_constructions_complete():
    # Guards the test above against comparing only dead ends.
    workload = build_workload("cktb", scale=0.1)
    problem = workload.problem
    state = IterationState(
        problem, ObjectiveEvaluator(problem), resolve_penalty(problem, None), "symmetric"
    )
    cost = state.eta(workload.reference.part).T
    completed = assert_same_constructions(
        cost, problem.sizes(), problem.capacities(), timing=state.timing_index
    )
    assert completed > 0



def test_swap_check_matches_timing_index():
    # The exchange pass asks TimingIndex.swap_is_feasible; the oracle's
    # own check must agree on every pair of items in different
    # partitions, the only pairs an exchange tests.  Budgets are
    # directed and the delays asymmetric; a fifth of the pairs are
    # constrained in both directions with independent budgets.
    rng = np.random.default_rng(7)
    outcomes = {(mutual, ok): 0 for mutual in (False, True) for ok in (False, True)}
    for _ in range(60):
        n, m = int(rng.integers(2, 13)), int(rng.integers(2, 6))
        delay = rng.uniform(0.0, 3.0, (m, m))
        np.fill_diagonal(delay, 0.0)
        constraints = TimingConstraints(n)
        for j1 in range(n):
            for j2 in range(j1 + 1, n):
                draw = rng.random()
                if draw < 0.2:
                    constraints.add(j1, j2, float(rng.uniform(1.5, 3.5)))
                    constraints.add(j2, j1, float(rng.uniform(1.5, 3.5)))
                elif draw < 0.3:
                    a, b = (j1, j2) if rng.random() < 0.5 else (j2, j1)
                    constraints.add(a, b, float(rng.uniform(1.5, 3.5)))
        index = TimingIndex(constraints, delay)
        part = rng.integers(0, m, n).tolist()
        for j1 in range(n):
            for j2 in range(j1 + 1, n):
                if part[j1] == part[j2]:
                    continue
                want = gap_oracle._swap_timing_ok(index, part, j1, j2)
                assert index.swap_is_feasible(part, j1, j2) == want, (part, j1, j2)
                mutual = bool(
                    np.isfinite(constraints.budget(j1, j2))
                    and np.isfinite(constraints.budget(j2, j1))
                )
                outcomes[mutual, want] += 1
    assert min(outcomes.values()) > 50, outcomes


def recording_rung(solver, log):
    """A stand-in for the QBP iteration's ``solve_gap`` that logs each outcome."""

    def rung(cost, sizes, capacities, **kwargs):
        try:
            result = solver(cost, sizes, capacities, **kwargs)
        except GapInfeasibleError:
            log.append(None)
            raise
        log.append((result.assignment.tolist(), result.cost, result.criterion, result.improved))
        return result

    return rung


def test_full_size_shared_start_matches_reference(monkeypatch):
    # The shared start of the full-size cktb twin (Table II's protocol at
    # Table I's seed, solver seed 0): 40 zero-B Burkard iterations, each
    # with two GAP solves at N=357, and the iterate repair.  Every GAP
    # outcome along the way must match too, not only the start.  The
    # floor exit would stop the bootstrap after its first iteration; a
    # floor of -inf keeps all 40, trust-rung solves included, and gives
    # the same start.
    monkeypatch.setattr(ObjectiveEvaluator, "cost_floor", lambda self: -np.inf)
    workload = build_workload("cktb", scale=1.0, seed=BASE_SEED)
    got_log, want_log = [], []
    monkeypatch.setattr(iteration, "solve_gap", recording_rung(solve_gap, got_log))
    got = shared_initial_solution(workload, seed=0)

    def reference(cost, sizes, capacities, *, budget=None, **kwargs):
        return reference_solve_gap(cost, sizes, capacities, **kwargs)

    repairs = []

    def reference_repair(*args, index=None, **kwargs):
        repairs.append(args)
        return repair_oracle.repair_feasibility(*args, **kwargs)

    monkeypatch.setattr(iteration, "solve_gap", recording_rung(reference, want_log))
    monkeypatch.setattr(iteration, "repair_feasibility", reference_repair)
    monkeypatch.setattr(repair, "repair_feasibility", reference_repair)
    want = shared_initial_solution(workload, seed=0)
    assert want_log and repairs
    for call, (got_outcome, want_outcome) in enumerate(zip(got_log, want_log)):
        assert got_outcome == want_outcome, f"GAP call {call}"
    assert len(got_log) == len(want_log)
    assert np.array_equal(got.part, want.part)
