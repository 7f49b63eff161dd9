"""The incremental GKL pass against the reference pass, swap for swap.

:mod:`tests.baselines.gkl_oracle` rebuilds the whole swap-score matrix
at every pick.  The production pass keeps one matrix per pass and
rescores only the pairs a swap changes, so at every pick its matrix
must equal the fresh rebuild bit for bit, and it must pick the same
pair with the same delta float.

The instances are built to reach every input of a score: non-integer
sizes and weights, wires added repeatedly and in both directions, an
asymmetric ``B`` and ``D``, an ``alpha * P`` term, tight capacities
(a swap moves the headroom of two partitions) and mutual timing
constraints that the approximate timing mask lets through and
:meth:`~repro.engine.delta.DeltaCache.exact_swap_feasible` rejects.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.baselines import gkl
from repro.baselines.gkl import gkl_partition
from repro.core.assignment import Assignment
from repro.core.constraints import check_feasibility
from repro.core.problem import PartitioningProblem
from repro.engine.delta import DeltaCache
from repro.netlist.circuit import Circuit
from repro.timing.constraints import TimingConstraints
from repro.topology.partition import Partition, Topology

from tests.baselines import gkl_oracle


def random_instance(seed, *, n=36, m=5, timed=True, linear=True, tight=True):
    """A problem and a feasible start exercising every score input."""
    rng = np.random.default_rng(seed)
    circuit = Circuit(f"gkl-oracle-{seed}")
    sizes = rng.uniform(0.5, 3.0, n)
    for j in range(n):
        circuit.add_component(f"u{j}", size=float(sizes[j]))
    for _ in range(3 * n):
        j1, j2 = (int(j) for j in rng.choice(n, 2, replace=False))
        circuit.add_wire(j1, j2, float(rng.uniform(0.1, 4.0)))
        kind = rng.random()
        if kind < 0.5:
            circuit.add_wire(j2, j1, float(rng.uniform(0.1, 4.0)))
        elif kind < 0.7:
            circuit.add_wire(j1, j2, float(rng.uniform(0.1, 4.0)))
    part = rng.integers(0, m, n)
    loads = np.bincount(part, weights=sizes, minlength=m)
    spare = rng.uniform(0.0, 1.5, m) if tight else loads + 5.0
    partitions = [Partition(f"p{i}", float(loads[i] + spare[i])) for i in range(m)]
    cost = rng.uniform(0.5, 3.0, (m, m))
    np.fill_diagonal(cost, 0.0)
    # Fast towards higher partition indices, slow back: a pair that
    # meets its budgets now can break them by trading places.
    delay = np.triu(rng.uniform(0.1, 1.0, (m, m)), k=1)
    delay += np.tril(rng.uniform(2.0, 3.0, (m, m)), k=-1)
    topology = Topology(partitions, cost, delay)
    timing = None
    if timed:
        timing = TimingConstraints(n)
        # Disjoint mutual pairs, each budget just above the start's delay.
        pairs = rng.permutation(n)[: 2 * (n // 3)].reshape(-1, 2)
        for j1, j2 in pairs.tolist():
            timing.add(j1, j2, float(delay[part[j1], part[j2]] + rng.uniform(0.0, 0.4)))
            timing.add(j2, j1, float(delay[part[j2], part[j1]] + rng.uniform(0.0, 0.4)))
    linear_cost = rng.uniform(0.0, 2.0, (m, n)) if linear else None
    problem = PartitioningProblem(
        circuit, topology, timing=timing, linear_cost=linear_cost, alpha=0.7, beta=1.3
    )
    start = Assignment(part, m)
    assert check_feasibility(problem, start).feasible
    return problem, start


INSTANCES = pytest.mark.parametrize(
    "seed,timed,linear,tight",
    [
        (0, True, True, True),
        (1, True, False, True),
        (2, False, True, True),
        (3, True, True, False),
        (4, False, False, False),
        (5, True, True, True),
    ],
)


def upper(matrix):
    return matrix[np.triu_indices(matrix.shape[0], k=1)]


class TestRowRoutines:
    @INSTANCES
    def test_whole_matrices_match_the_reference(self, seed, timed, linear, tight):
        problem, start = random_instance(seed, timed=timed, linear=linear, tight=tight)
        engine = DeltaCache(problem, start)
        rng = np.random.default_rng(seed)
        for _ in range(6):
            swap = engine.swap_delta_matrix()
            assert np.array_equal(upper(swap), upper(gkl_oracle.swap_delta_matrix(engine)))
            assert np.array_equal(swap, swap.T)
            assert np.array_equal(
                engine.swap_capacity_mask(), gkl_oracle.swap_capacity_mask(engine)
            )
            assert np.array_equal(engine.swap_timing_mask(), gkl_oracle.swap_timing_mask(engine))
            rows = np.sort(rng.choice(engine.n, 7, replace=False))
            assert np.array_equal(engine.swap_delta_rows(rows), swap[rows])
            j1, j2 = (int(j) for j in rng.choice(engine.n, 2, replace=False))
            engine.apply_swap(j1, j2)


def record(module, monkeypatch, check=None):
    """Wrap ``module._best_swap``; returns the list its picks go to."""
    picks = []
    real = module._best_swap

    def best_swap(engine, arg):
        if check is not None:
            check(engine, arg)
        pick = real(engine, arg)
        picks.append(pick)
        return pick

    monkeypatch.setattr(module, "_best_swap", best_swap)
    return picks


class TestPassAgainstReference:
    @INSTANCES
    @pytest.mark.parametrize("max_swaps", [None, 5])
    def test_same_swaps_step_by_step(self, monkeypatch, seed, timed, linear, tight, max_swaps):
        problem, start = random_instance(seed, timed=timed, linear=linear, tight=tight)
        engine = DeltaCache(problem, start)
        reference = DeltaCache(problem, start)
        locked = np.zeros(engine.n, dtype=bool)

        def check(engine, scores):
            # The pass's matrix is the fresh rebuild at every pick, kept
            # on both sides of the diagonal.
            assert np.array_equal(scores, scores.T)
            above = np.triu(np.ones(scores.shape, dtype=bool), k=1)
            fresh = gkl_oracle.reference_scores(engine, locked)
            assert np.array_equal(np.where(above, scores, np.inf), fresh)

        got = record(gkl, monkeypatch, check)
        want = record(gkl_oracle, monkeypatch)
        steps = 0
        for _ in range(6):
            locked[:] = False
            got.clear()
            want.clear()
            # The check reads the locks the pass has set so far.
            real_apply = engine.apply_swap

            def apply_swap(j1, j2):
                locked[j1] = locked[j2] = True
                return real_apply(j1, j2)

            monkeypatch.setattr(engine, "apply_swap", apply_swap)
            result = gkl._run_pass(engine, max_swaps)
            monkeypatch.setattr(engine, "apply_swap", real_apply)
            expected = gkl_oracle._run_pass(reference, max_swaps)
            assert got == want
            assert result == expected
            assert np.array_equal(engine.part, reference.part)
            steps += len(got)
            if expected[0] <= 1e-9:
                break
        assert steps > 0

    def test_some_walks_reject_candidates(self, monkeypatch):
        # Guards the test above against instances whose walks never
        # reach a candidate that exact_swap_feasible rejects.
        verdicts = []
        exact = DeltaCache.exact_swap_feasible

        def exact_swap_feasible(engine, j1, j2):
            verdicts.append(exact(engine, j1, j2))
            return verdicts[-1]

        monkeypatch.setattr(DeltaCache, "exact_swap_feasible", exact_swap_feasible)
        for seed in (0, 1):
            gkl_partition(*random_instance(seed))
        assert verdicts.count(False) >= 3

    @INSTANCES
    @pytest.mark.parametrize("max_swaps", [None, 3])
    def test_gkl_partition_matches_reference(self, monkeypatch, seed, timed, linear, tight, max_swaps):
        problem, start = random_instance(seed, timed=timed, linear=linear, tight=tight)
        got = gkl_partition(problem, start, max_swaps_per_pass=max_swaps)
        monkeypatch.setattr(gkl, "_run_pass", gkl_oracle._run_pass)
        want = gkl_partition(problem, start, max_swaps_per_pass=max_swaps)
        assert got.pass_costs == want.pass_costs
        assert got.moves_applied == want.moves_applied
        assert got.passes == want.passes
        assert got.cost == want.cost
        assert np.array_equal(got.assignment.part, want.assignment.part)
        assert got.feasible
