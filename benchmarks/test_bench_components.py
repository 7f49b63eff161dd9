"""Micro-benchmarks of the library's hot paths.

Not tied to one paper table; these track the cost of the primitives the
tables are built from (eta evaluation, one GAP solve, one GFM pass, one
GKL pass, STA, feasibility checking) so performance regressions are
visible in isolation.
"""

import numpy as np
import pytest

from repro.baselines.gfm import _run_pass as gfm_pass
from repro.baselines.gkl import _run_pass as gkl_pass
from repro.core.constraints import check_feasibility
from repro.core.objective import ObjectiveEvaluator
from repro.engine.delta import DeltaCache
from repro.solvers.gap import solve_gap
from repro.timing.graph import TimingGraph

CIRCUIT = "cktd"


@pytest.fixture(scope="module")
def setting(request):
    workloads = request.getfixturevalue("workloads")
    initials = request.getfixturevalue("initials")
    return workloads[CIRCUIT], initials[CIRCUIT]


def test_bench_objective_evaluation(benchmark, setting):
    workload, initial = setting
    evaluator = ObjectiveEvaluator(workload.problem)
    cost = benchmark(evaluator.cost, initial)
    assert cost > 0


def test_bench_penalized_cost(benchmark, setting):
    workload, initial = setting
    evaluator = ObjectiveEvaluator(workload.problem)
    benchmark(evaluator.penalized_cost, initial, 50.0)


def test_bench_feasibility_check(benchmark, setting):
    workload, initial = setting
    report = benchmark(check_feasibility, workload.problem, initial)
    assert report.feasible


def test_bench_gap_solve(benchmark, setting):
    workload, initial = setting
    problem = workload.problem
    rng = np.random.default_rng(0)
    cost = rng.uniform(0, 10, (problem.num_partitions, problem.num_components))
    result = benchmark(
        solve_gap, cost, problem.sizes(), problem.capacities()
    )
    assert result.num_items == problem.num_components


def test_bench_delta_cache_build(benchmark, setting):
    workload, initial = setting
    engine = benchmark(DeltaCache, workload.problem, initial)
    assert engine.n == workload.num_components


def test_bench_gfm_pass(benchmark, setting):
    workload, initial = setting

    def one_pass():
        engine = DeltaCache(workload.problem, initial)
        return gfm_pass(engine, None)

    improvement, moves = benchmark.pedantic(one_pass, rounds=1)
    assert moves >= 0


def test_bench_gkl_pass(benchmark, setting):
    workload, initial = setting

    def one_pass():
        engine = DeltaCache(workload.problem, initial)
        return gkl_pass(engine, None)

    improvement, swaps = benchmark.pedantic(one_pass, rounds=1)
    assert swaps >= 0


def test_bench_sta(benchmark, setting):
    workload, _ = setting
    graph = TimingGraph.from_circuit(workload.circuit)
    report = benchmark(graph.analyze, 1e9)
    assert report.critical_path_delay > 0
