"""Ablation: sparse on-demand eta vs materialising dense Q (Section 4.3).

The paper's speedup claim: with few partitions and a sparse ``A``, the
STEP 3 vector can be computed from the sparse representation in
O(nnz(A) * M) instead of the O(M^2 N^2) dense product - "we never
explicitly generate the Q_hat matrix".  This ablation times one eta
evaluation both ways on a mid-sized circuit and asserts they agree.
"""

import numpy as np
import pytest

from repro.core.embedding import embed_timing
from repro.core.objective import ObjectiveEvaluator
from repro.core.qmatrix import build_q_dense
from repro.solvers.burkard import IterationState, resolve_penalty

CIRCUIT = "cktb"


@pytest.fixture(scope="module")
def setting(request):
    workloads = request.getfixturevalue("workloads")
    initials = request.getfixturevalue("initials")
    workload = workloads[CIRCUIT]
    problem = workload.problem
    evaluator = ObjectiveEvaluator(problem)
    penalty = resolve_penalty(problem, "paper")
    state = IterationState(problem, evaluator, penalty, "burkard")
    part = initials[CIRCUIT].part
    return problem, state, part, penalty


def test_bench_eta_sparse(benchmark, setting):
    """The production path: eta from sparse A + constraint list."""
    problem, state, part, _ = setting
    eta = benchmark(state.eta, part)
    assert eta.shape == (problem.num_components, problem.num_partitions)


def test_bench_eta_dense(benchmark, setting):
    """The naive path: materialise Q_hat and multiply by u."""
    problem, state, part, penalty = setting
    n, m = problem.num_components, problem.num_partitions

    def dense_eta():
        q = build_q_dense(problem)
        q_hat = embed_timing(q, problem, penalty=penalty)
        u = np.zeros(m * n)
        u[part + np.arange(n) * m] = 1.0
        return (u @ q_hat).reshape(n, m)

    eta_dense = benchmark.pedantic(dense_eta, rounds=1)
    eta_sparse = state.eta(part)
    # Same vector (the dense product IS the definition of eta).
    assert np.allclose(eta_dense, eta_sparse)
