"""Property-based tests: objective evaluation and the QBP form agree.

The central mathematical identity of the paper - the objective equals
``yT Q y`` under the flattening - is checked on randomly generated
problems, along with the exactness of incremental deltas and the cost
floor that ``solve_qbp``'s early exit relies on.
"""

import numpy as np
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from repro.core.assignment import Assignment
from repro.core.objective import ObjectiveEvaluator
from repro.core.problem import PartitioningProblem
from repro.core.qmatrix import build_q_dense, quadratic_form
from repro.netlist.circuit import Circuit
from repro.solvers.qbp.formulation import resolve_penalty
from repro.topology.grid import grid_topology

from tests.properties.test_property_delta import problems as timed_problems


@st.composite
def problems(draw):
    """Random small partitioning problems (possibly with linear costs)."""
    n = draw(st.integers(2, 8))
    m = draw(st.sampled_from([2, 3, 4]))
    rng = np.random.default_rng(draw(st.integers(0, 2**31)))
    circuit = Circuit("prop")
    for j in range(n):
        circuit.add_component(f"u{j}", size=float(rng.uniform(0.5, 3.0)))
    for j1 in range(n):
        for j2 in range(n):
            if j1 != j2 and rng.random() < 0.4:
                circuit.add_wire(j1, j2, float(rng.integers(1, 6)))
    topo = grid_topology(1, m, capacity=circuit.total_size())
    linear = rng.uniform(0, 5, (m, n)) if draw(st.booleans()) else None
    alpha = draw(st.sampled_from([0.5, 1.0, 2.0]))
    beta = draw(st.sampled_from([0.5, 1.0, 3.0]))
    return PartitioningProblem(circuit, topo, linear_cost=linear, alpha=alpha, beta=beta)


@settings(max_examples=40, deadline=None)
@given(problems(), st.integers(0, 2**31))
def test_objective_equals_quadratic_form(problem, seed):
    """Section 3.1: the objective is exactly yT Q y."""
    rng = np.random.default_rng(seed)
    evaluator = ObjectiveEvaluator(problem)
    q = build_q_dense(problem)
    for _ in range(3):
        a = Assignment.uniform_random(
            problem.num_components, problem.num_partitions, rng
        )
        assert abs(quadratic_form(q, a.to_y_vector()) - evaluator.cost(a)) < 1e-8


@settings(max_examples=40, deadline=None)
@given(problems(), st.integers(0, 2**31), st.data())
def test_move_delta_exact(problem, seed, data):
    rng = np.random.default_rng(seed)
    evaluator = ObjectiveEvaluator(problem)
    a = Assignment.uniform_random(problem.num_components, problem.num_partitions, rng)
    j = data.draw(st.integers(0, problem.num_components - 1))
    i = data.draw(st.integers(0, problem.num_partitions - 1))
    delta = evaluator.move_delta(a, j, i)
    moved = a.copy().move(j, i)
    assert abs((evaluator.cost(moved) - evaluator.cost(a)) - delta) < 1e-8


@settings(max_examples=40, deadline=None)
@given(problems(), st.integers(0, 2**31), st.data())
def test_swap_delta_exact(problem, seed, data):
    rng = np.random.default_rng(seed)
    evaluator = ObjectiveEvaluator(problem)
    a = Assignment.uniform_random(problem.num_components, problem.num_partitions, rng)
    n = problem.num_components
    j1 = data.draw(st.integers(0, n - 1))
    j2 = data.draw(st.integers(0, n - 1))
    delta = evaluator.swap_delta(a, j1, j2)
    swapped = a.copy().swap(j1, j2)
    assert abs((evaluator.cost(swapped) - evaluator.cost(a)) - delta) < 1e-8


@settings(max_examples=30, deadline=None)
@given(problems(), st.integers(0, 2**31))
def test_normalization_preserves_costs(problem, seed):
    """Section 3: PP(alpha, beta) == PP(1, 1) after scaling P and A."""
    rng = np.random.default_rng(seed)
    normalized = problem.normalized()
    ev_orig = ObjectiveEvaluator(problem)
    ev_norm = ObjectiveEvaluator(normalized)
    for _ in range(3):
        a = Assignment.uniform_random(
            problem.num_components, problem.num_partitions, rng
        )
        assert abs(ev_orig.cost(a) - ev_norm.cost(a)) < 1e-8


@settings(max_examples=40, deadline=None)
@given(timed_problems(), st.integers(0, 2**31))
def test_cost_nonnegative(problem, seed):
    """The cost floor, 0.0 on a validated problem, bounds the cost and the
    penalized cost of every assignment."""
    rng = np.random.default_rng(seed)
    evaluator = ObjectiveEvaluator(problem)
    floor = evaluator.cost_floor()
    assert floor == 0.0
    penalty = resolve_penalty(problem, None)
    for _ in range(5):
        a = Assignment.uniform_random(problem.num_components, problem.num_partitions, rng)
        assert evaluator.cost(a) >= floor
        assert evaluator.penalized_cost(a, penalty) >= floor


@settings(max_examples=40, deadline=None)
@given(
    timed_problems(),
    st.sampled_from(["alpha", "beta", "B", "wires", "P"]),
    st.data(),
)
def test_floor_is_minus_inf_when_a_term_can_go_negative(problem, term, data):
    # PartitioningProblem rejects negative terms, so one sign is flipped
    # on the evaluator's own copy of that term.
    evaluator = ObjectiveEvaluator(problem)
    m, n = problem.num_partitions, problem.num_components
    if term in ("alpha", "P"):
        assume(evaluator.P is not None)
    if term == "wires":
        assume(evaluator.wire_w.size > 0)
    if term == "alpha":
        evaluator.alpha = -evaluator.alpha
    elif term == "beta":
        evaluator.beta = -evaluator.beta
    elif term == "B":
        evaluator.B = evaluator.B.copy()
        evaluator.B[data.draw(st.integers(0, m - 1)), data.draw(st.integers(0, m - 1))] = -1.0
    elif term == "wires":
        evaluator.wire_w = evaluator.wire_w.copy()
        evaluator.wire_w[data.draw(st.integers(0, evaluator.wire_w.size - 1))] = -1.0
    else:
        evaluator.P = evaluator.P.copy()
        evaluator.P[data.draw(st.integers(0, m - 1)), data.draw(st.integers(0, n - 1))] = -1.0
    assert evaluator.cost_floor() == -np.inf
