"""The production min-conflicts repair against its reference, draw for draw.

:mod:`tests.solvers.repair_oracle` keeps the numpy form of
:func:`~repro.solvers.repair.repair_feasibility`.  Both run from the same
start with generators seeded alike, and must return the same assignment
(or both ``None``) and leave their generators in the same state, whether
the production repair builds its own ``TimingIndex`` or reuses one built
once per problem, as ``solve_qbp`` passes it.  The instances are tight
enough to reach the swap step, the stall kick and the move budget.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.constraints import TimingIndex
from repro.core.objective import ObjectiveEvaluator
from repro.core.problem import PartitioningProblem
from repro.netlist.generate import ClusteredCircuitSpec, generate_clustered_circuit
from repro.solvers.greedy import greedy_feasible_assignment
from repro.solvers.repair import repair_feasibility
from repro.timing.constraints import synthesize_feasible_constraints
from repro.topology.grid import grid_topology

from tests.solvers import repair_oracle


class KickCounter(np.random.Generator):
    """A PCG64 generator that counts ``choice`` calls: the repair's kicks."""

    def __init__(self, seed: int) -> None:
        super().__init__(np.random.PCG64(seed))
        self.kicks = 0

    def choice(self, *args, **kwargs):
        self.kicks += 1
        return super().choice(*args, **kwargs)


def tight_instance(seed: int):
    """A 3x3 grid at 15% capacity slack with 60 timing constraints."""
    spec = ClusteredCircuitSpec("r", num_components=40, num_wires=160, num_clusters=5)
    circuit = generate_clustered_circuit(spec, seed=seed)
    topo = grid_topology(3, 3, capacity=circuit.total_size() / 9 * 1.15)
    untimed = PartitioningProblem(circuit, topo)
    reference = greedy_feasible_assignment(untimed, seed=seed)
    timing = synthesize_feasible_constraints(
        circuit, topo.delay_matrix, reference.part, count=60, min_budget=1.0, seed=seed
    )
    start = greedy_feasible_assignment(untimed, seed=seed + 100)
    return PartitioningProblem(circuit, topo, timing=timing), start


@pytest.mark.parametrize("cost_aware", [False, True], ids=["plain", "evaluator"])
def test_same_result_and_generator_state(cost_aware, monkeypatch):
    swaps = []
    reference_swap_step = repair_oracle._swap_step

    def counted_swap_step(*args):
        swapped = reference_swap_step(*args)
        swaps.append(swapped)
        return swapped

    monkeypatch.setattr(repair_oracle, "_swap_step", counted_swap_step)
    outcomes = []
    kicks = 0
    for seed in range(4):
        problem, start = tight_instance(seed)
        evaluator = ObjectiveEvaluator(problem) if cost_aware else None
        index = TimingIndex(problem.timing, problem.delay_matrix)
        for max_moves in (50, 3000):
            reference_rng = KickCounter(seed)
            want = repair_oracle.repair_feasibility(
                problem, start, seed=reference_rng, evaluator=evaluator,
                max_moves=max_moves,
            )
            for prebuilt in (None, index):
                rng = np.random.default_rng(seed)
                got = repair_feasibility(
                    problem, start, seed=rng, evaluator=evaluator,
                    max_moves=max_moves, index=prebuilt,
                )
                if want is None:
                    assert got is None
                else:
                    assert got is not None
                    assert np.array_equal(got.part, want.part)
                assert rng.bit_generator.state == reference_rng.bit_generator.state
            outcomes.append(want is not None)
            kicks += reference_rng.kicks
    # The instances reach every path: repaired and exhausted budgets,
    # swap steps that swap and that do not, and stall kicks.
    assert any(outcomes) and not all(outcomes)
    assert any(swaps) and not all(swaps)
    assert kicks > 0
