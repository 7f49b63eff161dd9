"""Tests for repro.engine.delta (DeltaCache stateless and stateful modes)."""

import numpy as np
import pytest

from repro.core.assignment import Assignment
from repro.core.problem import PartitioningProblem
from repro.engine.delta import DeltaCache, ETA_MODES
from repro.netlist.circuit import Circuit
from repro.timing.constraints import TimingConstraints
from repro.topology.grid import grid_topology


def small_problem(with_timing=False):
    circuit = Circuit("delta")
    for j in range(6):
        circuit.add_component(f"u{j}", size=1.0)
    circuit.add_wire(0, 1, 3.0)
    circuit.add_wire(1, 2, 2.0)
    circuit.add_wire(3, 4, 1.0)
    circuit.add_wire(4, 5, 4.0)
    timing = None
    if with_timing:
        timing = TimingConstraints(6)
        timing.add(0, 1, 1.0)
        timing.add(4, 5, 0.0)
    topo = grid_topology(1, 3, capacity=6.0)
    return PartitioningProblem(circuit, topo, timing=timing)


class TestStatelessMode:
    def test_no_assignment_exposes_row_products_only(self):
        cache = DeltaCache(small_problem())
        assert cache.part is None
        assert cache.delta is None
        part = np.array([0, 0, 1, 1, 2, 2])
        rows_in, rows_out = cache.marginal_rows(part)
        assert rows_in.shape == (6, 3)
        assert rows_out.shape == (6, 3)

    def test_reset_attaches_state(self):
        cache = DeltaCache(small_problem())
        cache.reset(Assignment([0, 0, 1, 1, 2, 2], 3))
        assert cache.delta is not None
        cache.audit()

    def test_eta_modes_all_evaluate(self):
        cache = DeltaCache(small_problem(with_timing=True))
        part = np.array([0, 1, 2, 0, 1, 2])
        shapes = set()
        for mode in ETA_MODES:
            eta = cache.eta(part, mode=mode, penalty=50.0)
            shapes.add(eta.shape)
        assert shapes == {(6, 3)}

    def test_timing_penalty_enters_eta(self):
        """A violated constraint's candidate entry carries the penalty."""
        problem = small_problem(with_timing=True)
        cache = DeltaCache(problem)
        part = np.zeros(6, dtype=int)
        lo = cache.eta(part, mode="symmetric", penalty=10.0)
        hi = cache.eta(part, mode="symmetric", penalty=1000.0)
        assert (hi - lo).max() > 0  # penalty scale visibly enters


class TestStatefulState:
    def test_shares_evaluator_arrays(self):
        problem = small_problem(with_timing=True)
        cache = DeltaCache(problem, Assignment([0, 0, 1, 1, 2, 2], 3))
        assert cache.t_src is cache.evaluator.t_src
        assert cache._out_adj is cache.evaluator._out_adj

    def test_loads_follow_capacity_tracker(self):
        cache = DeltaCache(small_problem(), Assignment([0, 0, 1, 1, 2, 2], 3))
        assert cache.loads.tolist() == [2.0, 2.0, 2.0]
        cache.apply_move(0, 2)
        assert cache.loads.tolist() == [1.0, 2.0, 3.0]
        cache.audit()

    def test_best_move_is_deterministic(self):
        cache = DeltaCache(small_problem(), Assignment([0, 1, 2, 0, 1, 2], 3))
        first = cache.best_move()
        second = cache.best_move()
        assert first == second


class TestValidation:
    def test_bad_assignment_shape_rejected(self):
        with pytest.raises(ValueError):
            DeltaCache(small_problem(), Assignment([0, 1], 3))
