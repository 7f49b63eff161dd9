"""Tests for repro.core.constraints (C1/C2 checking, TimingIndex)."""

import numpy as np
import pytest

from repro.core.assignment import Assignment
from repro.core.constraints import (
    CapacityTracker,
    FeasibilityReport,
    TimingIndex,
    capacity_violations,
    check_feasibility,
    partition_loads,
)
from repro.timing.constraints import TimingConstraints


class TestPartitionLoads:
    def test_basic(self):
        loads = partition_loads([0, 1, 0], np.array([2.0, 3.0, 4.0]), 3)
        assert np.array_equal(loads, [6.0, 3.0, 0.0])

    def test_accepts_assignment_object(self):
        a = Assignment([0, 1], 2)
        loads = partition_loads(a, np.array([1.0, 1.0]), 2)
        assert np.array_equal(loads, [1.0, 1.0])

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            partition_loads([0], np.array([1.0, 2.0]), 2)


class TestCapacityViolations:
    def test_detects_overflow(self):
        out = capacity_violations([0, 0], np.array([3.0, 3.0]), np.array([5.0, 5.0]))
        assert out == [(0, 6.0, 5.0)]

    def test_exact_fit_allowed(self):
        out = capacity_violations([0, 0], np.array([2.5, 2.5]), np.array([5.0, 5.0]))
        assert out == []

    def test_multiple_violations_sorted(self):
        sizes = np.array([10.0, 10.0])
        caps = np.array([1.0, 1.0])
        out = capacity_violations([0, 1], sizes, caps)
        assert [v[0] for v in out] == [0, 1]


class TestCheckFeasibility:
    def test_feasible(self, paper_problem):
        report = check_feasibility(paper_problem, Assignment([0, 1, 3], 4))
        assert report.feasible
        assert report.summary() == "feasible"

    def test_timing_violation_reported(self, paper_problem):
        report = check_feasibility(paper_problem, Assignment([0, 3, 1], 4))
        assert not report.feasible
        assert len(report.timing_violations) == 2
        j1, j2, delay, budget = report.timing_violations[0]
        assert delay > budget

    def test_capacity_violation_reported(self, paper_problem):
        report = check_feasibility(paper_problem, Assignment([0, 0, 0], 4))
        assert not report.feasible
        assert report.capacity_violations  # unit capacities, three components
        assert "capacity" in report.summary()


class TestTimingIndex:
    @pytest.fixture
    def index(self, paper_problem):
        return TimingIndex(paper_problem.timing, paper_problem.delay_matrix)

    def test_degree(self, index):
        # a: 2 directed constraints with b; b: 4 total; c: 2 with b.
        assert index.degree(0) == 2
        assert index.degree(1) == 4
        assert index.degree(2) == 2

    def test_constrained_components(self, index):
        assert index.constrained_components() == [0, 1, 2]

    def test_move_feasibility(self, index):
        part = np.array([0, 1, 3])
        # Moving a to 3: distance to b (at 1) becomes 1 -> ok.
        assert index.move_is_feasible(part, 0, 3)
        # Moving a to 2: distance to b becomes 2 -> violation.
        assert not index.move_is_feasible(part, 0, 2)

    def test_move_ignore_component(self, index):
        part = np.array([0, 1, 3])
        # Same violating move is fine if b is exempted (swap logic).
        assert index.move_is_feasible(part, 0, 2, ignore=1)

    def test_swap_feasibility_mutual_pair(self, index):
        part = np.array([0, 1, 3])
        # Swapping a and c: a -> 3 (distance 1 to b), c -> 0 (distance 1
        # to b).  Both budgets hold.
        assert index.swap_is_feasible(part, 0, 2)
        # Swapping a and b: b lands on 0, distance 2 from c -> violated.
        assert not index.swap_is_feasible(part, 0, 1)

    def test_swap_infeasible(self, index):
        # a-b adjacent, c far away; swapping b and c breaks a-b.
        part = np.array([0, 1, 2])  # d(0,1)=1 ok; b-c: d(1,2)=2 violated already
        # Move b to where c is and vice versa: a-b becomes d(0,2)=1 ok,
        # b-c stays d(2,1)=2 -> infeasible.
        assert not index.swap_is_feasible(part, 1, 2)

    def test_empty_constraints(self):
        index = TimingIndex(TimingConstraints(3), np.zeros((2, 2)))
        assert index.constrained_components() == []
        assert index.move_is_feasible(np.array([0, 0, 0]), 0, 1)


class TestCapacityTracker:
    def test_tracks_moves(self):
        sizes = np.array([2.0, 3.0])
        caps = np.array([5.0, 5.0])
        tracker = CapacityTracker.for_assignment(Assignment([0, 0], 2), sizes, caps)
        assert np.array_equal(tracker.loads, [5.0, 0.0])
        tracker.apply_move(0, 0, 1)
        assert np.array_equal(tracker.loads, [3.0, 2.0])
