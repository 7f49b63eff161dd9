"""Tests for repro.eval.workloads (the synthetic Table I twins)."""

import numpy as np
import pytest

from repro.core.constraints import check_feasibility
from repro.eval.paper_data import PAPER_TABLE1, NUM_PARTITIONS
from repro.eval.workloads import (
    CAPACITY_SLACK,
    build_workload,
    cluster_reference,
    workload_names,
)


class TestTable1Fidelity:
    """Full-scale workloads must reproduce Table I exactly."""

    @pytest.mark.parametrize("name", workload_names())
    def test_exact_published_statistics(self, name):
        workload = build_workload(name)
        paper = PAPER_TABLE1[name]
        assert workload.circuit.num_components == paper.num_components
        assert workload.circuit.num_wires == paper.num_wires
        assert workload.timing.num_pairs == paper.num_timing_constraints

    def test_sixteen_partitions_4x4_manhattan(self):
        workload = build_workload("cktb")
        topo = workload.topology
        assert topo.num_partitions == NUM_PARTITIONS
        assert topo.cost_matrix.max() == 6.0  # 4x4 grid diameter
        assert np.array_equal(topo.cost_matrix, topo.delay_matrix)

    def test_sizes_span_two_orders_of_magnitude(self):
        workload = build_workload("cktb")
        sizes = workload.circuit.sizes()
        assert sizes.max() / sizes.min() > 20


class TestFeasibilityWitness:
    def test_reference_is_fully_feasible(self):
        workload = build_workload("cktb")
        report = check_feasibility(workload.problem, workload.reference)
        assert report.feasible

    def test_reference_feasible_on_all_scaled_workloads(self):
        for name in workload_names():
            workload = build_workload(name, scale=0.15)
            report = check_feasibility(workload.problem, workload.reference)
            assert report.feasible, name


class TestScaling:
    def test_scale_shrinks_proportionally(self):
        workload = build_workload("ckta", scale=0.25)
        paper = PAPER_TABLE1["ckta"]
        assert workload.circuit.num_components == round(paper.num_components * 0.25)
        assert workload.circuit.num_wires == round(paper.num_wires * 0.25)
        assert workload.timing.num_pairs == round(paper.num_timing_constraints * 0.25)

    def test_rejects_bad_scale(self):
        with pytest.raises(ValueError):
            build_workload("ckta", scale=0.0)
        with pytest.raises(ValueError):
            build_workload("ckta", scale=1.5)

    def test_unknown_circuit(self):
        with pytest.raises(KeyError):
            build_workload("cktz")


class TestDeterminism:
    def test_same_seed_same_workload(self):
        a = build_workload("cktb", scale=0.2)
        b = build_workload("cktb", scale=0.2)
        assert list(a.circuit.wires()) == list(b.circuit.wires())
        assert list(a.timing.items()) == list(b.timing.items())
        assert a.reference == b.reference

    def test_custom_seed_changes_instance(self):
        a = build_workload("cktb", scale=0.2, seed=1)
        b = build_workload("cktb", scale=0.2, seed=2)
        assert list(a.circuit.wires()) != list(b.circuit.wires())


class TestClusterReference:
    def test_capacity_feasible(self):
        workload = build_workload("cktb", scale=0.3)
        ref = cluster_reference(workload.circuit, workload.topology)
        report = check_feasibility(workload.problem_no_timing, ref)
        assert not report.capacity_violations

    def test_clusters_land_close_together(self):
        workload = build_workload("cktb", scale=0.3)
        ref = cluster_reference(workload.circuit, workload.topology)
        clusters = np.array(
            [c.attrs["cluster"] for c in workload.circuit.components]
        )
        delay = workload.topology.delay_matrix
        spreads = []
        for c in np.unique(clusters):
            members = np.flatnonzero(clusters == c)
            positions = ref.part[members]
            spreads.append(delay[positions[:, None], positions[None, :]].max())
        # Cluster-contiguous placement: most clusters fit in a small ball.
        assert np.median(spreads) <= 3.0


class TestCapacityGrowth:
    """Capacity grows only where no reference packing exists."""

    @pytest.mark.parametrize("seed", [6, 263])
    def test_seeds_without_a_balanced_packing_build(self, seed):
        # At these seeds cktc draws more blocks above half the balanced
        # capacity than there are slots.
        for name in workload_names():
            workload = build_workload(name, scale=0.1, seed=seed)
            assert check_feasibility(workload.problem, workload.reference).feasible
        cktc = build_workload("cktc", scale=0.1, seed=seed)
        balanced = cktc.circuit.total_size() * (1 + CAPACITY_SLACK) / NUM_PARTITIONS
        assert cktc.topology.capacities()[0] > balanced

    @pytest.mark.parametrize(
        "scale,expected",
        [
            (1.0, {"ckta": 526.201165993531, "cktb": 493.36156785571706,
                   "cktc": 744.5541352289399, "cktd": 806.7817488806896,
                   "ckte": 508.8705381774158, "cktf": 927.8725648059408,
                   "cktg": 679.4628460401909}),
            (0.1, {"ckta": 100.7813897624549, "cktb": 104.93910213607013,
                   "cktc": 92.79994313681347, "cktd": 101.86297875820027,
                   "ckte": 85.78963420334199, "cktf": 102.03749860106268,
                   "cktg": 101.44875784183515}),
        ],
    )
    def test_default_seed_capacities_unchanged(self, scale, expected):
        for name, capacity in expected.items():
            topology = build_workload(name, scale=scale).topology
            assert np.all(topology.capacities() == capacity), name
