"""Synthetic twins of the paper's seven industrial circuits.

The original ckta-cktg are proprietary; their published properties are
reproduced exactly (Table I: component / wire / timing-constraint
counts) and their described structure qualitatively (functional-block
netlists with natural clusters, sizes spanning two orders of magnitude,
16 partitions on a 4x4 grid with Manhattan ``B = D``, "very tight"
capacity and timing constraints).  See DESIGN.md for the substitution
rationale.

Each workload carries a hidden *reference assignment* - a cluster-aware
placement from which the timing budgets are synthesised - which proves
``F_R`` is non-empty (the hypothesis of the embedding theorems) and
serves as the fallback initial solution if the paper's zero-``B``
bootstrap ever fails to find feasibility on a given seed.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional, Tuple

import numpy as np

from repro.core.assignment import Assignment
from repro.core.constraints import check_feasibility
from repro.core.problem import PartitioningProblem
from repro.eval.paper_data import CIRCUIT_NAMES, NUM_PARTITIONS, PAPER_TABLE1
from repro.netlist.circuit import Circuit
from repro.netlist.generate import ClusteredCircuitSpec, generate_clustered_circuit
from repro.timing.constraints import TimingConstraints, synthesize_feasible_constraints
from repro.topology.grid import grid_topology
from repro.topology.partition import Topology
from repro.utils.rng import derive_seed

CAPACITY_SLACK = 0.10
"""Per-partition capacity headroom over perfectly balanced load ("very tight")."""

CAPACITY_GROWTH = 1.01
"""Factor the slot capacity grows by while :func:`cluster_reference` fails.

Small scaled instances can draw more blocks above half a slot than there
are slots, so no packing exists at the balanced capacity.  Growing in 1%
steps keeps such an instance as tight as its blocks allow; an instance
that places at the first capacity keeps that capacity.
"""

TIGHTNESS = 0.5
"""Fraction of timing budgets exactly tight at the reference assignment.

Calibrated with MAX_MARGIN so the problems are "very tight" (half the
budgets binding at the reference, the rest within 1-2 grid pitches of
it) while the paper's zero-``B`` bootstrap still reaches feasibility.
"""

MAX_MARGIN = 2
"""Largest extra slack (grid pitches) on non-tight budgets."""

MIN_BUDGET = 2.0
"""Budget floor in grid pitches.

Calibrated empirically: at floor 1 the constraint graph welds each
cluster into a radius-1 blob and the feasible region collapses to
near-copies of the reference - the paper's zero-``B`` bootstrap (which
finds feasibility "in a few iterations" on the real circuits) then
cannot succeed from scratch.  At floor 2 the problems stay tight (a
TIGHTNESS fraction of budgets is exactly binding, against a grid
diameter of 6) while the bootstrap reliably reaches feasibility,
matching the paper's observed behaviour.
"""

BASE_SEED = 19930308
"""Default seed root (the paper's original publication date)."""


@dataclass(frozen=True)
class Workload:
    """One reproduced circuit plus its two problem variants."""

    name: str
    circuit: Circuit
    topology: Topology
    timing: TimingConstraints
    reference: Assignment
    problem: PartitioningProblem
    problem_no_timing: PartitioningProblem

    @property
    def num_components(self) -> int:
        return self.circuit.num_components

    @property
    def num_timing_pairs(self) -> int:
        return self.timing.num_pairs


def workload_names() -> Tuple[str, ...]:
    """The seven circuit names, in Table I order."""
    return CIRCUIT_NAMES


def build_workload(
    name: str,
    *,
    scale: float = 1.0,
    capacity_slack: float = CAPACITY_SLACK,
    tightness: float = TIGHTNESS,
    max_margin: int = MAX_MARGIN,
    min_budget: float = MIN_BUDGET,
    seed: Optional[int] = None,
) -> Workload:
    """Build the synthetic twin of one paper circuit.

    Parameters
    ----------
    name:
        One of ``ckta`` ... ``cktg``.
    scale:
        Proportional shrink factor for quick runs: component, wire and
        constraint counts are multiplied by ``scale`` (1.0 = the exact
        Table I statistics).
    seed:
        Seed root; each circuit derives its own sub-seed, so the full
        suite is reproducible from one number.  Defaults to
        :data:`BASE_SEED`.
    """
    if name not in PAPER_TABLE1:
        raise KeyError(f"unknown circuit {name!r}; choose from {CIRCUIT_NAMES}")
    if not 0 < scale <= 1.0:
        raise ValueError(f"scale must be in (0, 1], got {scale}")
    row = PAPER_TABLE1[name]
    base = BASE_SEED if seed is None else seed

    n = max(2 * NUM_PARTITIONS, int(round(row.num_components * scale)))
    wires = max(n, int(round(row.num_wires * scale)))
    constraints = max(1, int(round(row.num_timing_constraints * scale)))
    constraints = min(constraints, n * (n - 1) // 2)

    spec = ClusteredCircuitSpec(
        name=name,
        num_components=n,
        num_wires=wires,
        num_clusters=max(NUM_PARTITIONS, n // 20),
        intra_cluster_probability=0.75,
        size_range=(1.0, 100.0),
    )
    circuit = generate_clustered_circuit(spec, derive_seed(base, f"{name}-circuit"))

    capacity = circuit.total_size() * (1.0 + capacity_slack) / NUM_PARTITIONS
    # Small scaled instances can have a single component larger than the
    # balanced share; every slot must at least fit the largest block.
    capacity = max(capacity, float(circuit.sizes().max()) * (1.0 + capacity_slack))
    while True:
        topology = grid_topology(4, 4, capacity=capacity, name=f"{name}-grid4x4")
        reference = cluster_reference(circuit, topology)
        if reference is not None:
            break
        capacity *= CAPACITY_GROWTH
    timing = synthesize_feasible_constraints(
        circuit,
        topology.delay_matrix,
        reference.part,
        count=constraints,
        tightness=tightness,
        max_margin=max_margin,
        min_budget=min_budget,
        seed=derive_seed(base, f"{name}-timing"),
    )

    problem = PartitioningProblem(circuit, topology, timing=timing, name=name)
    problem_no_timing = problem.without_timing()

    report = check_feasibility(problem, reference)
    if not report.feasible:
        raise AssertionError(
            f"workload invariant broken: reference assignment is infeasible "
            f"({report.summary()})"
        )
    return Workload(
        name=name,
        circuit=circuit,
        topology=topology,
        timing=timing,
        reference=reference,
        problem=problem,
        problem_no_timing=problem_no_timing,
    )


def all_workloads(**kwargs) -> Dict[str, Workload]:
    """Build all seven workloads (forwarding ``kwargs`` to each build)."""
    return {name: build_workload(name, **kwargs) for name in CIRCUIT_NAMES}


def cluster_reference(circuit: Circuit, topology: Topology) -> Optional[Assignment]:
    """A capacity-feasible, cluster-contiguous placement.

    Mimics what a designer's initial assignment looks like: whole
    clusters go to one grid slot, spilling into the *nearest* slots (by
    the topology's delay metric) when full.  Used as the hidden witness
    behind the synthesised timing budgets, so the budgets encode
    "critical pairs sit on nearby chips" exactly as cycle-time-derived
    budgets would.  Returns ``None`` when some component fits in no
    slot's remaining capacity.
    """
    sizes = circuit.sizes()
    clusters = np.array(
        [int(c.attrs.get("cluster", 0)) for c in circuit.components], dtype=int
    )
    num_clusters = int(clusters.max()) + 1 if clusters.size else 0
    m = topology.num_partitions
    delay = topology.delay_matrix
    capacities = topology.capacities().astype(float)
    part = np.full(circuit.num_components, -1, dtype=int)

    # Phase 1: plan a home slot per cluster (biggest clusters claim the
    # roomiest slots; the virtual ledger lets big clusters spill over).
    virtual = capacities.copy()
    home = np.zeros(num_clusters, dtype=int)
    cluster_order = sorted(
        range(num_clusters), key=lambda c: -float(sizes[clusters == c].sum())
    )
    for c in cluster_order:
        h = int(np.argmax(virtual))
        home[c] = h
        virtual[h] -= min(float(sizes[clusters == c].sum()), virtual[h])

    # Phase 2: place all components globally largest-first (robust
    # best-fit-decreasing), each preferring the slots nearest its
    # cluster's home - so clusters stay contiguous without the packing
    # fragility of strict per-cluster placement.
    residual = capacities.copy()
    for j in np.argsort(-sizes, kind="stable"):
        ring = np.argsort(delay[home[clusters[j]], :], kind="stable")
        placed = False
        for i in ring:
            i = int(i)
            if sizes[j] <= residual[i] + 1e-9:
                part[j] = i
                residual[i] -= sizes[j]
                placed = True
                break
        if not placed:
            return None
    return Assignment(part, m)
