"""Quadratic Boolean Programming for performance-driven system partitioning.

A from-scratch reproduction of Shih & Kuh (UCB/ERL M93/19, 1993): exact
QBP formulation of timing- and capacity-constrained multiway
partitioning, the generalized Burkard heuristic, the GFM/GKL baselines,
and the full evaluation harness.  See README.md for a tour.

Most users need only the re-exports below::

    from repro import (
        PartitioningProblem, solve_qbp, bootstrap_initial_solution,
        generate_clustered_circuit, grid_topology,
    )
"""

from repro._version import __version__
from repro.core.assignment import Assignment
from repro.core.constraints import check_feasibility
from repro.core.objective import ObjectiveEvaluator
from repro.core.problem import PartitioningProblem
from repro.netlist.circuit import Circuit
from repro.netlist.generate import ClusteredCircuitSpec, generate_clustered_circuit
from repro.runtime.budget import Budget, BudgetExceededError
from repro.runtime.checkpoint import QbpCheckpointer
from repro.solvers.burkard import bootstrap_initial_solution, solve_qbp
from repro.timing.constraints import TimingConstraints
from repro.topology.grid import grid_topology

__all__ = [
    "Assignment",
    "Budget",
    "BudgetExceededError",
    "Circuit",
    "ClusteredCircuitSpec",
    "ObjectiveEvaluator",
    "PartitioningProblem",
    "QbpCheckpointer",
    "TimingConstraints",
    "__version__",
    "bootstrap_initial_solution",
    "check_feasibility",
    "generate_clustered_circuit",
    "grid_topology",
    "solve_qbp",
]
