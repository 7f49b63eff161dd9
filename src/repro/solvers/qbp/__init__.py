"""The generalized Burkard QBP solver, decomposed by concern.

* :mod:`~repro.solvers.qbp.formulation` — penalty resolution, omega
  bounds, the :class:`IterationState` view over the shared engine
  kernel,
* :mod:`~repro.solvers.qbp.iteration` — :func:`solve_qbp` (STEP 1-8)
  and the inner-GAP fallback ladder (trust, timing, plain rungs in a
  plain loop),
* :mod:`~repro.solvers.qbp.multistart` — restart fan-out and
  best-restart selection,
* :mod:`~repro.solvers.qbp.bootstrap` — the paper's zero-``B`` initial
  feasible-solution recipe.

:mod:`repro.solvers.burkard` remains the stable import surface (and the
long-form user documentation); it re-exports everything here.
"""

from repro.solvers.qbp.bootstrap import BootstrapStallError, bootstrap_initial_solution
from repro.solvers.qbp.formulation import (
    DEFAULT_GAP_CRITERIA,
    ETA_MODES,
    IterationState,
    PAPER_PENALTY,
    is_fully_feasible,
    resolve_penalty,
    validated_initial,
)
from repro.solvers.qbp.iteration import BurkardResult, solve_qbp
from repro.solvers.qbp.multistart import MultistartError, solve_qbp_multistart

__all__ = [
    "BootstrapStallError",
    "BurkardResult",
    "DEFAULT_GAP_CRITERIA",
    "ETA_MODES",
    "IterationState",
    "MultistartError",
    "PAPER_PENALTY",
    "bootstrap_initial_solution",
    "is_fully_feasible",
    "resolve_penalty",
    "solve_qbp",
    "solve_qbp_multistart",
    "validated_initial",
]
