"""The shared solver-engine layer.

Everything the solvers and baselines have in common lives here, between
``repro.core`` (problem statement, objective, constraints) and the
algorithm packages that build on it:

* :class:`~repro.engine.delta.DeltaCache` — the vectorized incremental
  move/swap-delta kernel with timing/capacity feasibility folded in;
  the single implementation behind the Burkard iteration's ``eta``
  rows, the GFM/GKL gain matrices, and the annealing proposals,
* :class:`~repro.engine.context.SolverContext` — the per-solve bundle
  of problem, evaluator, telemetry, budget, checkpointer and RNG that
  entry points build once instead of threading five parameters,
* :class:`~repro.engine.outcome.SolveOutcome` — the unified result type
  every solver's result subclasses,
* :mod:`~repro.engine.registry` — the solver-registry vocabulary
  (:class:`SolverSpec` capability records, :class:`SolverConfig`
  canonical-digest config dataclasses, :class:`SolverRegistry`).  Only
  the *infrastructure* lives here; the built-in registrations live one
  layer up in :mod:`repro.pipeline`, which may import the solvers.

Layering (machine-enforced by ``scripts/check_imports.py`` and
``tests/test_layering.py``): this package imports only ``repro.core``,
``repro.obs``, ``repro.runtime``, ``repro.utils`` — never ``solvers``,
``baselines`` or ``eval``.
"""

from repro.engine.context import SolverContext
from repro.engine.delta import ETA_MODES, DeltaCache, DeltaStats
from repro.engine.outcome import SolveOutcome
from repro.engine.registry import (
    RunContext,
    SolverConfig,
    SolverRegistry,
    SolverSpec,
    UnknownSolverError,
    config_field,
)

__all__ = [
    "DeltaCache",
    "DeltaStats",
    "ETA_MODES",
    "RunContext",
    "SolveOutcome",
    "SolverConfig",
    "SolverContext",
    "SolverRegistry",
    "SolverSpec",
    "UnknownSolverError",
    "config_field",
]
