"""Baselines: the paper's Section 5 comparison heuristics.

Since there was no prior method for timing+capacity constrained
partitioning, the paper built two interchange-based baselines and so do
we:

* **GFM** (:mod:`repro.baselines.gfm`) - a generalization of
  Fiduccia & Mattheyses: one component moves at a time, ``M - 1`` gain
  entries per component, pass/lock/best-prefix structure, moves allowed
  only when they keep the solution violation-free,
* **GKL** (:mod:`repro.baselines.gkl`) - a generalization of
  Kernighan & Lin: pairwise swaps, ``N - 1`` gain entries per
  component, outer loops cut off at 6 "since any gain obtained beyond
  the first 6 outer loops is insignificant".

Both support arbitrary interconnection cost metrics (Manhattan,
quadratic, crossing counts - any ``B``), as the paper's generalization
requires, via the shared incremental :class:`~repro.engine.delta.DeltaCache`.
"""

from repro.baselines.annealing import annealing_partition
from repro.baselines.gfm import gfm_partition
from repro.baselines.gkl import gkl_partition
from repro.baselines.result import InterchangeResult
from repro.baselines.spectral import SpectralResult, spectral_partition

__all__ = [
    "InterchangeResult",
    "SpectralResult",
    "annealing_partition",
    "gfm_partition",
    "gkl_partition",
    "spectral_partition",
]
