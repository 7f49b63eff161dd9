#!/usr/bin/env python
"""Microbenchmark: DeltaCache incremental updates vs naive full recompute.

Replays the same fixed-seed random move sequence on the eval-small
workload (``ckta`` at scale 0.1) twice:

* **incremental** — one :class:`repro.engine.delta.DeltaCache` kept
  up to date through :meth:`apply_move` (the engine's O(neighbourhood)
  refresh),
* **naive** — the full ``(N, M)`` delta matrix rebuilt from scratch
  after every move (what a solver without the kernel would pay).

Both paths produce bit-identical delta matrices (asserted), so the only
difference is time.  Emits a ``metrics-snapshot-v1`` JSON compatible
with ``scripts/check_bench.py``:

* counters ``bench.delta_moves`` / ``bench.delta_cells`` are
  deterministic (zero drift tolerance),
* gauges ``bench.delta_incremental_seconds`` /
  ``bench.delta_naive_seconds`` are wall-clock (wide tolerance).

Usage::

    PYTHONPATH=src python benchmarks/bench_delta_cache.py --out current.json
    python scripts/check_bench.py current.json \\
        --baseline benchmarks/baselines/delta-cache.json
"""

from __future__ import annotations

import argparse
import json
import time
from pathlib import Path

import numpy as np

from repro.engine.delta import DeltaCache
from repro.eval.harness import shared_initial_solution
from repro.eval.workloads import build_workload
from repro.obs.metrics import METRICS_SNAPSHOT_FORMAT

SCALE = 0.1
CIRCUIT = "ckta"
MOVES = 200
SEED = 17
INITIAL_SEED = 1


def move_sequence(problem, initial, rng):
    """A deterministic, capacity-respecting random move sequence."""
    cache = DeltaCache(problem, initial)
    moves = []
    while len(moves) < MOVES:
        j = int(rng.integers(0, problem.num_components))
        i = int(rng.integers(0, problem.num_partitions))
        if i == int(cache.part[j]):
            continue
        if cache.loads[i] + cache.sizes[j] > cache.capacities[i] + 1e-9:
            continue
        cache.apply_move(j, i)
        moves.append((j, i))
    return moves


def run_incremental(problem, initial, moves):
    cache = DeltaCache(problem, initial)
    t0 = time.perf_counter()
    for j, i in moves:
        cache.apply_move(j, i)
    elapsed = time.perf_counter() - t0
    return elapsed, cache.delta


def run_naive(problem, initial, moves):
    cache = DeltaCache(problem, initial)
    t0 = time.perf_counter()
    for j, i in moves:
        old_i = int(cache.part[j])
        cache.part[j] = i
        cache.capacity.apply_move(j, old_i, i)
        cache.delta = cache._full_delta()
        cache.timing_block = cache._full_timing_block()
    elapsed = time.perf_counter() - t0
    return elapsed, cache.delta


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--out", type=Path, default=None, help="snapshot path")
    args = parser.parse_args()

    workload = build_workload(CIRCUIT, scale=SCALE)
    problem = workload.problem
    initial = shared_initial_solution(workload, seed=INITIAL_SEED)
    moves = move_sequence(problem, initial, np.random.default_rng(SEED))

    incremental_s, incremental_delta = run_incremental(problem, initial, moves)
    naive_s, naive_delta = run_naive(problem, initial, moves)
    if not np.allclose(incremental_delta, naive_delta, atol=1e-9):
        raise AssertionError("incremental and naive deltas diverged")

    snapshot = {
        "format": METRICS_SNAPSHOT_FORMAT,
        "counters": {
            "bench.delta_moves": float(len(moves)),
            "bench.delta_cells": float(
                problem.num_components * problem.num_partitions
            ),
        },
        "gauges": {
            "bench.delta_incremental_seconds": incremental_s,
            "bench.delta_naive_seconds": naive_s,
        },
        "histograms": {},
    }
    text = json.dumps(snapshot, indent=2, sort_keys=True) + "\n"
    if args.out is not None:
        args.out.write_text(text)
        print(f"wrote {args.out}")
    else:
        print(text, end="")
    speedup = naive_s / incremental_s if incremental_s else float("inf")
    print(
        f"# {len(moves)} moves on {CIRCUIT}@{SCALE}: "
        f"incremental {incremental_s:.4f}s, naive {naive_s:.4f}s "
        f"({speedup:.1f}x)"
    )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
