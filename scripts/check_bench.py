#!/usr/bin/env python
"""Gate a run's metrics snapshot against a committed benchmark baseline.

Compares a ``metrics-snapshot-v1`` dump (written by ``--metrics-out``)
with a baseline JSON under ``benchmarks/baselines/`` using
:func:`repro.obs.metrics.diff_snapshots`, and fails on drift:

* **counters** (e.g. ``solver.iterations``) are deterministic for a
  fixed seed, so the default tolerance is **zero** - any delta means the
  algorithm's work content changed, which must be a conscious decision
  (re-baseline with ``--update``);
* **wall-time gauges** (names ending in ``_seconds``) vary with the
  machine, so they get a wide *relative* tolerance (default 10x either
  way) that still catches order-of-magnitude regressions such as an
  accidentally quadratic inner loop.

Counters that exist only in the current run (new instrumentation) are
reported but do not fail the gate; counters present in the baseline but
missing from the run do fail (something stopped being measured), except
those whose baseline is 0: snapshots hold no zero counters, so a
baseline pins a count at 0 by listing it with that value.

Instead of a static baseline, ``--ledger`` gates against the rolling
window of a ``run-ledger-v1`` history (see ``repro.obs.ledger``):
counters come from the latest recorded run, timing gauges from the
window median, so the gate tracks the fleet's recent reality instead of
one frozen machine.

Every violation prints one line naming the offending metric and both
values.

Usage::

    python -m repro.eval.run --table 2 --scale 0.1 --circuits ckta cktb \\
        --iterations 20 --seed 0 --metrics-out current.json
    python scripts/check_bench.py current.json \\
        --baseline benchmarks/baselines/eval-small.json
    python scripts/check_bench.py current.json \\
        --ledger benchmarks/ledger.jsonl --window 10

Exit codes: 0 within tolerance, 1 drift detected, 2 unreadable input.
Needs ``src`` on ``PYTHONPATH`` (or the package installed).
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import Any, Dict, List, Optional

from repro.obs.metrics import METRICS_SNAPSHOT_FORMAT, diff_snapshots

DEFAULT_COUNTER_TOLERANCE = 0.0
DEFAULT_TIME_TOLERANCE = 10.0
TIME_GAUGE_SUFFIX = "_seconds"


def load_snapshot(path) -> Dict[str, Any]:
    """Read and sanity-check a metrics-snapshot JSON."""
    payload = json.loads(Path(path).read_text())
    if payload.get("format") != METRICS_SNAPSHOT_FORMAT:
        raise ValueError(
            f"{path}: expected format {METRICS_SNAPSHOT_FORMAT!r}, "
            f"got {payload.get('format')!r}"
        )
    return payload


def check_bench(
    current: Dict[str, Any],
    baseline: Dict[str, Any],
    *,
    counter_tolerance: float = DEFAULT_COUNTER_TOLERANCE,
    time_tolerance: float = DEFAULT_TIME_TOLERANCE,
) -> List[str]:
    """Compare two snapshots; returns a list of problems (empty = pass).

    ``counter_tolerance`` is the allowed *relative* counter drift
    (``|delta| / max(baseline, 1)``).  ``time_tolerance`` is the allowed
    ratio for ``*_seconds`` gauges in either direction (``10.0`` accepts
    anything between a tenth and ten times the baseline).  Non-time
    gauges and histograms are informational only: they record
    last-write state, not work content.
    """
    problems: List[str] = []
    drift = diff_snapshots(baseline, current)

    base_counters = baseline.get("counters", {})
    for name, delta in sorted(drift.get("counters", {}).items()):
        if name not in base_counters:
            continue  # new instrumentation: informational, not a failure
        reference = max(abs(float(base_counters[name])), 1.0)
        relative = abs(float(delta)) / reference
        if relative > counter_tolerance:
            problems.append(
                f"counter {name}: {base_counters[name]:g} -> "
                f"{current.get('counters', {}).get(name, 0):g} "
                f"(drift {relative:.1%} > {counter_tolerance:.1%})"
            )
    for name in sorted(base_counters):
        if float(base_counters[name]) != 0.0 and name not in current.get("counters", {}):
            problems.append(
                f"counter {name}: baseline {base_counters[name]:g}, "
                "missing from run"
            )

    current_gauges = current.get("gauges", {})
    for name, reference in sorted(baseline.get("gauges", {}).items()):
        if not name.endswith(TIME_GAUGE_SUFFIX):
            continue
        if name not in current_gauges:
            problems.append(
                f"gauge {name}: baseline {float(reference):g}s, "
                "missing from run"
            )
            continue
        value = float(current_gauges[name])
        reference = float(reference)
        if reference <= 0.0 or value <= 0.0:
            continue  # degenerate timings carry no signal
        ratio = max(value / reference, reference / value)
        if ratio > time_tolerance:
            problems.append(
                f"gauge {name}: {reference:g}s -> {value:g}s "
                f"({ratio:.1f}x outside {time_tolerance:g}x tolerance)"
            )
    return problems


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        description="Diff a metrics snapshot against a committed baseline."
    )
    parser.add_argument("current", help="metrics JSON written by --metrics-out")
    parser.add_argument(
        "--baseline", default=None, metavar="PATH",
        help="committed baseline snapshot (benchmarks/baselines/*.json)",
    )
    parser.add_argument(
        "--ledger", default=None, metavar="PATH",
        help="gate against the rolling window of a run-ledger-v1 history "
        "instead of a static baseline (see repro.obs.ledger)",
    )
    parser.add_argument(
        "--window", type=int, default=None, metavar="N",
        help="ledger window size (default: repro.obs.ledger.DEFAULT_WINDOW)",
    )
    parser.add_argument(
        "--counter-tolerance", type=float, default=DEFAULT_COUNTER_TOLERANCE,
        help="allowed relative counter drift (default 0: exact, counters "
        "are deterministic for a fixed seed)",
    )
    parser.add_argument(
        "--time-tolerance", type=float, default=DEFAULT_TIME_TOLERANCE,
        help="allowed ratio for *_seconds gauges in either direction "
        f"(default {DEFAULT_TIME_TOLERANCE:g}x: machines differ, "
        "order-of-magnitude regressions do not)",
    )
    parser.add_argument(
        "--update", action="store_true",
        help="rewrite the baseline from the current snapshot and exit 0",
    )
    args = parser.parse_args(argv)
    if (args.baseline is None) == (args.ledger is None):
        parser.error("exactly one of --baseline or --ledger is required")
    if args.update and args.baseline is None:
        parser.error("--update needs --baseline (ledgers grow via --ledger runs)")

    try:
        current = load_snapshot(args.current)
    except (OSError, ValueError, json.JSONDecodeError) as exc:
        print(f"check_bench: unreadable current snapshot: {exc}", file=sys.stderr)
        return 2

    if args.update:
        Path(args.baseline).parent.mkdir(parents=True, exist_ok=True)
        Path(args.baseline).write_text(
            json.dumps(current, indent=2, sort_keys=True) + "\n"
        )
        print(f"check_bench: baseline {args.baseline} updated")
        return 0

    if args.ledger is not None:
        from repro.obs.ledger import DEFAULT_WINDOW, read_ledger, window_baseline

        if not Path(args.ledger).exists():
            print(
                f"check_bench: ledger {args.ledger} does not exist; run a "
                "--ledger workload first or gate with --baseline",
                file=sys.stderr,
            )
            return 2
        records = read_ledger(args.ledger)
        baseline = window_baseline(
            records, window=args.window if args.window is not None else DEFAULT_WINDOW
        )
        if baseline is None:
            print(
                f"check_bench: ledger {args.ledger} holds no run-ledger-v1 "
                "records; run a --ledger workload first or gate with --baseline",
                file=sys.stderr,
            )
            return 2
        baseline_label = f"{args.ledger} (window of {len(records)} record(s))"
    else:
        try:
            baseline = load_snapshot(args.baseline)
        except (OSError, ValueError, json.JSONDecodeError) as exc:
            print(f"check_bench: unreadable baseline: {exc}", file=sys.stderr)
            return 2
        baseline_label = args.baseline

    problems = check_bench(
        current,
        baseline,
        counter_tolerance=args.counter_tolerance,
        time_tolerance=args.time_tolerance,
    )
    if problems:
        for problem in problems:
            print(f"check_bench: {problem}", file=sys.stderr)
        print(
            f"check_bench: {len(problems)} problem(s); if intentional, "
            f"re-baseline with --update",
            file=sys.stderr,
        )
        return 1
    print(f"check_bench: {args.current} within tolerance of {baseline_label}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
