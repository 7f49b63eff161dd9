"""Command-line entry point: regenerate the paper's tables.

Examples
--------
Reproduce Table I (circuit descriptions)::

    python -m repro.eval.run --table 1

Reproduce Table II on quarter-scale workloads (quick)::

    python -m repro.eval.run --table 2 --scale 0.25

Full reproduction of everything, JSON results included::

    python -m repro.eval.run --table all --json results.json

Quick run with a full telemetry trace (inspect with traceview)::

    python -m repro.eval.run --table 2 --scale 0.1 --trace run.jsonl
    python -m repro.tools.traceview run.jsonl
"""

from __future__ import annotations

import argparse
import contextlib
import json
import sys
from typing import List

from repro.eval.harness import (
    ExperimentRow,
    run_table,
    shared_initial_solution,
    summarize_rows,
)
from repro.pipeline import UnknownSolverError, get_solver, solver_names
from repro.eval.paper_data import PAPER_TABLE2, PAPER_TABLE3, QBP_ITERATIONS
from repro.eval.tables import render_table1, render_table23
from repro.eval.workloads import all_workloads, build_workload, workload_names
from repro.netlist.stats import circuit_stats
from repro.obs.telemetry import add_telemetry_arguments, session_from_args
from repro.parallel.retry import RetryPolicy
from repro.runtime.budget import STOP_COMPLETED, Budget
from repro.runtime.faults import inject_faults, plan_from_env
from repro.runtime.signals import drain_on_signals


def main(argv: List[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.eval.run",
        description="Reproduce the tables of Shih & Kuh, 'Quadratic Boolean "
        "Programming for Performance-Driven System Partitioning'.",
    )
    parser.add_argument(
        "--table",
        choices=["1", "2", "3", "all"],
        default="all",
        help="which paper table to regenerate (default: all)",
    )
    parser.add_argument(
        "--scale",
        type=float,
        default=1.0,
        help="workload shrink factor in (0, 1]; 1.0 = exact Table I sizes",
    )
    parser.add_argument(
        "--iterations",
        type=int,
        default=QBP_ITERATIONS,
        help=f"QBP iteration count (paper: {QBP_ITERATIONS})",
    )
    parser.add_argument(
        "--methods",
        nargs="*",
        default=None,
        metavar="NAME",
        help="registered solvers to run per circuit (default: the paper's "
        "qbp gfm gkl); any of: " + ", ".join(solver_names()),
    )
    parser.add_argument(
        "--circuits",
        nargs="*",
        default=None,
        metavar="CKT",
        help="subset of circuits (default: all seven)",
    )
    parser.add_argument("--seed", type=int, default=0, help="experiment seed")
    parser.add_argument(
        "--budget",
        type=float,
        default=None,
        metavar="SECONDS",
        help="wall-clock budget for the whole run; on expiry every solver "
        "returns its best incumbent and rows are marked stop_reason=deadline",
    )
    parser.add_argument(
        "--checkpoint-dir",
        default=None,
        metavar="PATH",
        help="directory for resumable sweep checkpoints; re-running with the "
        "same parameters skips completed circuits and resumes the "
        "interrupted one mid-solve",
    )
    parser.add_argument(
        "--workers",
        type=int,
        default=None,
        metavar="N",
        help="worker processes for fanning circuits out in parallel "
        "(default: the REPRO_WORKERS environment variable, else 1); "
        "rows are bit-identical to a serial run with the same seed",
    )
    parser.add_argument(
        "--retries",
        type=int,
        default=None,
        metavar="N",
        help="total attempts per circuit task before quarantine (default: "
        "the REPRO_TASK_RETRIES environment variable, else no retries); "
        "backoff is exponential with deterministic jitter",
    )
    parser.add_argument(
        "--task-timeout",
        type=float,
        default=None,
        metavar="SECONDS",
        help="hang watchdog: kill a worker that produces neither a result "
        "nor a heartbeat for this long (default: the REPRO_TASK_TIMEOUT "
        "environment variable, else off)",
    )
    parser.add_argument(
        "--json", default=None, metavar="PATH", help="also dump rows as JSON"
    )
    parser.add_argument(
        "--no-paper",
        action="store_true",
        help="omit the published rows from the rendered tables",
    )
    add_telemetry_arguments(parser)
    args = parser.parse_args(argv)

    if args.methods:
        for method in args.methods:
            try:
                get_solver(method)
            except UnknownSolverError as exc:
                parser.error(str(exc))

    names = tuple(args.circuits) if args.circuits else workload_names()
    unknown = set(names) - set(workload_names())
    if unknown:
        parser.error(f"unknown circuits: {sorted(unknown)}")

    budget = None
    if args.budget is not None:
        if args.budget <= 0:
            parser.error("--budget must be positive")
        budget = Budget(wall_seconds=args.budget)
    if args.workers is not None and args.workers < 1:
        parser.error("--workers must be >= 1")
    retry = None
    if args.retries is not None:
        if args.retries < 1:
            parser.error("--retries must be >= 1")
        retry = RetryPolicy(max_attempts=args.retries)
    if args.task_timeout is not None and args.task_timeout <= 0:
        parser.error("--task-timeout must be positive")
    # SIGINT/SIGTERM drain cooperatively instead of killing the sweep:
    # every completed row is already checkpointed, so a drained run
    # resumes bit-identically with the same --checkpoint-dir.
    if budget is None and args.table in ("2", "3", "all"):
        budget = Budget()
    try:
        # Chaos profile: a REPRO_FAULT_PLAN spec injects worker faults
        # into this run (CI chaos job, scripts/chaos_drill.py).  Only
        # task-scoped rules are expressible, so the plan crosses fork.
        fault_plan = plan_from_env(seed=args.seed)
    except ValueError as exc:
        parser.error(f"bad REPRO_FAULT_PLAN: {exc}")

    with contextlib.ExitStack() as stack:
        if fault_plan is not None:
            stack.enter_context(inject_faults(fault_plan))
        stack.enter_context(session_from_args(args, root_span="eval.run"))
        drain = stack.enter_context(drain_on_signals(budget))
        workloads = {name: build_workload(name, scale=args.scale) for name in names}
        initials = None
        if args.table in ("2", "3", "all"):
            initials = {
                name: shared_initial_solution(workload, seed=args.seed, budget=budget)
                for name, workload in workloads.items()
            }
        collected = {}

        if args.table in ("1", "all"):
            rows = [
                (circuit_stats(w.circuit), w.timing.num_pairs)
                for w in workloads.values()
            ]
            print(render_table1(rows))
            print()

        for table_num, paper in ((2, PAPER_TABLE2), (3, PAPER_TABLE3)):
            if args.table not in (str(table_num), "all"):
                continue
            rows = run_table(
                table_num,
                scale=args.scale,
                methods=args.methods,
                qbp_iterations=args.iterations,
                circuits=names,
                seed=args.seed,
                workloads=workloads,
                initials=initials,
                budget=budget,
                checkpoint_dir=args.checkpoint_dir,
                workers=args.workers,
                task_timeout=args.task_timeout,
                retry=retry,
            )
            collected[table_num] = rows
            print(
                render_table23(
                    rows,
                    with_timing=(table_num == 3),
                    paper=None if args.no_paper else paper,
                )
            )
            means = summarize_rows(rows)
            print(
                "mean improvement: "
                + "  ".join(
                    f"{method.upper()} {value:.1f}%"
                    for method, value in means.items()
                )
            )
            interrupted = [r for r in rows if r.stop_reason != STOP_COMPLETED]
            missing = len(names) - len(rows)
            if interrupted or missing:
                detail = interrupted[0].stop_reason if interrupted else "deadline"
                print(
                    f"note: table {table_num} stopped early ({detail}); "
                    f"{len(rows)}/{len(names)} circuits have rows"
                    + (
                        " - re-run with the same --checkpoint-dir to resume"
                        if args.checkpoint_dir
                        else ""
                    )
                )
            print()

        if drain.draining:
            print(
                "interrupted by signal: completed rows were flushed through "
                "the checkpoint"
                + (
                    "; re-run with the same --checkpoint-dir to resume "
                    "bit-identically"
                    if args.checkpoint_dir
                    else " (add --checkpoint-dir to make interrupted runs "
                    "resumable)"
                )
            )

    if args.json:
        payload = {
            f"table{num}": [row.to_dict() for row in rows]
            for num, rows in collected.items()
        }
        with open(args.json, "w") as fh:
            json.dump(payload, fh, indent=2)
        print(f"wrote {args.json}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
