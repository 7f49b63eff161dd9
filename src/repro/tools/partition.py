"""Command-line partitioner.

Examples
--------
Partition a JSON circuit onto a 4x4 grid with QBP::

    python -m repro.tools.partition circuit.json --grid 4x4 \\
        --capacity-slack 0.15 --solver qbp --iterations 100 \\
        --output assignment.json

With timing constraints from a file, printing the designer report::

    python -m repro.tools.partition circuit.wires --grid 2x2 \\
        --timing budgets.json --solver gkl --report

Any registered solver runs through the same pipeline; per-solver knobs
surface as ``--<solver>-<field>`` flags::

    python -m repro.tools.partition circuit.json --solver annealing \\
        --annealing-temperature-steps 20

Capture a full telemetry trace of the run, then inspect it::

    python -m repro.tools.partition circuit.json --trace out.jsonl
    python -m repro.tools.traceview out.jsonl
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import Dict, List

from repro.analysis.report import analyze_solution, render_report
from repro.core.constraints import check_feasibility
from repro.core.objective import ObjectiveEvaluator
from repro.core.problem import PartitioningProblem
from repro.obs.telemetry import add_telemetry_arguments, session_from_args
from repro.pipeline import (
    InitialSolutionError,
    SolvePipeline,
    UnknownSolverError,
    default_registry,
    get_solver,
    solver_names,
    supervised_initial_solution,
)
from repro.runtime.budget import Budget
from repro.tools.files import assignment_to_dict, load_any_circuit, timing_from_dict
from repro.topology.grid import grid_topology


def parse_grid(spec: str):
    try:
        rows, cols = spec.lower().split("x")
        return int(rows), int(cols)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"grid must look like 4x4, got {spec!r}"
        ) from None


def _config_flag_dest(solver: str, field: str) -> str:
    return f"cfg_{solver}_{field}"


def _add_solver_config_arguments(parser: argparse.ArgumentParser) -> None:
    """One ``--<solver>-<field>`` flag per registered config field.

    Defaults are ``None`` (= "not set"), so the solver's own config
    defaults apply and the digest of an all-defaults run matches an
    empty config document.
    """
    from dataclasses import fields as dataclass_fields

    for spec in default_registry().specs():
        config_fields = [
            f
            for f in dataclass_fields(spec.config_cls)
            if f.metadata.get("cli", True)
        ]
        if not config_fields:
            continue
        group = parser.add_argument_group(f"{spec.name} solver options")
        for field in config_fields:
            group.add_argument(
                f"--{spec.name}-{field.name.replace('_', '-')}",
                dest=_config_flag_dest(spec.name, field.name),
                default=None,
                metavar="V",
                help=field.metadata.get("help", ""),
            )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.tools.partition",
        description="Timing- and capacity-constrained circuit partitioning "
        "(Shih & Kuh's QBP method plus the registered baselines).",
    )
    parser.add_argument("circuit", help="circuit file (.json or .wires)")
    parser.add_argument(
        "--grid", type=parse_grid, default=(4, 4), metavar="RxC",
        help="partition grid shape (default 4x4)",
    )
    capacity = parser.add_mutually_exclusive_group()
    capacity.add_argument(
        "--capacity", type=float, default=None, help="capacity per partition"
    )
    capacity.add_argument(
        "--capacity-slack", type=float, default=0.15,
        help="headroom over balanced load (default 0.15)",
    )
    parser.add_argument(
        "--timing", default=None, metavar="PATH",
        help="timing-constraint JSON (see repro.tools.files.timing_to_dict)",
    )
    parser.add_argument(
        "--solver", default="qbp", metavar="NAME",
        help="registered solver to run: " + ", ".join(solver_names()),
    )
    parser.add_argument(
        "--iterations", type=int, default=None,
        help="QBP iterations (alias for --qbp-iterations; default 100)",
    )
    parser.add_argument(
        "--restarts", type=int, default=None,
        help="independent QBP restarts; the best result is kept (default 1). "
        "More restarts buy better solutions, and parallelize cleanly",
    )
    parser.add_argument(
        "--workers", type=int, default=None, metavar="N",
        help="worker processes for running restarts in parallel (default: "
        "the REPRO_WORKERS environment variable, else 1); the selected "
        "solution is bit-identical to a serial run with the same seed",
    )
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument(
        "--budget", type=float, default=None, metavar="SECONDS",
        help="wall-clock budget; on expiry the best incumbent found so far "
        "is reported with its stop reason",
    )
    parser.add_argument(
        "--checkpoint", default=None, metavar="PATH",
        help="solver checkpoint file: written periodically during the solve, "
        "resumed from if present, removed on natural completion "
        "(checkpoint-capable solvers only)",
    )
    parser.add_argument(
        "--output", default=None, metavar="PATH", help="write the assignment JSON here"
    )
    parser.add_argument(
        "--report", action="store_true", help="print the full solution report"
    )
    _add_solver_config_arguments(parser)
    add_telemetry_arguments(parser)
    return parser


def solver_config_overrides(args, spec) -> Dict[str, object]:
    """Collect ``--<solver>-<field>`` values (plus legacy aliases) for ``spec``.

    The legacy ``--iterations``/``--restarts`` flags map onto same-named
    config fields when the chosen solver has them; using them with a
    solver that does not is an error rather than a silent no-op.
    """
    overrides: Dict[str, object] = {}
    for field in spec.config_cls.field_names():
        value = getattr(args, _config_flag_dest(spec.name, field), None)
        if value is not None:
            overrides[field] = value
    for legacy in ("iterations", "restarts"):
        value = getattr(args, legacy, None)
        if value is None:
            continue
        if legacy not in spec.config_cls.field_names():
            raise ValueError(
                f"--{legacy} does not apply to solver {spec.name!r}"
            )
        overrides.setdefault(legacy, value)
    return overrides


def main(argv: List[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    with session_from_args(args, root_span="partition"):
        return _run(args)


def _run(args) -> int:
    """The partitioner body, running inside the telemetry session."""
    try:
        spec = get_solver(args.solver)
    except UnknownSolverError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    try:
        config = spec.make_config(solver_config_overrides(args, spec))
    except ValueError as exc:
        build_parser().error(str(exc))

    circuit = load_any_circuit(args.circuit)
    rows, cols = args.grid
    if args.capacity is not None:
        capacity = args.capacity
    else:
        balanced = circuit.total_size() / (rows * cols)
        capacity = max(
            balanced * (1.0 + args.capacity_slack),
            float(circuit.sizes().max()) * (1.0 + args.capacity_slack),
        )
    topology = grid_topology(rows, cols, capacity=capacity)

    timing = None
    if args.timing:
        timing = timing_from_dict(json.loads(Path(args.timing).read_text()))
    problem = PartitioningProblem(circuit, topology, timing=timing)

    budget = None
    if args.budget is not None:
        if args.budget <= 0:
            build_parser().error("--budget must be positive")
        budget = Budget(wall_seconds=args.budget)
    restarts = int(getattr(config, "restarts", 1))
    if args.workers is not None and args.workers < 1:
        build_parser().error("--workers must be >= 1")
    if args.checkpoint and not spec.supports_checkpoint:
        build_parser().error(
            f"--checkpoint is not supported by solver {spec.name!r}"
        )
    if args.checkpoint and restarts > 1:
        # A solver checkpoint records ONE solve's state; restarts would
        # fight over the file (and parallel restarts cannot share it).
        build_parser().error("--checkpoint requires --restarts 1")

    initial = None
    if spec.uses_initial:
        try:
            initial, initial_rung = supervised_initial_solution(
                problem, args.seed, budget, name="partition.initial"
            )
        except InitialSolutionError as exc:
            print(f"error: {exc}")
            return 2
        if initial_rung != "qbp-bootstrap":
            print(f"note: initial solution from fallback rung '{initial_rung}'")

    pipeline = SolvePipeline(workers=args.workers)
    run = pipeline.run(
        spec,
        problem,
        config=config,
        initial=initial,
        seed=args.seed,
        budget=budget,
        checkpoint=args.checkpoint or None,
    )
    if run.resumed_iteration is not None:
        print(f"resumed from checkpoint at iteration {run.resumed_iteration}")
    result = run.outcome
    stop_reason = result.stop_reason
    # Uniform SolveOutcome API: every solver reports via ``.solution``
    # (QBP's is its best fully feasible iterate, possibly None).
    assignment = result.solution if result.solution is not None else initial

    evaluator = ObjectiveEvaluator(problem)
    feasibility = check_feasibility(problem, assignment)
    print(
        f"{spec.name}: cost {evaluator.cost(assignment):g} "
        f"({feasibility.summary()}; stop: {stop_reason})"
    )
    if args.report:
        print()
        print(render_report(analyze_solution(problem, assignment)))
    if args.output:
        payload = assignment_to_dict(assignment, circuit)
        payload["cost"] = evaluator.cost(assignment)
        payload["solver"] = spec.name
        payload["config"] = config.canonical()
        payload["stop_reason"] = stop_reason
        Path(args.output).write_text(json.dumps(payload, indent=2, sort_keys=True))
        print(f"wrote {args.output}")
    return 0 if feasibility.feasible else 1


if __name__ == "__main__":
    sys.exit(main())
