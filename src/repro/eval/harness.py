"""Experiment harness: run the paper's methods exactly as the paper did.

Protocol (paper Section 5):

1. Build the circuit's problem (with or without timing constraints -
   Table III vs Table II).
2. Obtain one initial feasible solution via the paper's recipe (QBP with
   ``B = 0``); *the same* initial solution is given to every method.
3. QBP runs a fixed iteration count (100 in the paper); GFM runs until
   no more improvement; GKL is cut off after 6 outer loops.
4. Report, per method: final cost (total Manhattan wire length),
   percentage improvement over the start, and CPU seconds.
5. Audit: every reported solution must be violation-free.

The method set is open: ``run_circuit_experiment``/``run_table`` accept
any solvers registered with :mod:`repro.pipeline` (``methods=``), and
rows key their per-solver columns by name.  The default method tuple is
the paper's (``qbp``, ``gfm``, ``gkl``) and reproduces the historical
Table II/III rows bit-identically.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, replace as dataclass_replace
from pathlib import Path
from typing import Dict, Iterable, List, Mapping, Optional, Sequence, Tuple

from repro.core.assignment import Assignment
from repro.core.constraints import check_feasibility
from repro.core.objective import ObjectiveEvaluator
from repro.eval.paper_data import GKL_OUTER_LOOPS, QBP_ITERATIONS
from repro.eval.workloads import Workload, build_workload, workload_names
from repro.obs.metrics import METRICS_SNAPSHOT_FORMAT, diff_snapshots
from repro.obs.telemetry import Telemetry, resolve as resolve_telemetry
from repro.parallel.pool import FINAL_FAILURE_KINDS, WorkerPool
from repro.parallel.retry import IntegrityError, RetryPolicy
from repro.pipeline import (
    SolvePipeline,
    UnknownSolverError,
    get_solver,
    paper_initial_solution,
    paper_solver_names,
)
from repro.runtime.budget import (
    STOP_COMPLETED,
    STOP_REASONS,
    STOP_STALLED,
    Budget,
)
from repro.runtime.faults import maybe_fault_task
from repro.runtime.checkpoint import (
    TABLE_CHECKPOINT_FORMAT,
    QbpCheckpointer,
    atomic_write_json,
    try_load_json_checkpoint,
)
from repro.utils.rng import RandomSource

_TIMING_GAUGE_PREFIX = "timing."
_TIMING_GAUGE_SUFFIX = "_seconds"
_TOTAL_GAUGE = "timing.total_seconds"


class SolverTimings:
    """Wall-clock seconds per solver for one circuit, keyed by name.

    Serialises as a ``metrics-snapshot-v1`` payload (gauges named
    ``timing.<solver>_seconds``), the same format
    :meth:`~repro.obs.metrics.MetricsRegistry.snapshot` produces - so
    ``full_results.json`` carries timings and metric snapshots uniformly
    and :meth:`from_dict` round-trips :meth:`to_dict` exactly.  Any
    registered solver name is accepted: ``SolverTimings(qbp=1.0)``,
    ``SolverTimings({"annealing": 2.0})``, or a mix.
    """

    def __init__(
        self, seconds: Optional[Mapping[str, float]] = None, **named: float
    ) -> None:
        data: Dict[str, float] = dict(seconds or {})
        data.update(named)
        self._seconds: Dict[str, float] = {
            str(name): float(value) for name, value in data.items()
        }

    def names(self) -> Tuple[str, ...]:
        """Solver names carried by this record, sorted."""
        return tuple(sorted(self._seconds))

    def seconds(self, name: str) -> float:
        """Wall-clock seconds for ``name`` (raises ``KeyError`` if absent)."""
        return self._seconds[name]

    @property
    def total(self) -> float:
        """Combined wall-clock seconds across all solvers."""
        return sum(self._seconds.values())

    def __getattr__(self, name: str) -> float:
        if name.startswith("_"):
            raise AttributeError(name)
        try:
            return self.__dict__["_seconds"][name]
        except KeyError:
            raise AttributeError(
                f"SolverTimings has no solver {name!r}"
            ) from None

    def __eq__(self, other) -> bool:
        if not isinstance(other, SolverTimings):
            return NotImplemented
        return self._seconds == other._seconds

    def __repr__(self) -> str:
        inner = ", ".join(f"{k}={v:g}" for k, v in sorted(self._seconds.items()))
        return f"SolverTimings({inner})"

    def to_dict(self) -> dict:
        """A ``metrics-snapshot-v1`` payload holding the timing gauges."""
        gauges = {
            f"{_TIMING_GAUGE_PREFIX}{name}{_TIMING_GAUGE_SUFFIX}": float(value)
            for name, value in self._seconds.items()
        }
        gauges[_TOTAL_GAUGE] = float(self.total)
        return {
            "format": METRICS_SNAPSHOT_FORMAT,
            "counters": {},
            "gauges": {key: gauges[key] for key in sorted(gauges)},
            "histograms": {},
        }

    @classmethod
    def from_dict(
        cls, payload: dict, *, expected: Optional[Sequence[str]] = None
    ) -> "SolverTimings":
        """Rebuild from a :meth:`to_dict` payload - strictly.

        Every gauge must be a ``timing.<solver>_seconds`` entry (the
        derived ``timing.total_seconds`` is skipped); a malformed gauge
        name, a payload without timing gauges, or - when ``expected``
        names are given - an unknown or missing solver raises
        ``ValueError`` instead of silently zero-filling.
        """
        if not isinstance(payload, dict):
            raise ValueError(f"timings payload must be a dict, got {payload!r}")
        gauges = payload.get("gauges")
        if not isinstance(gauges, dict):
            raise ValueError("timings payload has no 'gauges' section")
        seconds: Dict[str, float] = {}
        for key, value in gauges.items():
            if key == _TOTAL_GAUGE:
                continue  # derived; recomputed from the per-solver entries
            if not (
                key.startswith(_TIMING_GAUGE_PREFIX)
                and key.endswith(_TIMING_GAUGE_SUFFIX)
                and len(key) > len(_TIMING_GAUGE_PREFIX) + len(_TIMING_GAUGE_SUFFIX)
            ):
                raise ValueError(
                    f"gauge {key!r} is not a timing.<solver>_seconds entry"
                )
            name = key[len(_TIMING_GAUGE_PREFIX) : -len(_TIMING_GAUGE_SUFFIX)]
            seconds[name] = float(value)
        if not seconds:
            raise ValueError("timings payload carries no timing gauges")
        if expected is not None:
            got, want = set(seconds), set(expected)
            if got != want:
                missing = sorted(want - got)
                unknown = sorted(got - want)
                raise ValueError(
                    f"timing gauges do not match the expected solvers: "
                    f"missing {missing}, unknown {unknown}"
                )
        return cls(seconds)

    @classmethod
    def merge(cls, timings: Iterable) -> "SolverTimings":
        """Sum per-solver seconds across runs (e.g. one per pool worker).

        Accepts a mix of :class:`SolverTimings` instances, :meth:`to_dict`
        payloads, and ``None`` entries (rows restored from old
        checkpoints carry no timings); ``None`` entries are skipped, so
        ``SolverTimings.merge(row.timings for row in rows)`` aggregates a
        whole table directly.  The result carries the union of all the
        solver names seen.
        """
        merged: Dict[str, float] = {}
        for item in timings:
            if item is None:
                continue
            if isinstance(item, dict):
                item = cls.from_dict(item)
            for name, value in item._seconds.items():
                merged[name] = merged.get(name, 0.0) + value
        return cls(merged)


@dataclass(frozen=True)
class SolverCell:
    """One solver's columns in a table row: final cost, -%, CPU seconds."""

    cost: float
    improvement: float
    cpu: float


_CELL_FIELDS = ("cost", "improvement", "cpu")
_ROW_FIELDS = (
    "name",
    "with_timing",
    "start_cost",
    "all_feasible",
    "stop_reason",
    "timings",
    "metrics",
)


class ExperimentRow:
    """One row of a Table II/III reproduction, keyed by solver name.

    ``solvers`` maps each method name to its :class:`SolverCell`; the
    historical flattened attributes (``row.qbp_cost``,
    ``row.gfm_improvement``, ...) resolve through it for *any*
    registered solver name, and the constructor accepts either the
    nested mapping or the flattened ``<solver>_cost=...`` keyword
    triples, so rows round-trip both schema generations.
    """

    def __init__(
        self,
        name: str,
        with_timing: bool,
        start_cost: float,
        *,
        solvers: Optional[Mapping[str, object]] = None,
        all_feasible: bool,
        stop_reason: str = STOP_COMPLETED,
        timings: Optional[dict] = None,
        metrics: Optional[dict] = None,
        **legacy: float,
    ) -> None:
        self.name = str(name)
        self.with_timing = bool(with_timing)
        self.start_cost = float(start_cost)
        self.all_feasible = bool(all_feasible)
        self.stop_reason = str(stop_reason)
        self.timings = timings
        self.metrics = metrics

        cells: Dict[str, SolverCell] = {}
        for solver, cell in (solvers or {}).items():
            if not isinstance(cell, SolverCell):
                cell = SolverCell(**{k: float(cell[k]) for k in _CELL_FIELDS})
            cells[str(solver)] = cell
        pending: Dict[str, Dict[str, float]] = {}
        for key, value in legacy.items():
            solver, sep, kind = key.rpartition("_")
            if not sep or not solver or kind not in _CELL_FIELDS:
                raise TypeError(f"unexpected keyword argument {key!r}")
            if solver in cells:
                raise TypeError(
                    f"solver {solver!r} given both nested and flattened"
                )
            pending.setdefault(solver, {})[kind] = float(value)
        for solver, parts in pending.items():
            missing = [k for k in _CELL_FIELDS if k not in parts]
            if missing:
                raise TypeError(
                    f"solver {solver!r} columns are incomplete: missing {missing}"
                )
            cells[solver] = SolverCell(**parts)
        self.solvers: Dict[str, SolverCell] = cells

    def __getattr__(self, attr: str):
        if attr.startswith("_"):
            raise AttributeError(attr)
        solver, sep, kind = attr.rpartition("_")
        if sep and kind in _CELL_FIELDS:
            cell = self.__dict__.get("solvers", {}).get(solver)
            if cell is not None:
                return getattr(cell, kind)
        raise AttributeError(f"ExperimentRow has no attribute {attr!r}")

    def __eq__(self, other) -> bool:
        if not isinstance(other, ExperimentRow):
            return NotImplemented
        return self.to_dict() == other.to_dict()

    def __repr__(self) -> str:
        return (
            f"ExperimentRow(name={self.name!r}, with_timing={self.with_timing}, "
            f"start_cost={self.start_cost!r}, solvers={self.solvers!r}, "
            f"stop_reason={self.stop_reason!r})"
        )

    def replace(self, **changes) -> "ExperimentRow":
        """A copy with ``changes`` applied (flattened keys reach cells)."""
        solvers: Dict[str, SolverCell] = dict(self.solvers)
        for key in list(changes):
            solver, sep, kind = key.rpartition("_")
            if sep and kind in _CELL_FIELDS and solver in solvers:
                solvers[solver] = dataclass_replace(
                    solvers[solver], **{kind: float(changes.pop(key))}
                )
        data = {field: getattr(self, field) for field in _ROW_FIELDS}
        data.update(changes)
        solvers_override = data.pop("solvers", solvers)
        return ExperimentRow(
            data.pop("name"),
            data.pop("with_timing"),
            data.pop("start_cost"),
            solvers=solvers_override,
            **data,
        )

    def to_dict(self) -> dict:
        """Plain-dict view for JSON export.

        Emits both the nested ``"solvers"`` mapping and the historical
        flattened ``<solver>_cost/_improvement/_cpu`` keys, so older
        consumers of ``full_results.json`` keep working.
        """
        data: Dict[str, object] = {
            "name": self.name,
            "with_timing": self.with_timing,
            "start_cost": self.start_cost,
        }
        for solver, cell in self.solvers.items():
            data[f"{solver}_cost"] = cell.cost
            data[f"{solver}_improvement"] = cell.improvement
            data[f"{solver}_cpu"] = cell.cpu
        data["all_feasible"] = self.all_feasible
        data["stop_reason"] = self.stop_reason
        data["timings"] = self.timings
        data["metrics"] = self.metrics
        data["solvers"] = {
            solver: {k: getattr(cell, k) for k in _CELL_FIELDS}
            for solver, cell in self.solvers.items()
        }
        return data

    @classmethod
    def from_dict(cls, payload: dict) -> "ExperimentRow":
        """Rebuild from a :meth:`to_dict` payload (either schema shape)."""
        data = dict(payload)
        solvers = data.pop("solvers", None)
        if solvers is not None:
            for solver in solvers:
                for kind in _CELL_FIELDS:
                    data.pop(f"{solver}_{kind}", None)
        return cls(solvers=solvers, **data)

    def solver_costs(self) -> Dict[str, float]:
        return {solver: cell.cost for solver, cell in self.solvers.items()}


def shared_initial_solution(
    workload: Workload,
    seed: RandomSource = None,
    *,
    bootstrap_iterations: int = 40,
    budget: Optional[Budget] = None,
) -> Assignment:
    """The shared start: paper bootstrap, reference as the safety net.

    The paper generates ONE initial feasible solution per circuit by
    running QBP with ``B = 0`` *with the timing constraints active*, and
    reuses it for both the timing-relaxed (Table II) and timing-enforced
    (Table III) runs - which is why the two tables share their "start"
    columns.  The ladder itself lives in
    :func:`repro.pipeline.paper_initial_solution`; this wrapper binds it
    to a workload (bootstrap on ``workload.problem``, timing included,
    with ``workload.reference`` as the known-feasible fallback).
    """
    return paper_initial_solution(
        workload.problem,
        workload.reference,
        seed=seed,
        bootstrap_iterations=bootstrap_iterations,
        budget=budget,
    )


def _method_config_overrides(
    name: str, qbp_iterations: int, gkl_outer_loops: int
) -> Dict[str, object]:
    """The harness's per-method config knobs (paper parameters)."""
    return {
        "qbp": {"iterations": qbp_iterations},
        "gkl": {"max_outer_loops": gkl_outer_loops},
    }.get(name, {})


def run_circuit_experiment(
    workload: Workload,
    *,
    with_timing: bool,
    methods: Optional[Sequence[str]] = None,
    qbp_iterations: int = QBP_ITERATIONS,
    gkl_outer_loops: int = GKL_OUTER_LOOPS,
    seed: RandomSource = 0,
    initial: Optional[Assignment] = None,
    budget: Optional[Budget] = None,
    qbp_checkpoint_path=None,
    telemetry: Optional[Telemetry] = None,
) -> ExperimentRow:
    """Run every method on one circuit and assemble the table row.

    ``methods`` may name any registered solvers (default: the paper's
    ``qbp``, ``gfm``, ``gkl``); each runs through the shared
    :class:`~repro.pipeline.SolvePipeline` from the same initial
    solution.  ``budget`` is shared by every stage (bootstrap plus each
    method); each returns its best feasible incumbent on expiry, and the
    row's ``stop_reason`` records any budget stop.  With
    ``qbp_checkpoint_path``, the checkpoint-capable method (QBP)
    snapshots its state there periodically and resumes bit-exactly from
    an existing snapshot; the file is cleared once it finishes on its
    own.

    When telemetry is enabled (``telemetry=`` or ambient) each method
    runs inside a ``harness.<method>`` span, per-method wall-clock
    gauges (``harness.<method>_seconds``) are set, and the row's
    ``metrics`` field records the counter deltas attributable to this
    circuit.
    """
    method_names = tuple(methods) if methods else paper_solver_names()
    specs = [get_solver(name) for name in method_names]
    tel = resolve_telemetry(telemetry)
    metrics_before = tel.metrics_snapshot() if tel.enabled else None
    problem = workload.problem if with_timing else workload.problem_no_timing
    if initial is None:
        with tel.span("harness.bootstrap", circuit=workload.name):
            initial = shared_initial_solution(workload, seed, budget=budget)
    report = check_feasibility(problem, initial)
    if not report.feasible:
        raise RuntimeError(
            f"shared initial solution for {workload.name} is infeasible: "
            f"{report.summary()}"
        )
    evaluator = ObjectiveEvaluator(problem)
    start_cost = evaluator.cost(initial)

    def pct(final: float) -> float:
        return 0.0 if start_cost == 0 else 100.0 * (start_cost - final) / start_cost

    pipeline = SolvePipeline()
    cells: Dict[str, SolverCell] = {}
    assignments = []
    stop_reasons = []
    for spec in specs:
        checkpointer = None
        if qbp_checkpoint_path is not None and spec.supports_checkpoint:
            checkpointer = QbpCheckpointer(
                qbp_checkpoint_path, label=workload.name, telemetry=telemetry
            )
        t0 = time.perf_counter()
        with tel.span(f"harness.{spec.name}", circuit=workload.name):
            run = pipeline.run(
                spec,
                problem,
                config=_method_config_overrides(
                    spec.name, qbp_iterations, gkl_outer_loops
                ),
                initial=initial,
                seed=seed,
                budget=budget,
                checkpointer=checkpointer,
                telemetry=telemetry,
            )
        cpu = time.perf_counter() - t0
        outcome = run.outcome
        assignment = outcome.solution
        if assignment is None:  # initial is feasible, so this cannot regress
            assignment = initial
        if spec.recompute_report_cost:
            cost = min(evaluator.cost(assignment), start_cost)
        else:
            cost = float(outcome.cost)
        cells[spec.name] = SolverCell(cost=cost, improvement=pct(cost), cpu=cpu)
        assignments.append(assignment)
        stop_reasons.append(outcome.stop_reason)

    feasible = all(
        check_feasibility(problem, a).feasible for a in assignments
    )

    # A budget stop in any stage marks the whole row; a solver's natural
    # "stalled" exit is a completion, not an interruption.
    budget_reasons = [
        r for r in stop_reasons if r not in (STOP_COMPLETED, STOP_STALLED)
    ]
    stop_reason = budget_reasons[0] if budget_reasons else STOP_COMPLETED

    timings = SolverTimings(
        {name: cell.cpu for name, cell in cells.items()}
    )
    row_metrics = None
    if tel.enabled:
        for name, cell in cells.items():
            tel.gauge(f"harness.{name}_seconds").set(cell.cpu)
        row_metrics = diff_snapshots(metrics_before, tel.metrics_snapshot())

    return ExperimentRow(
        workload.name,
        with_timing,
        start_cost,
        solvers=cells,
        all_feasible=feasible,
        stop_reason=stop_reason,
        timings=timings.to_dict(),
        metrics=row_metrics,
    )


class TableCheckpoint:
    """Directory-based progress record for a Table II/III sweep.

    One JSON file per table (``table{N}.json``, format
    ``table-checkpoint-v1``) stores every *completed* circuit row plus
    the run parameters; per-circuit QBP snapshots live alongside it
    (``table{N}-{circuit}-qbp.json``).  On resume, completed circuits
    are skipped outright and an interrupted circuit restarts from its
    QBP snapshot, so a killed sweep loses no finished work.  A
    parameter mismatch (different scale/seed/iterations/methods)
    invalidates the record rather than mixing incompatible rows.
    """

    def __init__(
        self,
        directory,
        table: int,
        *,
        params: Optional[dict] = None,
        telemetry=None,
    ):
        self.directory = Path(directory)
        self.table = int(table)
        self.path = self.directory / f"table{self.table}.json"
        self.params = params or {}
        self.telemetry = telemetry
        self._rows: Dict[str, ExperimentRow] = {}
        payload = try_load_json_checkpoint(
            self.path,
            expected_format=TABLE_CHECKPOINT_FORMAT,
            label=f"table{self.table}",
            telemetry=telemetry,
        )
        if (
            payload is not None
            and payload.get("table") == self.table
            and payload.get("params") == self.params
        ):
            for entry in payload.get("rows", []):
                try:
                    row = ExperimentRow.from_dict(entry)
                except (TypeError, KeyError, ValueError):
                    continue  # written by an older/newer schema: recompute
                if row.stop_reason == STOP_COMPLETED:
                    self._rows[row.name] = row

    def completed(self, name: str) -> Optional[ExperimentRow]:
        """The recorded row for ``name``, or ``None`` if it must run."""
        return self._rows.get(name)

    def record(self, row: ExperimentRow) -> None:
        """Persist ``row``; only completed rows count toward resume."""
        if row.stop_reason != STOP_COMPLETED:
            return
        self._rows[row.name] = row
        atomic_write_json(
            self.path,
            {
                "format": TABLE_CHECKPOINT_FORMAT,
                "table": self.table,
                "params": self.params,
                "rows": [r.to_dict() for r in self._rows.values()],
            },
            backup=True,
        )

    def qbp_checkpoint_path(self, name: str) -> Path:
        return self.directory / f"table{self.table}-{name}-qbp.json"

    def clear(self) -> None:
        """Remove the table record, QBP snapshots, and backup generations."""
        for path in [
            self.path,
            self.path.with_name(self.path.name + ".bak"),
            *self.directory.glob(f"table{self.table}-*-qbp.json"),
            *self.directory.glob(f"table{self.table}-*-qbp.json.bak"),
        ]:
            try:
                path.unlink()
            except FileNotFoundError:
                pass


def verify_table_row(row, payload) -> None:
    """Integrity gate for table rows: internal consistency before acceptance.

    A row carries no assignments (those stay worker-side), so the gate
    checks everything that is re-derivable from the row itself: identity
    against the payload, finiteness, the improvement percentages against
    their own costs, and - for methods whose registry spec declares the
    clamp (``recompute_report_cost``) - the never-worsens invariant the
    harness enforces by construction.  A worker that silently corrupted
    its row (the ``worker.corrupt`` fault site, a miscompiled numpy, a
    bad DIMM) fails one of these and is rejected-and-retried instead of
    entering the table.
    """
    name, table = payload[0], payload[1]
    if not isinstance(row, ExperimentRow):
        raise IntegrityError(f"worker returned {type(row).__name__}, not a row")
    if row.name != name:
        raise IntegrityError(f"row is for {row.name!r}, expected {name!r}")
    if row.with_timing != (table == 3):
        raise IntegrityError(
            f"row.with_timing={row.with_timing} does not match table {table}"
        )
    if not row.solvers:
        raise IntegrityError("row carries no solver columns")
    if not math.isfinite(row.start_cost) or row.start_cost < 0:
        raise IntegrityError(f"start_cost={row.start_cost!r} is not a finite cost")
    for solver, cell in row.solvers.items():
        try:
            spec = get_solver(solver)
        except UnknownSolverError as exc:
            raise IntegrityError(str(exc)) from None
        if not math.isfinite(cell.cost) or cell.cost < 0:
            raise IntegrityError(
                f"{solver}_cost={cell.cost!r} is not a finite cost"
            )
        if spec.recompute_report_cost and cell.cost > row.start_cost + 1e-6:
            raise IntegrityError(
                f"{solver}_cost {cell.cost!r} exceeds start_cost "
                f"{row.start_cost!r} (the harness clamps {solver} to never "
                "worsen)"
            )
        expected = (
            0.0
            if row.start_cost == 0
            else 100.0 * (row.start_cost - cell.cost) / row.start_cost
        )
        if not math.isclose(
            expected, cell.improvement, rel_tol=1e-9, abs_tol=1e-6
        ):
            raise IntegrityError(
                f"{solver}_improvement {cell.improvement!r} inconsistent with "
                f"its costs (expected {expected!r})"
            )
    if row.stop_reason not in STOP_REASONS:
        raise IntegrityError(f"unknown stop_reason {row.stop_reason!r}")


def _table_circuit_task(payload, ctx):
    """Run one circuit of a table sweep (module-level: crosses fork).

    The payload ships the circuit *name* plus run parameters; the
    workload itself is rebuilt in the worker unless a pre-built one was
    provided (construction is deterministic, and rebuilding beats
    pickling a full workload per task).  In a worker process
    ``ctx.budget`` is this circuit's lease under the sweep budget and
    ``ctx.telemetry`` the worker's own bundle, merged back by the pool;
    in-process they are the sweep's own budget and bundle.
    """
    (
        name,
        table,
        scale,
        qbp_iterations,
        seed,
        workload,
        initial,
        ckpt_path,
        methods,
    ) = payload
    if workload is None:
        workload = build_workload(name, scale=scale)
    with ctx.telemetry.span("harness.circuit", circuit=name, table=table):
        row = run_circuit_experiment(
            workload,
            with_timing=(table == 3),
            methods=methods,
            qbp_iterations=qbp_iterations,
            seed=seed,
            initial=initial.copy() if initial is not None else None,
            budget=ctx.budget,
            qbp_checkpoint_path=ckpt_path,
            telemetry=ctx.telemetry,
        )
    try:
        maybe_fault_task("worker.corrupt", ctx.worker_id, ctx.attempt)
    except Exception:
        # Silent tamper: a better cost whose improvement column no
        # longer adds up - only the parent's integrity gate catches it.
        first = next(iter(row.solvers))
        row = row.replace(**{f"{first}_cost": row.solvers[first].cost * 0.5})
    return row


def run_table(
    table: int,
    *,
    scale: float = 1.0,
    methods: Optional[Sequence[str]] = None,
    qbp_iterations: int = QBP_ITERATIONS,
    circuits: Optional[Sequence[str]] = None,
    seed: RandomSource = 0,
    workloads: Optional[Dict[str, Workload]] = None,
    initials: Optional[Dict[str, Assignment]] = None,
    budget: Optional[Budget] = None,
    checkpoint_dir=None,
    telemetry: Optional[Telemetry] = None,
    workers: Optional[int] = None,
    task_timeout: Optional[float] = None,
    retry: Optional[RetryPolicy] = None,
) -> List[ExperimentRow]:
    """Reproduce Table II (``table=2``) or Table III (``table=3``).

    Parameters
    ----------
    scale:
        Workload shrink factor for quick runs (1.0 = full Table I sizes).
    methods:
        Registered solver names to run per circuit (default: the
        paper's ``qbp``, ``gfm``, ``gkl``).  Unknown names raise
        :class:`~repro.pipeline.UnknownSolverError` up front, listing
        the registered solvers.
    circuits:
        Subset of circuit names (default: all seven).
    workloads:
        Pre-built workloads, to share construction across tables.
    initials:
        Pre-computed shared initial solutions per circuit, to avoid
        re-running the (deterministic but costly) bootstrap when both
        tables are produced in one session.
    budget:
        Shared :class:`~repro.runtime.budget.Budget` for the whole
        sweep.  No circuit starts once it has stopped.  On expiry an
        in-flight circuit's row (best incumbents, ``stop_reason`` set)
        is still emitted; circuits not yet started get no row
        (in-process) or run out their revoked leases cooperatively
        (processes).
    checkpoint_dir:
        Directory for a :class:`TableCheckpoint`.  Completed circuits
        are skipped on re-run and the interrupted one resumes from its
        QBP snapshot, so the resumed sweep reproduces an uninterrupted
        run's rows (same seed).  Safe under ``workers > 1``: rows are
        recorded as circuits finish (any completion order) into a
        name-keyed record rewritten atomically as a whole.
    telemetry:
        Optional :class:`~repro.obs.telemetry.Telemetry`; ``None`` uses
        the ambient instance.  Each circuit runs inside a
        ``harness.circuit`` span and its row carries per-method timings
        and metric deltas.
    workers:
        Process count for the :class:`~repro.parallel.pool.WorkerPool`
        every circuit goes through, in one ``map`` call (``None`` reads
        ``REPRO_WORKERS``, default 1, which runs the circuits
        in-process).  Every circuit receives the same ``seed`` for
        every worker count, so rows are bit-identical across worker
        counts; they always come back in canonical circuit order.
    task_timeout / retry:
        Self-healing knobs forwarded to the pool: a hang deadline in
        seconds (``None`` reads ``REPRO_TASK_TIMEOUT``) and a
        :class:`~repro.parallel.retry.RetryPolicy` (``None`` reads
        ``REPRO_TASK_RETRIES``).  Every row also passes the
        :func:`verify_table_row` integrity gate before it is accepted or
        checkpointed; rejected rows are retried under the policy.  See
        ``docs/ROBUSTNESS.md``.

    Raises
    ------
    RuntimeError
        After the map, when a circuit still failed (``error``,
        ``crash``, ``hang`` or ``integrity``, after the retry policy)
        while the budget is live.  The message names every failed
        circuit and carries the first failure's traceback.  A failure
        that settles after the budget stopped (a drain) yields no row
        and no error; a resumed run recomputes the circuit.
    """
    if table not in (2, 3):
        raise ValueError(f"table must be 2 or 3, got {table}")
    method_names = tuple(methods) if methods else paper_solver_names()
    for method in method_names:
        get_solver(method)  # raises UnknownSolverError with the list
    names = tuple(circuits) if circuits else workload_names()
    checkpoint = None
    if checkpoint_dir is not None:
        checkpoint = TableCheckpoint(
            checkpoint_dir,
            table,
            params={
                "scale": scale,
                "qbp_iterations": qbp_iterations,
                "seed": seed if isinstance(seed, int) else None,
                "methods": list(method_names),
            },
            telemetry=telemetry,
        )
    tel = resolve_telemetry(telemetry)

    pending = [
        name
        for name in names
        if checkpoint is None or checkpoint.completed(name) is None
    ]
    finished: Dict[str, ExperimentRow] = {}
    if budget is None or budget.check() is None:  # nothing starts after a stop
        pool = WorkerPool(
            workers=workers,
            name="eval.table",
            budget=budget,
            telemetry=tel,
            task_timeout=task_timeout,
            retry=retry,
        )
        payloads = [
            (
                name,
                table,
                scale,
                qbp_iterations,
                seed,
                workloads.get(name) if workloads else None,
                initials.get(name) if initials else None,
                checkpoint.qbp_checkpoint_path(name) if checkpoint else None,
                method_names,
            )
            for name in pending
        ]

        def record(outcome) -> None:
            # Completion order, not circuit order: TableCheckpoint keys
            # rows by name and rewrites the whole file, so this is safe.
            if checkpoint is not None:
                checkpoint.record(outcome.value)

        with tel.span(
            "harness.table", table=table, workers=pool.workers, circuits=len(pending)
        ):
            outcomes = pool.map(
                _table_circuit_task,
                payloads,
                on_result=record,
                verify=verify_table_row,
            )
        failures = []
        for outcome in outcomes:
            if outcome.failure is None:
                finished[pending[outcome.index]] = outcome.value
            elif outcome.failure.kind in FINAL_FAILURE_KINDS:
                failures.append(outcome.failure)
        if failures and (budget is None or budget.check() is None):
            first = failures[0]
            raise RuntimeError(
                f"table {table}: circuit(s) failed: "
                + "; ".join(
                    f"{pending[f.index]} ({f.describe()})" for f in failures
                )
                + (f"\n{first.traceback}" if first.traceback else "")
            )

    rows: List[ExperimentRow] = []
    for name in names:
        row = finished.get(name)
        if row is None and checkpoint is not None:
            row = checkpoint.completed(name)
        if row is not None:
            rows.append(row)
    return rows


def summarize_rows(rows: Iterable[ExperimentRow]) -> Dict[str, float]:
    """Mean improvement per solver over a set of rows.

    Keys follow the rows' own method sets (first-seen order); a solver
    is averaged over the rows that actually ran it.  Empty input yields
    an empty mapping.
    """
    rows = list(rows)
    means: Dict[str, float] = {}
    counts: Dict[str, int] = {}
    for row in rows:
        for solver, cell in row.solvers.items():
            means[solver] = means.get(solver, 0.0) + cell.improvement
            counts[solver] = counts.get(solver, 0) + 1
    return {solver: means[solver] / counts[solver] for solver in means}
