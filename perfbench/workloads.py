"""The benchmark's workloads: instance generation, the timed unit, checks.

Each workload builds its instances from the workload seed in
:meth:`setup`, runs one deterministic *unit* of work through the
library's public entry points in :meth:`unit`, and verifies the outputs
of a run's units in :meth:`check`.  ``run.py`` repeats units for the
timed phase and reports medians; see ``NOTES.md`` for why each workload
exists.
"""

from __future__ import annotations

import contextlib
import json
import statistics
import time
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Tuple

from repro.core.assignment import Assignment
from repro.core.constraints import check_feasibility
from repro.core.objective import ObjectiveEvaluator
from repro.eval.harness import run_table, shared_initial_solution
from repro.eval.paper_data import QBP_ITERATIONS
from repro.eval.workloads import build_workload, workload_names
from repro.netlist.io import circuit_to_dict
from repro.pipeline import get_solver
from repro.pipeline.core import SolvePipeline
from repro.runtime.budget import STOP_COMPLETED, STOP_STALLED, Budget
from repro.service.jobs import QueueClosedError, QueueFullError
from repro.service.request import DEFAULT_CAPACITY_SLACK, SolveRequest
from repro.service.server import PartitionService, ServiceExecutionError

EXPERIMENT_SEED = 0
"""Solver seed for every solve: ``python -m repro.eval.run``'s default."""

SOLVERS = ("qbp", "gfm", "gkl")
OK_STOPS = (STOP_COMPLETED, STOP_STALLED)

Span = Callable[[str], contextlib.AbstractContextManager]


def no_span(name: str):
    return contextlib.nullcontext()


@dataclass
class UnitResult:
    """One timed unit: the user-visible numbers plus what to check."""

    started: float
    """``time.perf_counter()`` when the timed span began."""
    wall_s: float
    cpu_s: float
    phases: Dict[str, float]
    """The paper's ``bootstrap_s``/``qbp_s``/``gfm_s``/``gkl_s`` columns."""
    costs: Dict[str, float]
    """``qbp_cost``/``gfm_cost``/``gkl_cost`` for this unit."""
    extra: Dict[str, float] = field(default_factory=dict)
    """Workload-specific numbers, e.g. the service's ``solve_p50_ms``."""
    attempted: int = 0
    failed: int = 0
    outputs: list = field(default_factory=list)
    """Raw outputs that :meth:`check` verifies after the timed phase."""


class PipelineCapture:
    """Keeps every ``SolvePipeline.run`` result so table outputs can be checked.

    ``run_table`` rows carry costs but no assignments; this records each
    run's problem, start and outcome (one list append per solve).
    """

    def __init__(self) -> None:
        self.runs: List[tuple] = []
        self._original = None

    def install(self) -> None:
        original = self._original = SolvePipeline.__dict__["run"]
        runs = self.runs

        def run(pipeline, solver, problem, **kwargs):
            result = original(pipeline, solver, problem, **kwargs)
            runs.append((problem, kwargs.get("initial"), result))
            return result

        SolvePipeline.run = run

    def uninstall(self) -> None:
        if self._original is not None:
            SolvePipeline.run = self._original
            self._original = None


def _check_assignment(problem, assignment, reported: float, where: str) -> List[str]:
    problems = []
    report = check_feasibility(problem, assignment)
    if not report.feasible:
        problems.append(f"{where}: infeasible ({report.summary()})")
    cost = ObjectiveEvaluator(problem).cost(assignment)
    if reported != cost:
        problems.append(f"{where}: reported cost {reported!r} != evaluated {cost!r}")
    return problems


class TableWorkload:
    """The paper's Table II/III protocol on one circuit twin.

    Exactly what ``python -m repro.eval.run --table T --circuits C
    --scale S --seed 0`` runs for that circuit: the shared bootstrap
    (``shared_initial_solution``) then ``run_table`` with QBP at 100
    iterations and GKL cut off at 6, under one unbounded ``Budget``.
    ``baseline_repeats`` extra back-to-back GFM+GKL runs from the same
    start make ``gfm_s``/``gkl_s`` a median where they are sub-second.
    """

    def __init__(
        self,
        name: str,
        *,
        table: int,
        circuit: str,
        scale: float,
        baseline_repeats: int = 0,
        iterations: int = QBP_ITERATIONS,
    ) -> None:
        self.name = name
        self.table = table
        self.circuit = circuit
        self.scale = scale
        self.baseline_repeats = baseline_repeats
        self.iterations = iterations
        self.capture = PipelineCapture()
        self.workload = None

    def setup(self, seed: int) -> Tuple[float, float, float]:
        """Build the instance; returns the stamps (start, built, end)."""
        t0 = time.perf_counter()
        self.workload = build_workload(self.circuit, scale=self.scale, seed=seed)
        self.seed = seed
        t1 = time.perf_counter()
        return t0, t1, t1

    def start(self) -> None:
        self.capture.install()

    def stop(self) -> None:
        self.capture.uninstall()

    def telemetry(self) -> list:
        return []

    def warm_up(self) -> None:
        """A small run down the same path: imports, first-call costs."""
        small = build_workload(self.circuit, scale=0.1, seed=self.seed)
        initial = shared_initial_solution(small, seed=EXPERIMENT_SEED)
        run_table(
            self.table,
            scale=0.1,
            circuits=(self.circuit,),
            seed=EXPERIMENT_SEED,
            workloads={self.circuit: small},
            initials={self.circuit: initial},
            qbp_iterations=5,
            workers=1,
        )
        self.capture.runs.clear()

    def _table(self, initial, budget, methods=None):
        return run_table(
            self.table,
            scale=self.scale,
            methods=methods,
            qbp_iterations=self.iterations,
            circuits=(self.circuit,),
            seed=EXPERIMENT_SEED,
            workloads={self.circuit: self.workload},
            initials={self.circuit: initial},
            budget=budget,
            workers=1,
        )

    def unit(self, span: Span = no_span) -> UnitResult:
        self.capture.runs.clear()
        budget = Budget()
        cpu0 = time.process_time()
        t0 = time.perf_counter()
        initial = shared_initial_solution(
            self.workload, seed=EXPERIMENT_SEED, budget=budget
        )
        t1 = time.perf_counter()
        with span("harness"):
            rows = self._table(initial, budget)
        t2 = time.perf_counter()
        cpu = time.process_time() - cpu0
        runs = [list(self.capture.runs)]
        baseline_rows = []
        for _ in range(self.baseline_repeats):
            self.capture.runs.clear()
            baseline_rows.append(self._table(initial, Budget(), methods=("gfm", "gkl")))
            runs.append(list(self.capture.runs))
        row = rows[0]
        phases = {"bootstrap_s": t1 - t0, "qbp_s": row.solvers["qbp"].cpu}
        for solver in ("gfm", "gkl"):
            samples = [row.solvers[solver].cpu]
            samples += [extra[0].solvers[solver].cpu for extra in baseline_rows]
            phases[f"{solver}_s"] = statistics.median(samples)
        attempted = sum(len(batch) for batch in runs)
        failed = sum(
            1
            for batch in runs
            for _, _, run in batch
            if run.outcome.stop_reason not in OK_STOPS or run.outcome.solution is None
        )
        return UnitResult(
            started=t0,
            wall_s=t2 - t0,
            cpu_s=cpu,
            phases=phases,
            costs={f"{s}_cost": row.solvers[s].cost for s in SOLVERS},
            attempted=attempted,
            failed=failed,
            outputs=[initial, [rows] + baseline_rows, runs],
        )

    def check(self, units: List[UnitResult]) -> List[str]:
        problems = []
        for unit in units:
            problems += self._check_unit(unit)
        return problems

    def _check_unit(self, result: UnitResult) -> List[str]:
        initial, tables, runs = result.outputs
        w = self.workload
        problems = []
        report = check_feasibility(w.problem, initial)
        if not report.feasible:
            problems.append(f"shared start infeasible ({report.summary()})")
        problem = w.problem if self.table == 3 else w.problem_no_timing
        start_cost = ObjectiveEvaluator(problem).cost(initial)
        for rows, batch in zip(tables, runs):
            if len(rows) != 1 or rows[0].stop_reason != STOP_COMPLETED:
                problems.append(f"table run did not complete: {rows!r}")
                continue
            row = rows[0]
            if not row.all_feasible:
                problems.append(f"row for {row.name} reports infeasible output")
            if set(row.solvers) != {run.solver for _, _, run in batch}:
                problems.append("captured solves do not match the row's columns")
                continue
            for solved_problem, start, run in batch:
                if solved_problem is not problem or start is None:
                    problems.append(f"{run.solver} ran on the wrong problem/start")
                    continue
                # The harness reports the start when a solve returns no
                # assignment (a failed operation, counted in unit()), and
                # min(final, start) for solvers that never worsen it.
                assignment = run.outcome.solution or start
                reported = row.solvers[run.solver].cost
                if get_solver(run.solver).recompute_report_cost:
                    if ObjectiveEvaluator(problem).cost(assignment) > start_cost:
                        assignment = start
                problems += _check_assignment(
                    problem, assignment, reported, f"{self.name}/{run.solver}"
                )
            for solver in ("gfm", "gkl"):
                if row.solvers[solver].cost != result.costs[f"{solver}_cost"]:
                    problems.append(f"{solver} cost differs between repeats")
        return problems


class ServiceWorkload:
    """One closed-loop client driving the in-process ``PartitionService``.

    Seven Table I twins at scale 0.1 (no timing document) times three
    solvers give 21 requests; the client sends all 21, then all 21
    again, so the second pass is served from the result cache.  One
    executor thread, ``workers=1`` (the serial multistart path), no
    deadline and no HTTP.
    """

    REQUEST_CONFIGS = (("qbp", {"restarts": 2}), ("gfm", {}), ("gkl", {}))
    SCALE = 0.1

    def __init__(self, name: str, *, circuits=None, iterations=None):
        self.name = name
        self.circuits = tuple(circuits or workload_names())
        self.iterations = iterations
        self.requests: List[SolveRequest] = []
        self.service: Optional[PartitionService] = None

    def _request(self, doc, solver, config, seed) -> SolveRequest:
        config = dict(config)
        if self.iterations is not None and solver == "qbp":
            config["iterations"] = self.iterations
        return SolveRequest.from_dict(
            {"circuit": doc, "grid": [4, 4], "solver": solver, "config": config,
             "seed": seed}
        )

    def setup(self, seed: int) -> Tuple[float, float, float]:
        """Build instances, requests and the service.

        Returns the stamps (start, requests built, end); shutting down
        the service of an earlier set-up comes before the start.
        """
        if self.service is not None:
            self.service.shutdown()
        t0 = time.perf_counter()
        requests = []
        for circuit in self.circuits:
            twin = build_workload(
                circuit, scale=self.SCALE, seed=seed, capacity_slack=DEFAULT_CAPACITY_SLACK
            )
            doc = circuit_to_dict(twin.circuit)
            for solver, config in self.REQUEST_CONFIGS:
                requests.append(self._request(doc, solver, config, EXPERIMENT_SEED))
        built = time.perf_counter()
        self.requests = requests
        self.seed = seed
        self.service = PartitionService(
            executor_threads=1,
            workers=1,
            queue_depth=len(requests),
            cache_capacity=2 * len(requests),
        ).start()
        return t0, built, time.perf_counter()

    def telemetry(self) -> list:
        """Telemetry the program reports into besides the ambient one."""
        return [self.service.telemetry]

    def start(self) -> None:
        pass

    def stop(self) -> None:
        if self.service is not None:
            self.service.shutdown()
            self.service = None

    def warm_up(self) -> None:
        """Two small solves through the same service, then an empty cache."""
        small = build_workload(
            self.circuits[0], scale=self.SCALE, seed=self.seed + 1,
            capacity_slack=DEFAULT_CAPACITY_SLACK,
        )
        doc = circuit_to_dict(small.circuit)
        for solver, config in (("qbp", {"iterations": 5}), ("gfm", {})):
            self.service.solve(self._request(doc, solver, config, EXPERIMENT_SEED))
        self.service.cache.clear()

    def _send(self, request, span: Span) -> Tuple[Optional[dict], float]:
        t0 = time.perf_counter()
        try:
            with span("service.solve"):
                payload = self.service.solve(request)
        except (ServiceExecutionError, QueueFullError, QueueClosedError):
            payload = None
        return payload, time.perf_counter() - t0

    def unit(self, span: Span = no_span) -> UnitResult:
        service = self.service
        service.cache.clear()
        hits_before = service.cache.stats()["hits"]
        cpu0 = time.process_time()
        t0 = time.perf_counter()
        first = [self._send(request, span) for request in self.requests]
        second = [self._send(request, span) for request in self.requests]
        wall = time.perf_counter() - t0
        cpu = time.process_time() - cpu0
        hits = service.cache.stats()["hits"] - hits_before

        costs = {
            f"{solver}_cost": sum(
                payload["cost"]
                for request, (payload, _) in zip(self.requests, first)
                if request.solver == solver and payload is not None
            )
            for solver in SOLVERS
        }
        failed = sum(
            1
            for payload, _ in first + second
            if payload is None or payload["stop_reason"] not in OK_STOPS
        )
        solved = [latency for payload, latency in first if payload is not None]
        return UnitResult(
            started=t0,
            wall_s=wall,
            cpu_s=cpu,
            phases={},
            extra={"solve_p50_ms": 1000 * statistics.median(solved)} if solved else {},
            costs=costs,
            attempted=len(first) + len(second),
            failed=failed,
            outputs=[first, second, hits],
        )

    def check(self, units: List[UnitResult]) -> List[str]:
        """Check every unit; hits against the next unit's fresh solves.

        The cache hands back the very payload the solve stored, so a hit
        is compared with the same request solved afresh: each unit
        starts from an empty cache, so unit k+1's first pass re-solves
        what unit k's hits served.  ``run.py`` runs at least two units.
        """
        problems = []
        previous = None
        for unit in units:
            first, second, hits = unit.outputs
            if hits != len(self.requests):
                problems.append(f"{hits} cache hits, expected {len(self.requests)}")
            fresh = [_comparable(payload) for payload, _ in first]
            served = [_comparable(payload) for payload, _ in second]
            if previous is not None and fresh != previous:
                problems.append("a cache hit differs from solving its request afresh")
            if served != fresh:
                problems.append("a cache hit differs from the solve that filled it")
            previous = served
            problems += self._check_payloads(first)
        return problems

    def _check_payloads(self, first) -> List[str]:
        problems = []
        for request, (payload, _) in zip(self.requests, first):
            where = f"{self.name}/{request.solver}/{request.digest()[:8]}"
            if payload is None:
                continue  # a failed request, counted in unit()
            if payload["digest"] != request.digest() or not payload["feasible"]:
                problems.append(f"{where}: wrong digest or infeasible payload")
            problem = request.build_problem()
            assignment = Assignment(payload["assignment"], payload["num_partitions"])
            problems += _check_assignment(problem, assignment, payload["cost"], where)
        return problems


def _comparable(payload: Optional[dict]) -> Optional[str]:
    """A payload as sorted JSON without its run time, or ``None``."""
    if payload is None:
        return None
    return json.dumps(
        {k: v for k, v in payload.items() if k != "elapsed_seconds"}, sort_keys=True
    )


def make_workload(name: str, *, tiny: bool = False):
    """The named workload; ``tiny`` shrinks it for the self-test."""
    if name == "table2-full":
        return TableWorkload(
            name, table=2, circuit="cktb", scale=0.1 if tiny else 1.0,
            iterations=5 if tiny else QBP_ITERATIONS,
        )
    if name == "table3-repair":
        return TableWorkload(
            name, table=3, circuit="cktb", scale=0.1 if tiny else 0.25,
            baseline_repeats=1 if tiny else 4,
            iterations=5 if tiny else QBP_ITERATIONS,
        )
    if name == "service-small":
        if tiny:
            return ServiceWorkload(name, circuits=("cktb",), iterations=5)
        return ServiceWorkload(name)
    raise KeyError(name)


WORKLOADS = ("table2-full", "table3-repair", "service-small")
