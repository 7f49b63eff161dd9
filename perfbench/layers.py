"""Outside-in layer tracing for the benchmark's traced runs.

The traced run times calls into the repository's public functions from
the benchmark's own code: :class:`LayerTracer` swaps each entry point for
a thin wrapper at every name the program resolves it through (a module
global, a re-export, a class attribute), records one span per call, and
puts the originals back afterwards.  Nothing under ``src/`` changes.

Spans live in memory on thread-local stacks as plain lists
``[layer, start, end, parent, job, failed, minflt]``.  A solve the
service executes on its executor thread is parented to the client call
that is waiting for it, so one request's spans share the job id and
self time adds up along a single timeline.
"""

from __future__ import annotations

import contextlib
import functools
import json
import resource
import sys
import threading
import time
from collections import defaultdict
from typing import Callable, Dict, List, Optional

LAYER, START, END, PARENT, JOB, FAILED, MINFLT = range(7)

ROOT = "bench"
"""Span around the traced timed phase; its self time is unattributed."""

DELTA_METHODS = (
    "__init__",
    "reset",
    "in_rows",
    "out_rows",
    "marginal_rows",
    "all_move_deltas",
    "move_deltas",
    "scan_move_deltas",
    "capacity_mask",
    "feasible_move_mask",
    "best_move",
    "current_cost",
    "assignment",
    "apply_move",
    "apply_swap",
    "swap_delta_matrix",
    "swap_capacity_mask",
    "swap_timing_mask",
    "exact_swap_feasible",
    "audit",
)
"""Public ``DeltaCache`` methods traced as the move-kernel layer.

``DeltaCache.eta`` is left out on purpose: its only caller is
``IterationState.eta``, so STEP 3 is attributed whole to ``eta``.
"""

EVALUATOR_METHODS = (
    "linear_cost",
    "quadratic_cost",
    "cost",
    "breakdown",
    "penalized_cost",
    "timing_violation_count",
    "move_delta",
    "swap_delta",
)

COUNTERS = (
    "solver.iterations",
    "supervisor.fallbacks",
    "delta.moves",
    "delta.swaps",
    "delta.row_refreshes",
    "delta.timing_row_refreshes",
    "delta.full_rebuilds",
    "delta.eta_evals",
)
"""Program counters read through enabled ``repro.obs`` telemetry."""

GAP_RUNGS = ("trust", "timing", "plain")


def _minflt() -> int:
    return resource.getrusage(resource.RUSAGE_THREAD).ru_minflt


def _gap_rung(args, kwargs) -> str:
    if kwargs.get("allowed_mask") is not None:
        return "gap.trust"
    if kwargs.get("timing") is not None:
        return "gap.timing"
    return "gap.plain"


class LayerTracer:
    """Wraps the layers' entry points and records one span per call."""

    def __init__(self) -> None:
        self._local = threading.local()
        self._lists: List[list] = []
        self._lists_lock = threading.Lock()
        self._patches: List[tuple] = []
        self._links: Dict[int, list] = {}
        self.counts: Dict[str, float] = defaultdict(float)
        self.root: Optional[list] = None

    # ------------------------------------------------------------------
    # Span recording
    # ------------------------------------------------------------------
    def _thread_state(self):
        local = self._local
        if not hasattr(local, "stack"):
            local.stack = []
            local.spans = []
            with self._lists_lock:
                self._lists.append(local.spans)
        return local.stack, local.spans

    def _open(self, layer: str, minflt: bool, parent=None) -> list:
        stack, spans = self._thread_state()
        if parent is None and stack:
            parent = stack[-1]
        span = [layer, 0.0, 0.0, parent, None, False, _minflt() if minflt else 0]
        stack.append(span)
        spans.append(span)
        span[START] = time.perf_counter()
        return span

    def _close(self, span: list, minflt: bool) -> None:
        span[END] = time.perf_counter()
        if minflt:
            span[MINFLT] = _minflt() - span[MINFLT]
        self._local.stack.pop()

    @contextlib.contextmanager
    def span(self, layer: str):
        """A span around a call made from the benchmark's own code."""
        span = self._open(layer, False)
        try:
            yield span
        except BaseException:
            span[FAILED] = True
            raise
        finally:
            self._close(span, False)

    # ------------------------------------------------------------------
    # Wrapping
    # ------------------------------------------------------------------
    def wrap(
        self,
        fn: Callable,
        layer,
        *,
        minflt: bool = False,
        failed: Optional[Callable] = None,
        after: Optional[Callable] = None,
        parent: Optional[Callable] = None,
    ) -> Callable:
        """A span-recording wrapper around ``fn``.

        ``layer`` is a name or a ``(args, kwargs) -> name`` function;
        ``failed(result)`` marks a returned value as a failed call (a
        raise always is one); ``after(span, args, result)`` runs after a
        successful call; ``parent(args)`` names the parent span of a call
        made on another thread than its caller's.
        """
        tracer = self
        name_of = layer if callable(layer) else None

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            link = parent(args) if parent is not None else None
            span = tracer._open(
                name_of(args, kwargs) if name_of else layer, minflt, link
            )
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                span[FAILED] = True
                raise
            finally:
                tracer._close(span, minflt)
            if failed is not None and failed(result):
                span[FAILED] = True
            if after is not None:
                after(span, args, result)
            return result

        return traced

    def patch_function(self, original: Callable, wrapper: Callable) -> None:
        """Rebind ``original`` to ``wrapper`` in every loaded ``repro`` module.

        Covers the defining module, re-exports and ``from x import f``
        bindings alike; lazy ``from x import f`` inside a function body
        reads the defining module at call time, so it is covered too.
        """
        replaced = 0
        for name, module in list(sys.modules.items()):
            if module is None or not name.startswith("repro"):
                continue
            namespace = getattr(module, "__dict__", {})
            for attr, value in list(namespace.items()):
                if value is original:
                    self._patches.append((module, attr, original))
                    setattr(module, attr, wrapper)
                    replaced += 1
        if not replaced:
            raise RuntimeError(f"no binding of {original!r} found to trace")

    def patch_method(self, cls: type, attr: str, wrapper: Callable) -> None:
        self._patches.append((cls, attr, cls.__dict__[attr]))
        setattr(cls, attr, wrapper)

    def restore(self) -> None:
        """Put every original back (reverse order handles re-wraps)."""
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # ------------------------------------------------------------------
    # Service request linkage
    # ------------------------------------------------------------------
    def link_request(self, request) -> None:
        """Parent the executor's solve of ``request`` to the current span."""
        stack, _ = self._thread_state()
        if stack:
            self._links[id(request)] = stack[-1]

    def linked_parent(self, request) -> Optional[list]:
        return self._links.get(id(request))

    # ------------------------------------------------------------------
    # Aggregation
    # ------------------------------------------------------------------
    def all_spans(self) -> List[list]:
        with self._lists_lock:
            return [span for spans in self._lists for span in spans]

    def self_times(self, spans: List[list]) -> Dict[int, float]:
        """Self time per span: its duration minus the union of its children.

        The union (not the sum) keeps a child that started on another
        thread before its sibling ended from being subtracted twice.
        """
        children: Dict[int, List[list]] = defaultdict(list)
        for span in spans:
            if span[PARENT] is not None:
                children[id(span[PARENT])].append(span)
        out: Dict[int, float] = {}
        for span in spans:
            start, end = span[START], span[END]
            covered, cursor = 0.0, start
            for child in sorted(children.get(id(span), ()), key=lambda s: s[START]):
                lo, hi = max(child[START], cursor), min(child[END], end)
                if hi > lo:
                    covered += hi - lo
                    cursor = hi
            out[id(span)] = (end - start) - covered
        return out

    def write_jsonl(self, path, spans: List[list]) -> None:
        """Write the spans (times relative to the root) as JSON lines."""
        index = {id(span): i for i, span in enumerate(spans)}
        origin = self.root[START] if self.root is not None else 0.0

        def job_of(span):
            while span is not None:
                if span[JOB] is not None:
                    return span[JOB]
                span = span[PARENT]
            return None

        with open(path, "w") as fh:
            for i, span in enumerate(spans):
                fh.write(
                    json.dumps(
                        {
                            "id": i,
                            "name": span[LAYER],
                            "start": span[START] - origin,
                            "end": span[END] - origin,
                            "parent": (
                                None
                                if span[PARENT] is None
                                else index.get(id(span[PARENT]))
                            ),
                            "job": job_of(span),
                            "failed": span[FAILED],
                            "minflt": span[MINFLT],
                        }
                    )
                    + "\n"
                )


# ----------------------------------------------------------------------
# The repository's layers
# ----------------------------------------------------------------------
def install(tracer: LayerTracer) -> None:
    """Wrap every traced entry point at the names the program calls."""
    from repro.baselines.gfm import gfm_partition
    from repro.baselines.gkl import gkl_partition
    from repro.core.constraints import check_feasibility
    from repro.core.objective import ObjectiveEvaluator
    from repro.engine.delta import DeltaCache
    from repro.pipeline import initial as pipeline_initial
    from repro.pipeline.core import SolvePipeline
    from repro.service import executor as service_executor
    from repro.service.request import SolveRequest
    from repro.service.server import PartitionService
    from repro.solvers import repair
    from repro.solvers.qbp import bootstrap, iteration, multistart
    from repro.solvers.qbp.formulation import IterationState

    t = tracer
    wrap, patch = t.wrap, t.patch_function

    def count_passes(prefix, moves):
        def after(span, args, result):
            t.counts[f"{prefix}.passes"] += result.passes
            t.counts[f"{prefix}.{moves}"] += result.moves_applied

        return after

    patch(iteration.solve_gap, wrap(iteration.solve_gap, _gap_rung, minflt=True))
    patch(
        repair.repair_feasibility,
        wrap(repair.repair_feasibility, "repair", failed=lambda r: r is None),
    )
    patch(iteration.feasible_merge, wrap(iteration.feasible_merge, "merge"))
    patch(iteration.solve_qbp, wrap(iteration.solve_qbp, "qbp"))
    patch(
        multistart.solve_qbp_multistart,
        wrap(multistart.solve_qbp_multistart, "multistart"),
    )
    patch(
        bootstrap.bootstrap_initial_solution,
        wrap(bootstrap.bootstrap_initial_solution, "bootstrap"),
    )
    for ladder in (
        pipeline_initial.paper_initial_solution,
        pipeline_initial.supervised_initial_solution,
    ):
        patch(ladder, wrap(ladder, "ladder"))
    patch(gfm_partition, wrap(gfm_partition, "gfm", after=count_passes("gfm", "moves")))
    patch(gkl_partition, wrap(gkl_partition, "gkl", after=count_passes("gkl", "swaps")))
    patch(check_feasibility, wrap(check_feasibility, "audit"))
    patch(
        service_executor.execute_request,
        wrap(
            service_executor.execute_request,
            "service.execute",
            parent=lambda args: t.linked_parent(args[0]),
        ),
    )

    t.patch_method(IterationState, "eta", wrap(IterationState.eta, "eta"))
    t.patch_method(SolvePipeline, "run", wrap(SolvePipeline.__dict__["run"], "pipeline"))
    t.patch_method(SolveRequest, "digest", wrap(SolveRequest.digest, "service.digest"))
    for name in DELTA_METHODS:
        t.patch_method(
            DeltaCache, name, wrap(DeltaCache.__dict__[name], "delta", minflt=True)
        )
    for name in EVALUATOR_METHODS:
        t.patch_method(
            ObjectiveEvaluator, name, wrap(ObjectiveEvaluator.__dict__[name], "evaluate")
        )

    def after_admit(span, args, result):
        status, outcome = result
        if status == "cached":
            t.counts["service.hits"] += 1
        elif span[PARENT] is not None:
            span[PARENT][JOB] = outcome.id

    traced_admit = wrap(PartitionService.admit, "service.admit", after=after_admit)

    def admit(service, request):
        # Before the job exists: the executor thread looks this link up
        # to parent its solve to the client call that waits for it.
        t.link_request(request)
        return traced_admit(service, request)

    t.patch_method(PartitionService, "admit", admit)


SELF_TIMED = (
    "bootstrap",
    "ladder",
    "qbp",
    "eta",
    *(f"gap.{rung}" for rung in GAP_RUNGS),
    "repair",
    "merge",
    "evaluate",
    "audit",
    "delta",
    "gfm",
    "gkl",
    "pipeline",
    "harness",
    "multistart",
    "service.admit",
    "service.digest",
    "service.execute",
)
"""Every span name reported as a ``<name>.self_s`` metric."""

SELF_TIME_METRICS = tuple(f"{name}.self_s" for name in SELF_TIMED) + (
    "service.queue_wait_s",
)
"""The metrics that partition the traced wall time with ``trace.unattributed_s``."""


def layer_metrics(tracer: LayerTracer, counters: Dict[str, float]) -> Dict[str, float]:
    """The traced unit's per-layer metrics, by their ``BENCHMARK.json`` names.

    ``run.py`` adds the ones taken outside the traced unit.
    """
    spans = tracer.all_spans()
    selfs = tracer.self_times(spans)
    calls: Dict[str, int] = defaultdict(int)
    failed: Dict[str, int] = defaultdict(int)
    self_s: Dict[str, float] = defaultdict(float)
    wasted: Dict[str, float] = defaultdict(float)
    minflt: Dict[str, int] = defaultdict(int)
    restarts = 0
    for span in spans:
        layer, parent = span[LAYER], span[PARENT]
        family = "gap" if layer.startswith("gap.") else layer
        calls[layer] += 1
        self_s[layer] += selfs[id(span)]
        if span[FAILED]:
            failed[layer] += 1
            wasted[family] += selfs[id(span)]
        if parent is None or parent[LAYER] != layer:
            minflt[family] += span[MINFLT]
        if layer == "qbp" and parent is not None and parent[LAYER] == "multistart":
            restarts += 1

    out: Dict[str, float] = {
        "bootstrap.calls": calls["bootstrap"],
        "bootstrap.reference_fallbacks": failed["bootstrap"],
        "ladder.calls": calls["ladder"],
        "qbp.calls": calls["qbp"],
        "qbp.iterations": counters.get("solver.iterations", 0),
        "eta.calls": calls["eta"],
        "gap.abandoned_s": wasted["gap"],
        "gap.minflt": minflt["gap"],
        "supervisor.fallbacks": counters.get("supervisor.fallbacks", 0),
        "repair.calls": calls["repair"],
        "repair.failed": failed["repair"],
        "repair.wasted_s": wasted["repair"],
        "merge.calls": calls["merge"],
        "evaluate.calls": calls["evaluate"],
        "audit.calls": calls["audit"],
        "delta.calls": calls["delta"],
        "delta.minflt": minflt["delta"],
        "pipeline.calls": calls["pipeline"],
        "multistart.calls": calls["multistart"],
        "multistart.restarts": restarts,
        "service.requests": calls["service.solve"],
        "service.hit_ratio": (
            tracer.counts["service.hits"] / calls["service.solve"]
            if calls["service.solve"]
            else 0.0
        ),
        "service.digest.calls": calls["service.digest"],
        "service.queue_wait_s": self_s["service.solve"],
        "trace.wall_s": tracer.root[END] - tracer.root[START],
        "trace.unattributed_s": self_s[ROOT],
    }
    for rung in GAP_RUNGS:
        out[f"gap.{rung}.calls"] = calls[f"gap.{rung}"]
        out[f"gap.{rung}.failed"] = failed[f"gap.{rung}"]
    for name in COUNTERS:
        if name.startswith("delta."):
            out[name] = counters.get(name, 0)
    for name in ("gfm.passes", "gfm.moves", "gkl.passes", "gkl.swaps"):
        out[name] = tracer.counts[name]
    for name in SELF_TIMED:
        out[f"{name}.self_s"] = self_s[name]
    return out
