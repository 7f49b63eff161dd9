"""Typed solver event stream: what happened, in order, machine-readable.

The solvers emit a small vocabulary of frozen dataclass events instead
of ad-hoc callbacks:

* :class:`IterationEvent` - one Burkard iteration / FM pass / KL outer
  loop / annealing temperature step, with the incumbent trajectory,
* :class:`RestartEvent` - one multistart restart boundary,
* :class:`FallbackEvent` - one failed (or skipped) rung try of a
  fallback ladder (:class:`~repro.runtime.supervisor.RungTry`), or one
  failed worker-pool task,
* :class:`CheckpointEvent` - one checkpoint file write (or salvage of a
  damaged one),
* :class:`TaskRetryEvent` - one failed pool-task attempt that will be
  retried with backoff,
* :class:`QuarantineEvent` - one pool task given up on after exhausting
  its retry budget (the poison-task record, with the payload digest),
* :class:`IntegrityEvent` - one worker result rejected by the parent's
  integrity gate before acceptance,
* :class:`ProgressEvent` - one periodic batch-progress heartbeat from a
  running worker pool (rows done / running / ETA),
* :class:`ServiceRequestEvent` - one admission decision in the
  partitioning service (cache hit, coalesce, enqueue, or load-shed).

Every event serialises (:func:`event_to_dict`) to a JSONL line tagged
``type: "event"`` and ``schema: EVENT_SCHEMA_VERSION``; the required
fields per kind live in :data:`EVENT_SCHEMA` and are enforced by
:func:`validate_trace_line` (used by ``scripts/check_trace.py``, the CI
smoke job, and the unit tests).  Schema evolution policy is documented
in ``docs/OBSERVABILITY.md``.

Sinks are anything with an ``emit(event)`` method; :class:`EventLog`
collects in memory (tests, traceview summaries) and
:class:`JsonlEventSink` streams to disk as events happen (so a killed
run still leaves a readable prefix).
"""

from __future__ import annotations

import json
from dataclasses import MISSING, asdict, dataclass, fields
from pathlib import Path
from typing import Any, Dict, List, Optional, Tuple

EVENT_SCHEMA_VERSION = 1
"""Bumped only when a field is removed or retyped; additions are free."""


@dataclass(frozen=True)
class IterationEvent:
    """One outer-loop step of any iterative solver.

    ``iteration`` counts from 1; ``cost`` is the step's own figure of
    merit (penalized cost for QBP, pass cost for GFM/GKL, sweep cost for
    annealing); ``best_cost`` tracks the incumbent by the same measure.
    ``best_feasible_cost`` is ``None`` until a fully feasible incumbent
    exists.
    """

    solver: str
    iteration: int
    cost: float
    best_cost: float
    best_feasible_cost: Optional[float] = None
    improved: bool = False
    worker: Optional[int] = None
    """Pool worker-task id on events merged from a parallel run."""

    kind = "iteration"


@dataclass(frozen=True)
class RestartEvent:
    """One restart boundary in :func:`~repro.solvers.burkard.solve_qbp_multistart`."""

    solver: str
    index: int
    restarts: int
    best_cost: float
    best_feasible_cost: Optional[float] = None
    stop_reason: str = "completed"
    worker: Optional[int] = None

    kind = "restart"


@dataclass(frozen=True)
class FallbackEvent:
    """One non-ok rung try of a fallback ladder."""

    ladder: str
    rung: str
    try_index: int
    status: str
    """``error | timeout | skipped`` (ok tries emit no event)."""
    elapsed_seconds: float
    error: Optional[str] = None
    worker: Optional[int] = None

    kind = "fallback"


@dataclass(frozen=True)
class CheckpointEvent:
    """One checkpoint snapshot written to disk (or recovered from it).

    ``status`` is ``"saved"`` for ordinary writes; the torn-file recovery
    path emits ``"corrupt"`` (the primary file was damaged) followed by
    ``"salvaged"`` (the backup stood in) so an audit can see exactly
    which snapshot a resume actually used.
    """

    label: str
    iteration: int
    path: str
    bytes: int
    worker: Optional[int] = None
    status: str = "saved"

    kind = "checkpoint"


@dataclass(frozen=True)
class TaskRetryEvent:
    """One failed pool-task attempt about to be retried.

    ``attempt`` counts from 0; ``delay_seconds`` is the backoff (with
    deterministic jitter) the pool waits before redispatching;
    ``failure_kind`` is the :class:`repro.parallel.pool.TaskFailure`
    kind that triggered the retry (``error | crash | hang | integrity``).
    """

    pool: str
    task: int
    attempt: int
    max_attempts: int
    failure_kind: str
    delay_seconds: float
    error: Optional[str] = None
    worker: Optional[int] = None

    kind = "retry"


@dataclass(frozen=True)
class QuarantineEvent:
    """One pool task abandoned after exhausting its retry budget.

    The payload digest identifies the poison payload across runs without
    shipping the payload itself into the event stream.
    """

    pool: str
    task: int
    attempts: int
    payload_digest: str
    failure_kind: str
    error: Optional[str] = None
    worker: Optional[int] = None

    kind = "quarantine"


@dataclass(frozen=True)
class IntegrityEvent:
    """One worker result rejected by the parent-side integrity gate."""

    pool: str
    task: int
    attempt: int
    reason: str
    worker: Optional[int] = None

    kind = "integrity"


@dataclass(frozen=True)
class ProgressEvent:
    """One periodic batch-progress heartbeat from a worker pool.

    Emitted by :class:`~repro.parallel.pool.WorkerPool` while a batch
    runs (throttled; see ``pool.py``), never from workers themselves.
    ``done`` counts settled tasks (successes *and* final failures),
    ``failed`` the final failures among them; ``eta_seconds`` is a naive
    completed-rate extrapolation and is ``None`` until the first task
    settles.  Rendered live by
    :class:`~repro.obs.progress.ProgressReporter` under ``--progress``.
    """

    pool: str
    done: int
    total: int
    running: int = 0
    failed: int = 0
    elapsed_seconds: float = 0.0
    eta_seconds: Optional[float] = None
    worker: Optional[int] = None

    kind = "progress"


@dataclass(frozen=True)
class ServiceRequestEvent:
    """One admission decision in the partitioning service.

    ``status`` records what the service did with the request:
    ``cached`` (served from the content-addressed result cache),
    ``coalesced`` (attached to an in-flight identical solve),
    ``queued`` (a fresh job entered the queue), or ``rejected``
    (load-shed by the bounded queue - the 429 path).  ``digest`` is the
    request's content address, so a trace can be joined against the
    cache spill file and the run ledger.
    """

    digest: str
    solver: str
    status: str
    queue_depth: int = 0
    job_id: Optional[str] = None
    worker: Optional[int] = None

    kind = "service"


EVENT_TYPES = (
    IterationEvent,
    RestartEvent,
    FallbackEvent,
    CheckpointEvent,
    TaskRetryEvent,
    QuarantineEvent,
    IntegrityEvent,
    ProgressEvent,
    ServiceRequestEvent,
)

EVENT_SCHEMA: Dict[str, Tuple[str, ...]] = {
    cls.kind: tuple(f.name for f in fields(cls)) for cls in EVENT_TYPES
}
"""Per-kind field lists; the contract ``validate_trace_line`` enforces."""

_REQUIRED: Dict[str, Tuple[str, ...]] = {
    cls.kind: tuple(f.name for f in fields(cls) if f.default is MISSING)
    for cls in EVENT_TYPES
}
"""Fields with no default: every serialized event must carry them."""


_EVENT_BY_KIND = {cls.kind: cls for cls in EVENT_TYPES}


def event_to_dict(event) -> Dict[str, Any]:
    """Serialise ``event`` to its JSONL line payload."""
    payload = {"type": "event", "schema": EVENT_SCHEMA_VERSION, "event": event.kind}
    payload.update(asdict(event))
    return payload


def event_from_dict(payload: Dict[str, Any]):
    """Rebuild the typed event a :func:`event_to_dict` payload came from.

    Unknown keys are dropped (the schema tolerates additions), missing
    optional fields take their defaults; a missing required field or an
    unknown kind raises ``ValueError``.  Used by the parallel merge
    layer to re-emit events captured in worker processes.
    """
    cls = _EVENT_BY_KIND.get(payload.get("event"))
    if cls is None:
        raise ValueError(
            f"unknown event kind {payload.get('event')!r}; "
            f"expected one of {sorted(_EVENT_BY_KIND)}"
        )
    kwargs = {f.name: payload[f.name] for f in fields(cls) if f.name in payload}
    missing = [f for f in _REQUIRED[cls.kind] if f not in kwargs]
    if missing:
        raise ValueError(f"{cls.kind} event payload missing fields {missing}")
    return cls(**kwargs)


def validate_trace_line(line) -> Dict[str, Any]:
    """Validate one trace record; returns it parsed, raises ``ValueError``.

    ``line`` may be a raw JSONL string or an already-parsed dict.
    Accepts the three record types a trace JSONL file may contain:
    ``type: "meta"`` (one file-level header carrying the tracer's
    wall-clock epoch, see :mod:`repro.obs.trace`), ``type: "span"``
    (ibid.), and ``type: "event"`` (this module).  Unknown extra keys
    are tolerated on events - the schema version only bumps on removals
    - but missing required fields, unknown kinds, and malformed timing
    are errors.
    """
    if isinstance(line, (str, bytes)):
        try:
            line = json.loads(line)
        except ValueError as exc:
            raise ValueError(f"trace line is not valid JSON: {exc}") from exc
    if not isinstance(line, dict):
        raise ValueError(f"trace line must be a JSON object, got {type(line).__name__}")
    kind = line.get("type")
    if kind == "meta":
        epoch = line.get("epoch_unix")
        if not isinstance(epoch, (int, float)) or epoch < 0:
            raise ValueError(
                f"meta line 'epoch_unix' must be a non-negative number: {line}"
            )
        return line
    if kind == "span":
        for key in ("name", "id", "start", "wall", "cpu"):
            if key not in line:
                raise ValueError(f"span line missing {key!r}: {line}")
        if not isinstance(line["name"], str) or not line["name"]:
            raise ValueError(f"span name must be a non-empty string: {line}")
        for key in ("start", "wall", "cpu"):
            if not isinstance(line[key], (int, float)) or line[key] < 0:
                raise ValueError(f"span {key!r} must be a non-negative number: {line}")
        return line
    if kind == "event":
        event = line.get("event")
        if event not in EVENT_SCHEMA:
            raise ValueError(
                f"unknown event kind {event!r}; expected one of {sorted(EVENT_SCHEMA)}"
            )
        if not isinstance(line.get("schema"), int):
            raise ValueError(f"event line missing integer 'schema': {line}")
        if line["schema"] > EVENT_SCHEMA_VERSION:
            raise ValueError(
                f"event schema {line['schema']} is newer than supported "
                f"{EVENT_SCHEMA_VERSION}"
            )
        missing = [f for f in _REQUIRED[event] if f not in line]
        if missing:
            raise ValueError(f"{event} event missing fields {missing}: {line}")
        return line
    raise ValueError(f"trace line has unknown type {kind!r}: {line}")


class EventLog:
    """In-memory sink: keeps every event, filterable by kind."""

    def __init__(self) -> None:
        self.events: List[Any] = []

    def emit(self, event) -> None:
        """Append ``event`` to the log."""
        self.events.append(event)

    def of_kind(self, kind: str) -> List[Any]:
        """Events whose ``kind`` matches (e.g. ``"iteration"``)."""
        return [e for e in self.events if e.kind == kind]

    def __len__(self) -> int:
        return len(self.events)

    def __iter__(self):
        return iter(self.events)


class JsonlEventSink:
    """Streaming sink: one JSON line per event, flushed eagerly."""

    def __init__(self, path) -> None:
        self.path = Path(path)
        self.path.parent.mkdir(parents=True, exist_ok=True)
        self._fh = open(self.path, "w", encoding="utf-8")
        self.count = 0

    def emit(self, event) -> None:
        """Write ``event`` as one JSONL line and flush."""
        self._fh.write(json.dumps(event_to_dict(event), sort_keys=True) + "\n")
        self._fh.flush()
        self.count += 1

    def close(self) -> None:
        """Close the underlying file (idempotent)."""
        if not self._fh.closed:
            self._fh.close()

    def __enter__(self) -> "JsonlEventSink":
        return self

    def __exit__(self, *exc) -> None:
        self.close()
