"""Parallel execution subsystem: process pools, seed streams, telemetry merge.

Three cooperating pieces (see ``docs/PARALLEL.md``):

* :mod:`repro.parallel.seeds` - deterministic per-task seed streams, so
  a fanned-out run selects the bit-identical best result as the serial
  run for the same master seed,
* :mod:`repro.parallel.pool` - the :class:`WorkerPool` abstraction: a
  self-healing process-per-task supervisor (heartbeat hang detection,
  crash isolation, an integrity gate on every result) with a serial
  in-process fallback (always used for ``workers=1``, for platforms
  without ``fork``, and whenever a task carries process-local state
  such as an active call-ordered fault plan),
* :mod:`repro.parallel.retry` - the :class:`RetryPolicy`: exponential
  backoff with deterministic jitter and poison-task quarantine (see
  ``docs/ROBUSTNESS.md``),
* :mod:`repro.parallel.merge` - folds per-worker telemetry (span lists,
  event streams, metric snapshots) back into the parent
  :class:`~repro.obs.telemetry.Telemetry` with worker-prefixed ids, so
  ``repro.tools.traceview`` and ``scripts/check_trace.py`` consume a
  merged multi-process trace unchanged in shape.

Consumers: ``repro.solvers.burkard.solve_qbp_multistart`` fans restarts
out, ``repro.eval.harness.run_table`` fans circuit rows out, and both
CLIs expose ``--workers``.
"""

from repro.parallel.merge import (
    capture_worker_dump,
    merge_metric_snapshots,
    merge_snapshot_into,
    merge_worker_dump,
)
from repro.parallel.pool import (
    DEFAULT_TIMEOUT_ENV,
    DEFAULT_WORKERS_ENV,
    TaskFailure,
    TaskOutcome,
    WorkerContext,
    WorkerPool,
    resolve_task_timeout,
    resolve_workers,
    supports_process_pool,
)
from repro.parallel.retry import (
    DEFAULT_RETRIES_ENV,
    RETRYABLE_KINDS,
    IntegrityError,
    RetryPolicy,
    payload_digest,
)
from repro.parallel.seeds import multistart_seeds, seed_stream

__all__ = [
    "DEFAULT_RETRIES_ENV",
    "DEFAULT_TIMEOUT_ENV",
    "DEFAULT_WORKERS_ENV",
    "IntegrityError",
    "RETRYABLE_KINDS",
    "RetryPolicy",
    "TaskFailure",
    "TaskOutcome",
    "WorkerContext",
    "WorkerPool",
    "capture_worker_dump",
    "merge_metric_snapshots",
    "merge_snapshot_into",
    "merge_worker_dump",
    "multistart_seeds",
    "payload_digest",
    "resolve_task_timeout",
    "resolve_workers",
    "seed_stream",
    "supports_process_pool",
]
