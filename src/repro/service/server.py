"""The partitioning service: admission control, HTTP front end, drain.

Two layers, deliberately separable:

* :class:`PartitionService` is the framework-free core - admission
  (cache lookup, coalescing, bounded enqueue), the executor threads,
  metrics, and graceful shutdown.  Tests drive it directly, with no
  sockets.
* The HTTP front end is a stdlib :class:`ThreadingHTTPServer` (no new
  dependencies) translating a small JSON API onto the core::

      POST /v1/solve            solve synchronously; the response body
                                is the service-result-v1 payload
      POST /v1/jobs             submit; 202 with a job handle (200 when
                                the cache already holds the answer)
      GET  /v1/jobs/<id>        job status
      GET  /v1/jobs/<id>/result the result payload (202 while pending)
      GET  /metrics             metrics-snapshot-v1 + cache/queue stats
      GET  /healthz             liveness + drain state

  Backpressure surfaces as ``429 Too Many Requests`` with a
  ``Retry-After`` header; a draining service answers ``503``.

Shutdown follows the repo-wide drain contract
(:mod:`repro.runtime.signals`): the first SIGINT/SIGTERM cancels the
service budget - every in-flight solve notices cooperatively and
returns its incumbent - while the server stops admitting, settles the
queue, and exits 0.  A second signal kills the process the default way.
"""

from __future__ import annotations

import json
import threading
import time
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Any, Dict, Optional, Tuple

from repro._version import __version__
from repro.obs.events import ServiceRequestEvent
from repro.obs.telemetry import Telemetry
from repro.runtime.budget import Budget
from repro.runtime.faults import maybe_fault_task
from repro.runtime.signals import drain_on_signals
from repro.service.cache import ResultCache
from repro.service.executor import ServiceExecutor, cacheable
from repro.service.jobs import (
    DONE,
    FAILED,
    Job,
    JobQueue,
    QueueClosedError,
    QueueFullError,
)
from repro.service.request import BadRequestError, SolveRequest

REJECT_SITE = "service.reject"
"""Task-scoped fault site at admission, hit with the request index.

A ``fail`` rule (``service.reject:fail:tasks=2``) load-sheds that
request exactly as a full queue would: ``service.rejected`` increments
and the HTTP layer answers 429 - chaos coverage for the backpressure
path without having to race a real queue to its depth limit.
"""

RETRY_AFTER_SECONDS = 1.0
"""The hint sent with every 429 (the queue turns over in ~one solve)."""


class ServiceExecutionError(RuntimeError):
    """A job failed inside the executor; carries the job's error string."""


class PartitionService:
    """Admission control + executor threads + metrics, no transport.

    Parameters
    ----------
    queue_depth:
        Bound on queued (not yet running) jobs; admission past it is
        rejected (the 429 path).
    executor_threads:
        Concurrent solves.  Kept small by default - solves are
        CPU-bound, and parallelism *within* a solve belongs to the
        restart fan-out over the worker pool.
    workers:
        Pool processes for requests with ``restarts > 1`` (passed to
        ``solve_qbp_multistart``); ``None`` reads ``REPRO_WORKERS``.
    cache_capacity / spill_path:
        The content-addressed result cache tiers (see
        :mod:`repro.service.cache`).
    default_deadline:
        Applied to requests that carry no ``deadline_seconds``.
    telemetry:
        Defaults to a fresh metrics-only bundle
        (:meth:`~repro.obs.telemetry.Telemetry.metrics_only`), so
        ``/metrics`` always has data while spans and events, which
        nothing in the service reads, are not kept for the life of the
        process; pass an explicit bundle to record them or to share one
        with a host process.
    """

    def __init__(
        self,
        *,
        queue_depth: int = 16,
        executor_threads: int = 2,
        workers: Optional[int] = None,
        cache_capacity: int = 128,
        spill_path: Optional[str] = None,
        default_deadline: Optional[float] = None,
        telemetry: Optional[Telemetry] = None,
    ) -> None:
        self.telemetry = (
            telemetry if telemetry is not None else Telemetry.metrics_only()
        )
        self.budget = Budget()  # unbounded; carries the shared cancel flag
        self.cache = ResultCache(cache_capacity, spill_path=spill_path)
        self.queue = JobQueue(queue_depth)
        self.default_deadline = default_deadline
        self.started_at = time.time()
        self._admissions = 0
        self._admission_lock = threading.Lock()
        self.executor = ServiceExecutor(
            self.queue,
            threads=executor_threads,
            budget=self.budget,
            workers=workers,
            telemetry=self.telemetry,
            on_done=self._on_job_done,
        )

    # ------------------------------------------------------------------
    def start(self) -> "PartitionService":
        self.executor.start()
        return self

    @property
    def draining(self) -> bool:
        return self.queue.closed

    # ------------------------------------------------------------------
    def admit(self, request: SolveRequest) -> Tuple[str, Any]:
        """Admit one request; returns ``(status, payload_or_job)``.

        ``("cached", payload)`` - the content-addressed cache already
        holds the full deterministic answer; ``("coalesced", job)`` -
        attached to an in-flight identical solve; ``("queued", job)`` -
        a fresh job entered the queue.  Raises :class:`QueueFullError`
        (backpressure) or :class:`QueueClosedError` (draining).
        """
        self._count("service.requests")
        with self._admission_lock:
            admission = self._admissions
            self._admissions += 1
        if self.default_deadline is not None and request.deadline_seconds is None:
            request = request.with_transport(deadline_seconds=self.default_deadline)
        digest = request.digest()
        try:
            maybe_fault_task(REJECT_SITE, admission, 0)
        except Exception as exc:
            self._count("service.rejected")
            self._emit(digest, request.solver, "rejected")
            raise QueueFullError(self.queue.depth()) from exc

        cached = self.cache.get(digest)
        if cached is not None:
            self._count("service.cache_hits")
            self._emit(digest, request.solver, "cached")
            return "cached", cached
        self._count("service.cache_misses")

        try:
            job, coalesced = self.queue.submit(request)
        except QueueFullError:
            self._count("service.rejected")
            self._emit(digest, request.solver, "rejected")
            raise
        self._gauge("service.queue_depth", self.queue.depth())
        if coalesced:
            self._count("service.coalesced")
            self._emit(digest, request.solver, "coalesced", job)
            return "coalesced", job
        self._emit(digest, request.solver, "queued", job)
        return "queued", job

    def solve(
        self, request: SolveRequest, *, timeout: Optional[float] = None
    ) -> Dict[str, Any]:
        """Solve synchronously; blocks until the result is available.

        Cache hits return immediately; otherwise the calling thread
        waits on the (possibly shared) job.  Raises
        :class:`ServiceExecutionError` on job failure, ``TimeoutError``
        if ``timeout`` elapses first.
        """
        status, outcome = self.admit(request)
        if status == "cached":
            return outcome
        job: Job = outcome
        if not job.wait(timeout):
            raise TimeoutError(
                f"job {job.id} still {job.state} after {timeout:g}s"
            )
        return self._job_payload(job)

    def job_status(self, job_id: str) -> Optional[Dict[str, Any]]:
        job = self.queue.get(job_id)
        return None if job is None else job.status_dict()

    def job_result(self, job_id: str) -> Optional[Job]:
        return self.queue.get(job_id)

    # ------------------------------------------------------------------
    def metrics(self) -> Dict[str, Any]:
        """The ``/metrics`` document: registry snapshot + service stats."""
        self._gauge("service.queue_depth", self.queue.depth())
        return {
            "snapshot": self.telemetry.metrics_snapshot(),
            "cache": self.cache.stats(),
            "queue": {
                "depth": self.queue.depth(),
                "in_flight": self.queue.in_flight(),
                "max_depth": self.queue.max_depth,
                "draining": self.draining,
            },
            "uptime_seconds": time.time() - self.started_at,
        }

    def health(self) -> Dict[str, Any]:
        """The ``/healthz`` document."""
        return {
            "status": "draining" if self.draining else "ok",
            "version": __version__,
            "queue_depth": self.queue.depth(),
            "in_flight": self.queue.in_flight(),
            "uptime_seconds": time.time() - self.started_at,
        }

    # ------------------------------------------------------------------
    def shutdown(self, *, drain: bool = True, timeout: Optional[float] = 30.0) -> bool:
        """Stop admissions and settle the queue; ``True`` when idle.

        ``drain=True`` lets running jobs finish (they truncate
        cooperatively once :attr:`budget` is cancelled - the signal
        handler does that, or call ``self.budget.cancel()`` yourself);
        ``drain=False`` cancels the budget first so running solves
        return their incumbents immediately.
        """
        if not drain:
            self.budget.cancel()
        self.queue.close()
        idle = self.queue.wait_idle(timeout)
        self.executor.join(timeout=1.0)
        return idle

    # ------------------------------------------------------------------
    def _on_job_done(self, job: Job, payload: Optional[Dict[str, Any]]) -> None:
        if job.state == DONE and payload is not None:
            self._count("service.completed")
            if cacheable(payload):
                self.cache.put(job.digest, payload)
        elif job.state == FAILED:
            self._count("service.failed")
        self._gauge("service.queue_depth", self.queue.depth())

    def _job_payload(self, job: Job) -> Dict[str, Any]:
        if job.state == DONE and job.result is not None:
            return job.result
        if job.state == FAILED:
            raise ServiceExecutionError(job.error or "job failed")
        raise QueueClosedError(job.error or "job cancelled (service draining)")

    def _count(self, name: str) -> None:
        self.telemetry.counter(name).inc()

    def _gauge(self, name: str, value: float) -> None:
        self.telemetry.gauge(name).set(value)

    def _emit(
        self, digest: str, solver: str, status: str, job: Optional[Job] = None
    ) -> None:
        self.telemetry.emit(
            ServiceRequestEvent(
                digest=digest,
                solver=solver,
                status=status,
                queue_depth=self.queue.depth(),
                job_id=None if job is None else job.id,
            )
        )


# ----------------------------------------------------------------------
# HTTP front end
# ----------------------------------------------------------------------
class ServiceHTTPServer(ThreadingHTTPServer):
    """ThreadingHTTPServer carrying the :class:`PartitionService` handle."""

    daemon_threads = True
    allow_reuse_address = True

    def __init__(self, address, service: PartitionService) -> None:
        super().__init__(address, ServiceRequestHandler)
        self.service = service


class ServiceRequestHandler(BaseHTTPRequestHandler):
    """Routes the JSON API onto the service core (one thread per request)."""

    server: ServiceHTTPServer
    protocol_version = "HTTP/1.1"

    # ------------------------------------------------------------------
    def do_POST(self) -> None:  # noqa: N802 - stdlib handler contract
        service = self.server.service
        if self.path not in ("/v1/solve", "/v1/jobs"):
            self._send(404, {"error": f"unknown path {self.path}"})
            return
        try:
            request = SolveRequest.from_dict(self._read_json())
        except BadRequestError as exc:
            self._send(400, {"error": str(exc)})
            return
        try:
            if self.path == "/v1/solve":
                payload = service.solve(request)
                self._send(200, payload)
            else:
                status, outcome = service.admit(request)
                if status == "cached":
                    self._send(
                        200, {"status": status, "digest": request.digest(),
                              "result": outcome}
                    )
                else:
                    body = outcome.status_dict()
                    body["status"] = status
                    self._send(202, body)
        except QueueFullError as exc:
            self._send(
                429,
                {"error": str(exc), "retry_after": exc.retry_after},
                headers={"Retry-After": f"{exc.retry_after:g}"},
            )
        except QueueClosedError as exc:
            self._send(503, {"error": str(exc)})
        except ServiceExecutionError as exc:
            self._send(500, {"error": str(exc)})
        except TimeoutError as exc:
            self._send(504, {"error": str(exc)})

    def do_GET(self) -> None:  # noqa: N802 - stdlib handler contract
        service = self.server.service
        if self.path == "/metrics":
            self._send(200, service.metrics())
            return
        if self.path == "/healthz":
            self._send(200, service.health())
            return
        if self.path.startswith("/v1/jobs/"):
            parts = self.path.rstrip("/").split("/")
            if parts[-1] == "result":
                self._job_result(parts[-2])
            else:
                status = service.job_status(parts[-1])
                if status is None:
                    self._send(404, {"error": f"unknown job {parts[-1]!r}"})
                else:
                    self._send(200, status)
            return
        self._send(404, {"error": f"unknown path {self.path}"})

    def _job_result(self, job_id: str) -> None:
        service = self.server.service
        job = service.job_result(job_id)
        if job is None:
            self._send(404, {"error": f"unknown job {job_id!r}"})
            return
        if not job.done:
            self._send(202, job.status_dict())
            return
        try:
            self._send(200, service._job_payload(job))
        except ServiceExecutionError as exc:
            self._send(500, {"error": str(exc)})
        except QueueClosedError as exc:
            self._send(503, {"error": str(exc)})

    # ------------------------------------------------------------------
    def _read_json(self) -> Any:
        length = int(self.headers.get("Content-Length") or 0)
        raw = self.rfile.read(length) if length else b""
        if not raw:
            raise BadRequestError("empty request body")
        try:
            return json.loads(raw.decode("utf-8"))
        except (UnicodeDecodeError, ValueError) as exc:
            raise BadRequestError(f"request body is not valid JSON: {exc}") from exc

    def _send(
        self,
        code: int,
        payload: Dict[str, Any],
        *,
        headers: Optional[Dict[str, str]] = None,
    ) -> None:
        body = json.dumps(payload, sort_keys=True).encode("utf-8")
        self.send_response(code)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(body)))
        for name, value in (headers or {}).items():
            self.send_header(name, value)
        self.end_headers()
        self.wfile.write(body)

    def log_message(self, format: str, *args) -> None:  # noqa: A002
        pass  # request logging goes through telemetry, not stderr


# ----------------------------------------------------------------------
def start_http_server(
    service: PartitionService, host: str = "127.0.0.1", port: int = 0
) -> ServiceHTTPServer:
    """Bind and start serving on a background thread; returns the server.

    ``port=0`` binds an ephemeral port (tests); read the real one from
    ``httpd.server_address[1]``.
    """
    httpd = ServiceHTTPServer((host, port), service)
    thread = threading.Thread(
        target=httpd.serve_forever, name="service-http", daemon=True
    )
    thread.start()
    return httpd


def serve(
    host: str = "127.0.0.1",
    port: int = 8321,
    *,
    queue_depth: int = 16,
    executor_threads: int = 2,
    workers: Optional[int] = None,
    cache_capacity: int = 128,
    spill_path: Optional[str] = None,
    default_deadline: Optional[float] = None,
    telemetry: Optional[Telemetry] = None,
    poll_seconds: float = 0.1,
) -> int:
    """Run the service until SIGINT/SIGTERM; drain; exit code for ``main``.

    The HTTP server runs on background threads; the main thread only
    watches the drain flag, because signal handlers can only live there
    (:func:`repro.runtime.signals.drain_on_signals`).
    """
    service = PartitionService(
        queue_depth=queue_depth,
        executor_threads=executor_threads,
        workers=workers,
        cache_capacity=cache_capacity,
        spill_path=spill_path,
        default_deadline=default_deadline,
        telemetry=telemetry,
    ).start()
    httpd = start_http_server(service, host, port)
    bound_host, bound_port = httpd.server_address[:2]
    print(f"serving on http://{bound_host}:{bound_port}", flush=True)
    try:
        with drain_on_signals(service.budget) as drain:
            while not drain.draining:
                time.sleep(poll_seconds)
    finally:
        print("draining: in-flight jobs return their incumbents", flush=True)
        idle = service.shutdown(drain=True)
        httpd.shutdown()
        httpd.server_close()
    print(f"drained {'cleanly' if idle else 'with stragglers'}; bye", flush=True)
    return 0 if idle else 1


__all__ = [
    "PartitionService",
    "REJECT_SITE",
    "RETRY_AFTER_SECONDS",
    "ServiceExecutionError",
    "ServiceHTTPServer",
    "ServiceRequestHandler",
    "serve",
    "start_http_server",
]
