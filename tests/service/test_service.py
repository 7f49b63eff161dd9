"""PartitionService core: caching, coalescing, backpressure, drain.

These tests drive the service without sockets - the HTTP layer has its
own suite in ``test_http.py``.
"""

from __future__ import annotations

import pytest

from repro.obs.telemetry import Telemetry
from repro.service.executor import cacheable, execute_request
from repro.service.jobs import QueueClosedError, QueueFullError
from repro.service.request import SolveRequest
from repro.service.server import PartitionService, ServiceExecutionError


def counters(service: PartitionService) -> dict:
    return service.metrics()["snapshot"]["counters"]


@pytest.fixture
def service():
    svc = PartitionService(queue_depth=4, executor_threads=2)
    yield svc
    svc.shutdown(drain=False, timeout=5.0)


class TestExecuteRequest:
    def test_produces_a_v1_payload(self, request_doc):
        payload = execute_request(SolveRequest.from_dict(request_doc))
        assert payload["format"] == "service-result-v1"
        assert payload["stop_reason"] == "completed"
        assert len(payload["assignment"]) == 16
        assert payload["num_partitions"] == 4
        assert payload["digest"] == SolveRequest.from_dict(request_doc).digest()

    def test_is_deterministic(self, request_doc):
        request = SolveRequest.from_dict(request_doc)
        a = execute_request(request)
        b = execute_request(request)
        a.pop("elapsed_seconds"), b.pop("elapsed_seconds")
        assert a == b

    def test_solver_choice_is_respected(self, request_doc):
        # gfm has no "iterations" knob, so the legacy key must go too.
        doc = {k: v for k, v in request_doc.items() if k != "iterations"}
        payload = execute_request(SolveRequest.from_dict({**doc, "solver": "gfm"}))
        assert payload["solver"] == "gfm"

    def test_only_completed_results_are_cacheable(self):
        assert cacheable({"stop_reason": "completed"})
        assert not cacheable({"stop_reason": "deadline"})
        assert not cacheable({"stop_reason": "cancelled"})


class TestCaching:
    def test_second_identical_request_is_a_bit_identical_cache_hit(
        self, service, request_doc
    ):
        service.start()
        request = SolveRequest.from_dict(request_doc)
        first = service.solve(request, timeout=60)
        second = service.solve(request, timeout=60)
        assert second == first  # the cached payload, bit for bit
        stats = counters(service)
        assert stats["service.cache_hits"] == 1
        assert stats["service.cache_misses"] == 1
        assert stats["service.completed"] == 1  # one actual solve

    def test_different_seeds_miss(self, service, request_doc):
        service.start()
        service.solve(SolveRequest.from_dict({**request_doc, "seed": 1}), timeout=60)
        service.solve(SolveRequest.from_dict({**request_doc, "seed": 2}), timeout=60)
        assert counters(service)["service.cache_misses"] == 2

    def test_spill_survives_a_service_restart(self, request_doc, tmp_path):
        spill = tmp_path / "cache.jsonl"
        first = PartitionService(executor_threads=1, spill_path=str(spill)).start()
        payload = first.solve(SolveRequest.from_dict(request_doc), timeout=60)
        first.shutdown()
        second = PartitionService(executor_threads=1, spill_path=str(spill))
        status, cached = second.admit(SolveRequest.from_dict(request_doc))
        assert status == "cached"
        assert cached == payload
        second.shutdown()


class TestTelemetryDefault:
    def test_default_bundle_keeps_metrics_but_no_spans_or_events(self, request_doc):
        # A long-lived service must not grow with every solve: by default
        # it keeps counters only, and counts exactly what a bundle that
        # also records spans and events counts.
        docs = [{**request_doc, "seed": seed, "restarts": 2} for seed in (1, 2, 3)]

        def run(**kwargs) -> PartitionService:
            service = PartitionService(executor_threads=1, workers=1, **kwargs)
            service.start()
            try:
                for doc in docs:
                    for _ in range(2):  # a fill, then a cache hit
                        service.solve(SolveRequest.from_dict(doc), timeout=60)
            finally:
                service.shutdown()
            return service

        default = run()
        traced = run(telemetry=Telemetry.enabled_default())
        assert default.telemetry.tracer is None
        assert default.telemetry.sinks == []
        assert default.telemetry.events() == []
        assert traced.telemetry.tracer.spans and traced.telemetry.events()
        assert counters(default)["service.completed"] == len(docs)
        assert counters(default) == counters(traced)


class TestCoalescing:
    def test_concurrent_identical_submissions_share_one_solve(
        self, service, request_doc
    ):
        # Admit twice before any executor thread runs: deterministic
        # concurrency without racing real threads.
        request = SolveRequest.from_dict(request_doc)
        status_a, job_a = service.admit(request)
        status_b, job_b = service.admit(request)
        assert (status_a, status_b) == ("queued", "coalesced")
        assert job_a is job_b
        service.start()
        assert job_a.wait(60)
        assert job_a.result is not None
        stats = counters(service)
        assert stats["service.coalesced"] == 1
        assert stats["service.completed"] == 1


class TestBackpressure:
    def test_admission_past_queue_depth_is_rejected(self, request_doc):
        service = PartitionService(queue_depth=2, executor_threads=1)
        # Executor not started: jobs stay queued.
        service.admit(SolveRequest.from_dict({**request_doc, "seed": 1}))
        service.admit(SolveRequest.from_dict({**request_doc, "seed": 2}))
        with pytest.raises(QueueFullError):
            service.admit(SolveRequest.from_dict({**request_doc, "seed": 3}))
        assert counters(service)["service.rejected"] == 1
        service.shutdown(drain=False, timeout=1.0)

    def test_queue_depth_gauge_tracks_admissions(self, request_doc):
        service = PartitionService(queue_depth=4, executor_threads=1)
        service.admit(SolveRequest.from_dict({**request_doc, "seed": 1}))
        assert service.metrics()["snapshot"]["gauges"]["service.queue_depth"] == 1
        service.shutdown(drain=False, timeout=1.0)


class TestFailures:
    def test_failed_job_raises_with_the_job_error(self, service, request_doc):
        service.start()
        # A capacity smaller than the largest component: no packing
        # exists, the initial-solution ladder exhausts, the job fails.
        doomed = SolveRequest.from_dict({**request_doc, "capacity": 1e-6})
        with pytest.raises(ServiceExecutionError):
            service.solve(doomed, timeout=60)
        assert counters(service)["service.failed"] == 1

    def test_failed_results_are_not_cached(self, service, request_doc):
        service.start()
        doomed = SolveRequest.from_dict({**request_doc, "capacity": 1e-6})
        with pytest.raises(ServiceExecutionError):
            service.solve(doomed, timeout=60)
        assert len(service.cache) == 0


class TestDrain:
    def test_shutdown_settles_and_closes_admissions(self, request_doc):
        service = PartitionService(queue_depth=4, executor_threads=1).start()
        service.solve(SolveRequest.from_dict(request_doc), timeout=60)
        assert service.shutdown(timeout=10.0)
        with pytest.raises(QueueClosedError):
            service.admit(SolveRequest.from_dict({**request_doc, "seed": 99}))
        assert service.health()["status"] == "draining"

    def test_queued_jobs_are_cancelled_on_shutdown(self, request_doc):
        service = PartitionService(queue_depth=4, executor_threads=1)
        _, job = service.admit(SolveRequest.from_dict(request_doc))
        service.shutdown(drain=False, timeout=2.0)
        assert job.state == "cancelled"

    def test_health_reports_version_and_uptime(self, service):
        from repro import __version__

        health = service.health()
        assert health["status"] == "ok"
        assert health["version"] == __version__
        assert health["uptime_seconds"] >= 0
