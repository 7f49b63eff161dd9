"""RungTry: one observed try of one rung of a plain-loop fallback ladder."""

from __future__ import annotations

import pytest

from repro.obs.telemetry import Telemetry
from repro.runtime.budget import Budget, BudgetExceededError
from repro.runtime.supervisor import RungTry


class Flaky:
    """A callable failing its first ``failures`` invocations."""

    def __init__(self, failures: int, error=RuntimeError("transient")):
        self.failures = failures
        self.error = error
        self.calls = 0

    def __call__(self):
        self.calls += 1
        if self.calls <= self.failures:
            raise self.error
        return f"ok after {self.calls}"


def ladder(rungs, tel, budget=None, transient=RuntimeError):
    """The loop every ladder in the package runs: first success wins."""
    for name, run in rungs:
        with RungTry("test", name, transient, budget=budget, telemetry=tel):
            return run()
    return None


def fallbacks(tel):
    return [e for e in tel.events() if e.kind == "fallback"]


def fallback_count(tel):
    return tel.metrics_snapshot()["counters"].get("supervisor.fallbacks", 0.0)


@pytest.fixture
def tel():
    return Telemetry.enabled_default()


class TestLadder:
    def test_first_rung_succeeds(self, tel):
        value = ladder(
            [("primary", lambda: "primary-value"), ("fallback", lambda: "fallback-value")],
            tel,
        )
        assert value == "primary-value"
        (span,) = tel.tracer.spans
        assert (span.name, span.attrs) == ("primary", {"ladder": "test", "try_index": 0})
        assert fallbacks(tel) == []
        assert fallback_count(tel) == 0

    def test_descends_on_transient_failure(self, tel):
        def boom():
            raise RuntimeError("nope")

        with RungTry("test", "primary", RuntimeError, telemetry=tel) as attempt:
            boom()
        assert attempt.error == "RuntimeError: nope"
        assert ladder([("primary", boom), ("fallback", lambda: 42)], tel) == 42
        assert [(s.name, s.attrs.get("error")) for s in tel.tracer.spans] == [
            ("primary", "RuntimeError"),
            ("primary", "RuntimeError"),
            ("fallback", None),
        ]
        event = fallbacks(tel)[-1]
        assert (event.ladder, event.rung, event.try_index, event.status) == (
            "test", "primary", 0, "error",
        )
        assert event.error == "RuntimeError: nope"
        assert event.elapsed_seconds >= 0.0
        assert fallback_count(tel) == 2

    def test_non_transient_propagates(self, tel):
        def boom():
            raise ValueError("programming error")

        with pytest.raises(ValueError):
            ladder([("primary", boom), ("fallback", lambda: 42)], tel)
        assert [s.attrs.get("error") for s in tel.tracer.spans] == ["ValueError"]
        assert fallbacks(tel) == []
        assert fallback_count(tel) == 0

    def test_exhaustion_carries_audit(self, tel):
        def boom():
            raise RuntimeError("always")

        assert ladder([("a", boom), ("b", boom)], tel) is None
        assert [(e.rung, e.status, e.error) for e in fallbacks(tel)] == [
            ("a", "error", "RuntimeError: always"),
            ("b", "error", "RuntimeError: always"),
        ]
        assert fallback_count(tel) == 2

    def test_error_is_kept_with_telemetry_disabled(self):
        # The initial-solution ladder names each failed rung from it.
        with RungTry(
            "test", "primary", RuntimeError, telemetry=Telemetry(enabled=False)
        ) as attempt:
            raise RuntimeError("nope")
        assert attempt.error == "RuntimeError: nope"


class TestRetries:
    def test_retry_until_success(self, tel):
        flaky = Flaky(failures=2)
        for try_index in range(4):
            with RungTry("test", "flaky", RuntimeError, telemetry=tel, try_index=try_index):
                value = flaky()
                break
        assert value == "ok after 3"
        assert flaky.calls == 3
        assert [s.attrs["try_index"] for s in tel.tracer.spans] == [0, 1, 2]
        assert [(e.try_index, e.status) for e in fallbacks(tel)] == [
            (0, "error"),
            (1, "error"),
        ]


class TestBudgets:
    def test_exhausted_shared_budget_skips_and_raises(self, tel):
        budget = Budget(wall_seconds=1.0)
        budget.cancel()  # expired before the ladder starts
        calls = []
        with pytest.raises(BudgetExceededError) as excinfo:
            ladder([("never", lambda: calls.append(1))], tel, budget=budget)
        assert excinfo.value.reason == "cancelled"
        assert calls == []
        assert tel.tracer.spans == []
        (event,) = fallbacks(tel)
        assert (event.rung, event.status, event.error, event.elapsed_seconds) == (
            "never", "skipped", "budget exhausted", 0.0,
        )
        assert fallback_count(tel) == 1

    def test_no_budget_no_timeout_passes_none(self, tel):
        with RungTry("test", "probe", RuntimeError, telemetry=tel) as attempt:
            seen = attempt.budget
        assert seen is None
        assert fallbacks(tel) == []

    def test_shared_budget_expiry_mid_attempt_stops_ladder(self, tel):
        clock = MutableClock()
        budget = Budget(wall_seconds=5.0, clock=clock)

        def drains():
            clock.now += 10.0  # the attempt burns through the shared budget
            budget.raise_if_exceeded()

        with pytest.raises(BudgetExceededError) as excinfo:
            ladder([("drains", drains), ("never", lambda: "unreached")], tel, budget)
        assert excinfo.value.reason == "deadline"
        (span,) = tel.tracer.spans
        assert (span.name, span.attrs["error"]) == ("drains", "BudgetExceededError")
        (event,) = fallbacks(tel)
        assert (event.rung, event.status, event.error) == (
            "drains", "skipped", "budget exhausted",
        )


class MutableClock:
    def __init__(self) -> None:
        self.now = 0.0

    def __call__(self) -> float:
        return self.now
