"""SolverSupervisor: ladders, retries, audit trails, budgets."""

from __future__ import annotations

import pytest

from repro.runtime.budget import Budget, BudgetExceededError
from repro.runtime.supervisor import (
    Attempt,
    SolverSupervisor,
    SupervisorExhaustedError,
)


class Flaky:
    """A callable failing its first ``failures`` invocations."""

    def __init__(self, failures: int, error=RuntimeError("transient")):
        self.failures = failures
        self.error = error
        self.calls = 0

    def __call__(self, budget):
        self.calls += 1
        if self.calls <= self.failures:
            raise self.error
        return f"ok after {self.calls}"


class TestLadder:
    def test_first_rung_succeeds(self):
        outcome = SolverSupervisor(
            [
                Attempt("primary", lambda b: "primary-value"),
                Attempt("fallback", lambda b: "fallback-value"),
            ]
        ).run()
        assert outcome.value == "primary-value"
        assert outcome.attempt == "primary"
        assert not outcome.degraded
        assert [r.status for r in outcome.records] == ["ok"]

    def test_descends_on_transient_failure(self):
        def boom(budget):
            raise RuntimeError("nope")

        outcome = SolverSupervisor(
            [Attempt("primary", boom), Attempt("fallback", lambda b: 42)]
        ).run()
        assert outcome.value == 42
        assert outcome.attempt == "fallback"
        assert outcome.degraded
        assert [(r.name, r.status) for r in outcome.records] == [
            ("primary", "error"),
            ("fallback", "ok"),
        ]
        assert "nope" in outcome.records[0].error

    def test_non_transient_propagates(self):
        def boom(budget):
            raise ValueError("programming error")

        supervisor = SolverSupervisor(
            [Attempt("primary", boom), Attempt("fallback", lambda b: 42)],
            transient=(RuntimeError,),
        )
        with pytest.raises(ValueError):
            supervisor.run()

    def test_exhaustion_carries_audit(self):
        def boom(budget):
            raise RuntimeError("always")

        supervisor = SolverSupervisor(
            [Attempt("a", boom, retries=1), Attempt("b", boom)]
        )
        with pytest.raises(SupervisorExhaustedError) as excinfo:
            supervisor.run()
        records = excinfo.value.records
        assert [(r.name, r.try_index) for r in records] == [
            ("a", 0),
            ("a", 1),
            ("b", 0),
        ]
        assert all(r.status == "error" for r in records)
        assert "a#0" in str(excinfo.value)

    def test_empty_ladder_rejected(self):
        with pytest.raises(ValueError):
            SolverSupervisor([])


class TestRetries:
    def test_retry_until_success(self):
        flaky = Flaky(failures=2)
        outcome = SolverSupervisor([Attempt("flaky", flaky, retries=3)]).run()
        assert outcome.value == "ok after 3"
        assert flaky.calls == 3
        assert [r.status for r in outcome.records] == ["error", "error", "ok"]
        assert outcome.degraded


class TestBudgets:
    def test_exhausted_shared_budget_skips_and_raises(self):
        budget = Budget(wall_seconds=1.0)
        budget.cancel()  # expired before the ladder starts
        calls = []
        supervisor = SolverSupervisor(
            [Attempt("never", lambda b: calls.append(1))], budget=budget
        )
        with pytest.raises(BudgetExceededError):
            supervisor.run()
        assert calls == []

    def test_no_budget_no_timeout_passes_none(self):
        seen = {}

        def probe(budget):
            seen["budget"] = budget
            return 1

        SolverSupervisor([Attempt("probe", probe)]).run()
        assert seen["budget"] is None

    def test_shared_budget_expiry_mid_attempt_stops_ladder(self):
        clock = MutableClock()
        budget = Budget(wall_seconds=5.0, clock=clock)

        def drains(attempt_budget):
            clock.now += 10.0  # the attempt burns through the shared budget
            attempt_budget.raise_if_exceeded()

        supervisor = SolverSupervisor(
            [Attempt("drains", drains), Attempt("never", lambda b: "unreached")],
            budget=budget,
        )
        with pytest.raises(BudgetExceededError):
            supervisor.run()


class MutableClock:
    def __init__(self) -> None:
        self.now = 0.0

    def __call__(self) -> float:
        return self.now
