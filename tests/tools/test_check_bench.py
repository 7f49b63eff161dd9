"""The benchmark regression gate (scripts/check_bench.py)."""

from __future__ import annotations

import copy
import importlib.util
import json
import sys
from pathlib import Path

import pytest

SCRIPTS = Path(__file__).resolve().parents[2] / "scripts"

_spec = importlib.util.spec_from_file_location(
    "scripts_check_bench", SCRIPTS / "check_bench.py"
)
check_bench_mod = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(check_bench_mod)
sys.modules["scripts_check_bench"] = check_bench_mod


@pytest.fixture
def snapshot():
    return {
        "format": "metrics-snapshot-v1",
        "counters": {"solver.iterations": 120.0, "solver.passes": 16.0},
        "gauges": {
            "harness.qbp_seconds": 0.5,
            "harness.gfm_seconds": 0.2,
            "last.cost": 442.0,
        },
        "histograms": {},
    }


class TestCheckFunction:
    def test_identical_snapshots_pass(self, snapshot):
        assert check_bench_mod.check_bench(snapshot, snapshot) == []

    def test_counter_drift_fails(self, snapshot):
        current = copy.deepcopy(snapshot)
        current["counters"]["solver.iterations"] = 240.0
        problems = check_bench_mod.check_bench(current, snapshot)
        assert any("solver.iterations" in p for p in problems)

    def test_counter_drift_within_tolerance_passes(self, snapshot):
        current = copy.deepcopy(snapshot)
        current["counters"]["solver.iterations"] = 126.0  # +5%
        assert (
            check_bench_mod.check_bench(current, snapshot, counter_tolerance=0.10)
            == []
        )

    def test_missing_counter_fails(self, snapshot):
        current = copy.deepcopy(snapshot)
        del current["counters"]["solver.passes"]
        problems = check_bench_mod.check_bench(current, snapshot)
        assert any("missing from run" in p for p in problems)

    def test_zero_baseline_counter_pins_the_count_at_zero(self, snapshot):
        # Snapshots hold no zero counters, so a missing one reads as 0.
        baseline = copy.deepcopy(snapshot)
        baseline["counters"]["supervisor.fallbacks"] = 0.0
        assert check_bench_mod.check_bench(snapshot, baseline) == []
        current = copy.deepcopy(snapshot)
        current["counters"]["supervisor.fallbacks"] = 1.0
        problems = check_bench_mod.check_bench(current, baseline)
        assert any("supervisor.fallbacks" in p for p in problems)

    def test_new_counter_is_not_a_failure(self, snapshot):
        current = copy.deepcopy(snapshot)
        current["counters"]["pool.task_failures"] = 1.0
        assert check_bench_mod.check_bench(current, snapshot) == []

    def test_time_gauge_within_ratio_passes(self, snapshot):
        current = copy.deepcopy(snapshot)
        current["gauges"]["harness.qbp_seconds"] = 4.0  # 8x of 0.5s, under 10x
        assert check_bench_mod.check_bench(current, snapshot) == []

    def test_time_gauge_blowup_fails(self, snapshot):
        current = copy.deepcopy(snapshot)
        current["gauges"]["harness.qbp_seconds"] = 50.0  # 100x
        problems = check_bench_mod.check_bench(current, snapshot)
        assert any("harness.qbp_seconds" in p for p in problems)

    def test_speedup_beyond_ratio_also_fails(self, snapshot):
        # A 100x "speedup" means the workload silently stopped running.
        current = copy.deepcopy(snapshot)
        current["gauges"]["harness.qbp_seconds"] = 0.005
        problems = check_bench_mod.check_bench(current, snapshot)
        assert any("harness.qbp_seconds" in p for p in problems)

    def test_non_time_gauges_ignored(self, snapshot):
        current = copy.deepcopy(snapshot)
        current["gauges"]["last.cost"] = 9999.0
        assert check_bench_mod.check_bench(current, snapshot) == []


class TestCli:
    def write(self, path: Path, payload) -> Path:
        path.write_text(json.dumps(payload))
        return path

    def test_passing_run_exits_zero(self, tmp_path, snapshot):
        current = self.write(tmp_path / "current.json", snapshot)
        baseline = self.write(tmp_path / "baseline.json", snapshot)
        assert (
            check_bench_mod.main([str(current), "--baseline", str(baseline)]) == 0
        )

    def test_drift_exits_one(self, tmp_path, snapshot):
        drifted = copy.deepcopy(snapshot)
        drifted["counters"]["solver.iterations"] = 1.0
        current = self.write(tmp_path / "current.json", drifted)
        baseline = self.write(tmp_path / "baseline.json", snapshot)
        assert (
            check_bench_mod.main([str(current), "--baseline", str(baseline)]) == 1
        )

    def test_unreadable_input_exits_two(self, tmp_path, snapshot):
        baseline = self.write(tmp_path / "baseline.json", snapshot)
        assert (
            check_bench_mod.main(
                [str(tmp_path / "missing.json"), "--baseline", str(baseline)]
            )
            == 2
        )

    def test_wrong_format_exits_two(self, tmp_path, snapshot):
        bad = self.write(tmp_path / "bad.json", {"format": "other-v1"})
        baseline = self.write(tmp_path / "baseline.json", snapshot)
        assert check_bench_mod.main([str(bad), "--baseline", str(baseline)]) == 2

    def test_update_writes_baseline(self, tmp_path, snapshot):
        current = self.write(tmp_path / "current.json", snapshot)
        baseline = tmp_path / "sub" / "baseline.json"
        assert (
            check_bench_mod.main(
                [str(current), "--baseline", str(baseline), "--update"]
            )
            == 0
        )
        assert json.loads(baseline.read_text()) == snapshot

    def test_committed_baseline_is_valid(self):
        baseline = (
            Path(__file__).resolve().parents[2]
            / "benchmarks"
            / "baselines"
            / "eval-small.json"
        )
        payload = check_bench_mod.load_snapshot(baseline)
        assert payload["counters"]["solver.iterations"] > 0
        assert check_bench_mod.check_bench(payload, payload) == []


class TestLedgerGate:
    def _append(self, path, snapshot):
        from repro.obs.ledger import append_record, make_record, run_manifest

        append_record(
            path,
            make_record(
                manifest=run_manifest(label="bench", seed=0, config={}),
                metrics=snapshot,
            ),
        )

    def write(self, path: Path, payload) -> Path:
        path.write_text(json.dumps(payload))
        return path

    def test_matching_run_passes_against_window(self, tmp_path, snapshot):
        ledger = tmp_path / "ledger.jsonl"
        for _ in range(3):
            self._append(ledger, snapshot)
        current = self.write(tmp_path / "current.json", snapshot)
        assert check_bench_mod.main([str(current), "--ledger", str(ledger)]) == 0

    def test_counter_perturbation_fails_against_window(self, tmp_path, snapshot):
        ledger = tmp_path / "ledger.jsonl"
        self._append(ledger, snapshot)
        drifted = copy.deepcopy(snapshot)
        drifted["counters"]["solver.iterations"] += 1.0
        current = self.write(tmp_path / "current.json", drifted)
        assert check_bench_mod.main([str(current), "--ledger", str(ledger)]) == 1

    def test_window_median_absorbs_one_slow_record(self, tmp_path, snapshot):
        ledger = tmp_path / "ledger.jsonl"
        slow = copy.deepcopy(snapshot)
        slow["gauges"]["harness.qbp_seconds"] = 500.0  # one outlier machine
        self._append(ledger, snapshot)
        self._append(ledger, slow)
        self._append(ledger, snapshot)
        current = self.write(tmp_path / "current.json", snapshot)
        assert check_bench_mod.main([str(current), "--ledger", str(ledger)]) == 0

    def test_window_flag_limits_history(self, tmp_path, snapshot):
        ledger = tmp_path / "ledger.jsonl"
        old = copy.deepcopy(snapshot)
        old["counters"]["solver.iterations"] = 999.0
        self._append(ledger, old)
        for _ in range(2):
            self._append(ledger, snapshot)
        current = self.write(tmp_path / "current.json", snapshot)
        assert (
            check_bench_mod.main(
                [str(current), "--ledger", str(ledger), "--window", "2"]
            )
            == 0
        )

    def test_missing_ledger_fails_with_one_line_error(
        self, tmp_path, snapshot, capsys
    ):
        current = self.write(tmp_path / "current.json", snapshot)
        ledger = tmp_path / "absent.jsonl"
        assert check_bench_mod.main([str(current), "--ledger", str(ledger)]) == 2
        err = capsys.readouterr().err
        assert "does not exist" in err
        assert len(err.strip().splitlines()) == 1

    def test_empty_ledger_fails_with_one_line_error(
        self, tmp_path, snapshot, capsys
    ):
        current = self.write(tmp_path / "current.json", snapshot)
        ledger = tmp_path / "empty.jsonl"
        ledger.write_text("")
        assert check_bench_mod.main([str(current), "--ledger", str(ledger)]) == 2
        err = capsys.readouterr().err
        assert "no run-ledger-v1 records" in err
        assert len(err.strip().splitlines()) == 1

    def test_baseline_and_ledger_are_exclusive(self, tmp_path, snapshot):
        current = self.write(tmp_path / "current.json", snapshot)
        baseline = self.write(tmp_path / "baseline.json", snapshot)
        with pytest.raises(SystemExit):
            check_bench_mod.main(
                [str(current), "--baseline", str(baseline), "--ledger", "x"]
            )
        with pytest.raises(SystemExit):
            check_bench_mod.main([str(current)])
