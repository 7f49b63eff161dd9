"""Checkpoints: atomic writes, corruption handling, bit-exact QBP resume."""

from __future__ import annotations

import json

import numpy as np
import pytest

from repro.runtime.budget import Budget
from repro.obs.events import IterationEvent
from repro.obs.telemetry import Telemetry
from repro.runtime.checkpoint import (
    QBP_CHECKPOINT_FORMAT,
    CheckpointError,
    QbpCheckpoint,
    QbpCheckpointer,
    atomic_write_json,
    checkpoint_backup_path,
    load_json_checkpoint,
    load_qbp_checkpoint,
    save_qbp_checkpoint,
    try_load_json_checkpoint,
    try_load_qbp_checkpoint,
)
from repro.runtime.faults import corrupt_json_file
from repro.solvers.burkard import solve_qbp


class TestAtomicJson:
    def test_roundtrip(self, tmp_path):
        path = tmp_path / "a" / "b" / "ck.json"  # parents created on demand
        atomic_write_json(path, {"format": "x-v1", "value": [1, 2, 3]})
        assert load_json_checkpoint(path, expected_format="x-v1")["value"] == [1, 2, 3]

    def test_missing_file_strict_vs_forgiving(self, tmp_path):
        path = tmp_path / "absent.json"
        with pytest.raises(CheckpointError, match="does not exist"):
            load_json_checkpoint(path, expected_format="x-v1")
        assert try_load_json_checkpoint(path, expected_format="x-v1") is None

    def test_wrong_format_rejected(self, tmp_path):
        path = tmp_path / "ck.json"
        atomic_write_json(path, {"format": "other-v1"})
        with pytest.raises(CheckpointError, match="format"):
            load_json_checkpoint(path, expected_format="x-v1")

    def test_corrupted_file(self, tmp_path, caplog):
        path = tmp_path / "ck.json"
        atomic_write_json(path, {"format": "x-v1", "data": list(range(100))})
        corrupt_json_file(path, seed=3)
        with pytest.raises(CheckpointError):
            load_json_checkpoint(path, expected_format="x-v1")
        with caplog.at_level("WARNING", logger="repro.runtime.checkpoint"):
            assert try_load_json_checkpoint(path, expected_format="x-v1") is None
        assert any("unusable checkpoint" in r.message for r in caplog.records)

    def test_no_tmp_file_left_behind(self, tmp_path):
        path = tmp_path / "ck.json"
        atomic_write_json(path, {"format": "x-v1"})
        assert [p.name for p in tmp_path.iterdir()] == ["ck.json"]


class TestTornCheckpointSalvage:
    """A damaged primary snapshot falls back to the ``.bak`` generation."""

    @staticmethod
    def _write_two_generations(path):
        atomic_write_json(path, {"format": "x-v1", "iteration": 4}, backup=True)
        atomic_write_json(path, {"format": "x-v1", "iteration": 5}, backup=True)

    def test_backup_rotation(self, tmp_path):
        path = tmp_path / "ck.json"
        self._write_two_generations(path)
        backup = checkpoint_backup_path(path)
        assert backup.name == "ck.json.bak"
        assert json.loads(path.read_text())["iteration"] == 5
        assert json.loads(backup.read_text())["iteration"] == 4

    def test_no_backup_without_flag(self, tmp_path):
        path = tmp_path / "ck.json"
        atomic_write_json(path, {"format": "x-v1", "iteration": 1})
        atomic_write_json(path, {"format": "x-v1", "iteration": 2})
        assert not checkpoint_backup_path(path).exists()

    def test_torn_primary_salvages_backup(self, tmp_path, caplog):
        path = tmp_path / "ck.json"
        self._write_two_generations(path)
        corrupt_json_file(path, seed=5)
        with caplog.at_level("WARNING", logger="repro.runtime.checkpoint"):
            payload = try_load_json_checkpoint(path, expected_format="x-v1")
        assert payload is not None and payload["iteration"] == 4
        assert any("previous good snapshot" in r.message for r in caplog.records)

    def test_missing_primary_salvages_backup(self, tmp_path):
        path = tmp_path / "ck.json"
        self._write_two_generations(path)
        path.unlink()
        payload = try_load_json_checkpoint(path, expected_format="x-v1")
        assert payload is not None and payload["iteration"] == 4

    def test_salvage_can_be_disabled(self, tmp_path):
        path = tmp_path / "ck.json"
        self._write_two_generations(path)
        corrupt_json_file(path, seed=5)
        assert (
            try_load_json_checkpoint(path, expected_format="x-v1", salvage=False)
            is None
        )

    def test_both_generations_torn_gives_up(self, tmp_path, caplog):
        path = tmp_path / "ck.json"
        self._write_two_generations(path)
        corrupt_json_file(path, seed=5)
        corrupt_json_file(checkpoint_backup_path(path), seed=6)
        with caplog.at_level("WARNING", logger="repro.runtime.checkpoint"):
            assert try_load_json_checkpoint(path, expected_format="x-v1") is None
        assert any("backup checkpoint" in r.message for r in caplog.records)

    def test_salvage_emits_typed_events(self, tmp_path):
        tel = Telemetry.enabled_default()
        path = tmp_path / "ck.json"
        self._write_two_generations(path)
        corrupt_json_file(path, seed=5)
        try_load_json_checkpoint(
            path, expected_format="x-v1", label="ckta", telemetry=tel
        )
        statuses = [
            (e.label, e.status)
            for e in tel.events()
            if getattr(e, "kind", "") == "checkpoint"
        ]
        assert statuses == [("ckta", "corrupt"), ("ckta", "salvaged")]
        counters = tel.metrics_snapshot()["counters"]
        assert counters["checkpoint.corrupt"] == 1.0
        assert counters["checkpoint.salvaged"] == 1.0


def _sample_checkpoint() -> QbpCheckpoint:
    rng = np.random.default_rng(9)
    return QbpCheckpoint(
        iteration=7,
        part=np.array([0, 1, 2, 3, 0]),
        h=rng.normal(size=(5, 4)),
        best_part=np.array([0, 1, 2, 3, 1]),
        best_pen=12.5,
        best_feas_part=np.array([0, 1, 2, 3, 2]),
        best_feas_cost=15.0,
        shadow_part=None,
        history=[20.0, 14.0, 12.5],
        improvements=[1, 3],
        rng_state=rng.bit_generator.state,
        label="sample",
    )


class TestQbpCheckpointRoundtrip:
    def test_payload_roundtrip_is_exact(self, tmp_path):
        original = _sample_checkpoint()
        path = tmp_path / "qbp.json"
        save_qbp_checkpoint(path, original)
        loaded = load_qbp_checkpoint(path)
        assert loaded.iteration == original.iteration
        assert np.array_equal(loaded.part, original.part)
        assert np.array_equal(loaded.h, original.h)  # bit-exact float roundtrip
        assert np.array_equal(loaded.best_part, original.best_part)
        assert loaded.best_pen == original.best_pen
        assert np.array_equal(loaded.best_feas_part, original.best_feas_part)
        assert loaded.shadow_part is None
        assert loaded.history == original.history
        assert loaded.improvements == original.improvements
        assert loaded.rng_state == original.rng_state
        assert loaded.label == "sample"

    def test_payload_format_tag(self, tmp_path):
        path = tmp_path / "qbp.json"
        save_qbp_checkpoint(path, _sample_checkpoint())
        assert json.loads(path.read_text())["format"] == QBP_CHECKPOINT_FORMAT

    def test_malformed_shapes_rejected(self):
        payload = _sample_checkpoint().to_payload()
        payload["h"] = [[1.0, 2.0]]  # h rows must match part length
        with pytest.raises(CheckpointError, match="inconsistent"):
            QbpCheckpoint.from_payload(payload)

    def test_missing_key_rejected(self):
        payload = _sample_checkpoint().to_payload()
        del payload["best_pen"]
        with pytest.raises(CheckpointError, match="malformed"):
            QbpCheckpoint.from_payload(payload)

    def test_corrupted_qbp_checkpoint_forgiving(self, tmp_path):
        path = tmp_path / "qbp.json"
        save_qbp_checkpoint(path, _sample_checkpoint())
        corrupt_json_file(path, seed=1)
        assert try_load_qbp_checkpoint(path) is None
        with pytest.raises(CheckpointError):
            load_qbp_checkpoint(path)


class TestQbpCheckpointer:
    def test_due_schedule(self, tmp_path):
        ck = QbpCheckpointer(tmp_path / "x.json", every=5)
        assert [k for k in range(1, 16) if ck.due(k)] == [5, 10, 15]

    def test_every_validated(self, tmp_path):
        with pytest.raises(ValueError):
            QbpCheckpointer(tmp_path / "x.json", every=0)

    def test_save_load_clear(self, tmp_path):
        ck = QbpCheckpointer(tmp_path / "x.json", every=1, label="ckt")
        assert ck.load() is None
        ck.save(_sample_checkpoint())
        assert ck.saves == 1
        assert ck.load().iteration == 7
        ck.clear()
        assert ck.load() is None
        ck.clear()  # idempotent

    def test_save_rotates_backup_and_clear_removes_it(self, tmp_path):
        path = tmp_path / "x.json"
        ck = QbpCheckpointer(path, every=1, label="ckt")
        first = _sample_checkpoint()
        ck.save(first)
        second = _sample_checkpoint()
        second.iteration = 8
        ck.save(second)
        backup = checkpoint_backup_path(path)
        assert backup.exists()
        assert json.loads(backup.read_text())["iteration"] == 7
        ck.clear()
        assert not path.exists() and not backup.exists()

    def test_torn_snapshot_resumes_from_previous_generation(self, tmp_path, caplog):
        path = tmp_path / "x.json"
        ck = QbpCheckpointer(path, every=1, label="ckt")
        ck.save(_sample_checkpoint())
        second = _sample_checkpoint()
        second.iteration = 8
        ck.save(second)
        corrupt_json_file(path, seed=2)  # latest generation lands torn
        with caplog.at_level("WARNING", logger="repro.runtime.checkpoint"):
            salvaged = ck.load()
        assert salvaged is not None
        assert salvaged.iteration == 7  # one interval of progress lost, not the run
        assert np.array_equal(salvaged.part, _sample_checkpoint().part)


class TestSolveQbpResume:
    """Killing a run mid-flight and resuming must be bit-exact."""

    @pytest.fixture(scope="class")
    def reference(self, timed_problem, feasible_start):
        return solve_qbp(
            timed_problem, iterations=10, initial=feasible_start, seed=7
        )

    def test_cancel_then_resume_matches_uninterrupted(
        self, tmp_path, timed_problem, feasible_start, reference
    ):
        path = tmp_path / "qbp.json"
        budget = Budget()

        class CancelAt4:
            # Iteration 4's event precedes its checkpoint save, so the
            # run stops with iteration 4 on disk.
            def emit(self, event):
                if isinstance(event, IterationEvent) and event.iteration == 4:
                    budget.cancel()

        interrupted = solve_qbp(
            timed_problem,
            iterations=10,
            initial=feasible_start,
            seed=7,
            budget=budget,
            checkpointer=QbpCheckpointer(path, every=1),
            telemetry=Telemetry(enabled=True, sinks=[CancelAt4()]),
        )
        assert interrupted.stop_reason == "cancelled"
        assert interrupted.iterations < 10

        resume = try_load_qbp_checkpoint(path)
        assert resume is not None
        assert resume.iteration == 4

        resumed = solve_qbp(
            timed_problem,
            iterations=10,
            initial=feasible_start,
            seed=7,
            resume=resume,
        )
        assert resumed.stop_reason == "completed"
        assert resumed.cost == reference.cost
        assert resumed.penalized_cost == reference.penalized_cost
        assert resumed.best_feasible_cost == reference.best_feasible_cost
        assert np.array_equal(resumed.assignment.part, reference.assignment.part)
        assert resumed.history == reference.history

    def test_resume_rejects_shape_mismatch(
        self, tmp_path, timed_problem, small_problem, feasible_start
    ):
        path = tmp_path / "qbp.json"
        solve_qbp(
            timed_problem,
            iterations=2,
            initial=feasible_start,
            seed=7,
            checkpointer=QbpCheckpointer(path, every=1),
        )
        resume = try_load_qbp_checkpoint(path)
        with pytest.raises(ValueError, match="does not match"):
            solve_qbp(small_problem, iterations=2, seed=7, resume=resume)

    def test_natural_completion_writes_final_snapshot(
        self, tmp_path, timed_problem, feasible_start
    ):
        path = tmp_path / "qbp.json"
        ck = QbpCheckpointer(path, every=100)  # never due mid-run
        solve_qbp(
            timed_problem, iterations=3, initial=feasible_start, seed=7,
            checkpointer=ck,
        )
        assert ck.saves == 1  # the final-iteration snapshot
        assert ck.load().iteration == 3
