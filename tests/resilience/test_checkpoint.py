"""Sweep checkpoints: durability, resume, failure, keep-going semantics."""

from __future__ import annotations

import pytest

import repro.report.experiments as experiments
from repro.errors import FlowError, SweepError
from repro.report.experiments import ExperimentConfig, run_table1
from repro.report.paper import BenchmarkMeasurement
from repro.resilience import CheckpointError, SweepCheckpoint


class TestSweepCheckpoint:
    def test_missing_file_reads_empty(self, tmp_path):
        cp = SweepCheckpoint(tmp_path / "missing.jsonl")
        assert not cp.exists()
        assert list(cp.records()) == []
        assert cp.latest() == {}
        assert cp.completed() == {}

    def test_append_and_read_back(self, tmp_path):
        cp = SweepCheckpoint(tmp_path / "cp.jsonl")
        cp.append({"entry": "B1", "status": "ok", "freeze_increase": 1.5})
        cp.append({"entry": "B2", "status": "failed", "error": "boom"})
        records = list(cp.records())
        assert len(records) == 2
        assert records[0]["freeze_increase"] == 1.5
        assert cp.completed().keys() == {"B1"}

    def test_latest_record_wins(self, tmp_path):
        cp = SweepCheckpoint(tmp_path / "cp.jsonl")
        cp.append({"entry": "B1", "status": "failed", "error": "transient"})
        cp.append({"entry": "B1", "status": "ok", "freeze_increase": 2.0})
        assert cp.latest()["B1"]["status"] == "ok"
        assert cp.completed().keys() == {"B1"}

    def test_failed_entries_are_not_completed(self, tmp_path):
        cp = SweepCheckpoint(tmp_path / "cp.jsonl")
        cp.append({"entry": "B1", "status": "ok"})
        cp.append({"entry": "B1", "status": "failed", "error": "regressed"})
        assert cp.completed() == {}

    def test_reset_truncates(self, tmp_path):
        cp = SweepCheckpoint(tmp_path / "cp.jsonl")
        cp.append({"entry": "B1", "status": "ok"})
        cp.reset()
        assert cp.exists()
        assert list(cp.records()) == []

    def test_record_requires_entry_and_status(self, tmp_path):
        cp = SweepCheckpoint(tmp_path / "cp.jsonl")
        with pytest.raises(CheckpointError):
            cp.append({"entry": "B1"})
        with pytest.raises(CheckpointError):
            cp.append({"status": "ok"})

    def test_corrupt_middle_line_raises(self, tmp_path):
        path = tmp_path / "cp.jsonl"
        path.write_text(
            '{"entry": "B1", "status": "ok"}\n'
            "{oops\n"
            '{"entry": "B2", "status": "ok"}\n'
        )
        with pytest.raises(CheckpointError, match="not valid JSON"):
            list(SweepCheckpoint(path).records())

    def test_torn_final_line_is_skipped_with_warning(self, tmp_path):
        """A kill mid-append leaves a torn last line; resume must not
        refuse the whole checkpoint over it (mirrors read_trace)."""
        import logging

        path = tmp_path / "cp.jsonl"
        path.write_text(
            '{"entry": "B1", "status": "ok"}\n'
            '{"entry": "B2", "status": "o'
        )
        captured: list[logging.LogRecord] = []

        class _Capture(logging.Handler):
            def emit(self, record: logging.LogRecord) -> None:
                captured.append(record)

        logger = logging.getLogger("repro.resilience.checkpoint")
        handler = _Capture(level=logging.WARNING)
        logger.addHandler(handler)
        try:
            records = list(SweepCheckpoint(path).records())
        finally:
            logger.removeHandler(handler)
        assert [r["entry"] for r in records] == ["B1"]
        assert any("torn" in r.getMessage() for r in captured)
        assert SweepCheckpoint(path).completed().keys() == {"B1"}

    def test_torn_tail_can_be_made_fatal(self, tmp_path):
        path = tmp_path / "cp.jsonl"
        path.write_text('{"entry": "B1", "status": "ok"}\n{oops\n')
        with pytest.raises(CheckpointError, match="not valid JSON"):
            list(SweepCheckpoint(path).records(tolerate_torn_tail=False))

    def test_non_record_final_json_is_skipped(self, tmp_path):
        path = tmp_path / "cp.jsonl"
        path.write_text('{"entry": "B1", "status": "ok"}\n[1, 2, 3]\n')
        records = list(SweepCheckpoint(path).records())
        assert [r["entry"] for r in records] == ["B1"]

    def test_non_record_middle_json_raises(self, tmp_path):
        path = tmp_path / "cp.jsonl"
        path.write_text('[1, 2, 3]\n{"entry": "B1", "status": "ok"}\n')
        with pytest.raises(CheckpointError, match="not a sweep record"):
            list(SweepCheckpoint(path).records())

    def test_floats_round_trip_exactly(self, tmp_path):
        cp = SweepCheckpoint(tmp_path / "cp.jsonl")
        value = 1.2345678901234567
        cp.append({"entry": "B1", "status": "ok", "freeze_increase": value})
        assert cp.latest()["B1"]["freeze_increase"] == value


class TestConcurrentAppend:
    """The flock guarantee: whole lines, never interleaved fragments."""

    @staticmethod
    def _hammer(path, writer: int, count: int) -> None:
        cp = SweepCheckpoint(path)
        for n in range(count):
            cp.append({
                "entry": f"w{writer}-{n}", "status": "ok",
                # Bulk makes a torn interleave overwhelmingly likely
                # if the lock were not held across the whole write.
                "pad": f"{writer}:{n}:" + "x" * 512,
            })

    def test_parallel_processes_never_tear_lines(self, tmp_path):
        import multiprocessing

        path = tmp_path / "contested.jsonl"
        writers, per_writer = 4, 25
        context = multiprocessing.get_context("fork")
        processes = [
            context.Process(target=self._hammer, args=(path, w, per_writer))
            for w in range(writers)
        ]
        for process in processes:
            process.start()
        for process in processes:
            process.join(timeout=60)
            assert process.exitcode == 0
        # Strict parse: no torn-tail tolerance — every line must be whole.
        records = list(
            SweepCheckpoint(path).records(tolerate_torn_tail=False)
        )
        assert len(records) == writers * per_writer
        names = {record["entry"] for record in records}
        assert names == {
            f"w{w}-{n}" for w in range(writers) for n in range(per_writer)
        }

    def test_append_holds_and_releases_lock(self, tmp_path):
        fcntl = pytest.importorskip("fcntl")
        path = tmp_path / "cp.jsonl"
        cp = SweepCheckpoint(path)
        cp.append({"entry": "B1", "status": "ok"})
        # After append returns, the journal must be immediately lockable
        # by someone else (no leaked LOCK_EX).
        with open(path, "a") as handle:
            fcntl.flock(handle.fileno(), fcntl.LOCK_EX | fcntl.LOCK_NB)
            fcntl.flock(handle.fileno(), fcntl.LOCK_UN)

    def test_reset_is_atomic_and_lockfree_readers_see_empty(self, tmp_path):
        cp = SweepCheckpoint(tmp_path / "cp.jsonl")
        cp.append({"entry": "B1", "status": "ok"})
        cp.reset()
        assert cp.exists()
        assert list(cp.records()) == []
        # The atomic replace leaves no scratch files next to the journal.
        assert [p.name for p in tmp_path.iterdir()] == ["cp.jsonl"]


def _stub_measurement(entry, config) -> BenchmarkMeasurement:
    """Deterministic fake measurement: value encodes (entry, seed).

    Sweep entries run in forked worker processes, so a stub cannot count
    its calls in the parent; the tests read the checkpoint instead, which
    gains one record per measured entry.
    """
    base = float(sum(ord(c) for c in entry.name))
    return BenchmarkMeasurement(
        entry=entry,
        freeze_increase=base + config.seed * 1e-6,
        rotate_increase=base / 2.0 + config.seed * 1e-6,
    )


def _table(measurements: list[BenchmarkMeasurement]) -> list[tuple]:
    return [
        (m.entry.name, m.freeze_increase, m.rotate_increase)
        for m in measurements
    ]


def _entries(config: ExperimentConfig) -> list[str]:
    """Entry names of the checkpoint's records, in append order."""
    return [r["entry"] for r in SweepCheckpoint(config.checkpoint).records()]


@pytest.fixture
def sweep_config(tmp_path):
    def make(**overrides) -> ExperimentConfig:
        defaults = dict(
            scale="quick",
            only=["B1", "B2", "B4"],
            checkpoint=str(tmp_path / "sweep.jsonl"),
        )
        defaults.update(overrides)
        return ExperimentConfig(**defaults)

    return make


class TestRunTable1Checkpointing:
    def test_clean_sweep_checkpoints_every_entry(
        self, sweep_config, monkeypatch
    ):
        monkeypatch.setattr(experiments, "measure_benchmark", _stub_measurement)
        config = sweep_config()
        measurements = run_table1(config, log=lambda *_: None)
        assert [m.entry.name for m in measurements] == ["B1", "B2", "B4"]
        completed = SweepCheckpoint(config.checkpoint).completed()
        assert completed.keys() == {"B1", "B2", "B4"}
        assert all(r["seed"] == 0 for r in completed.values())

    def test_resume_skips_completed_and_reproduces_table(
        self, sweep_config, monkeypatch
    ):
        monkeypatch.setattr(experiments, "measure_benchmark", _stub_measurement)
        full = run_table1(sweep_config(), log=lambda *_: None)
        assert _entries(sweep_config()) == ["B1", "B2", "B4"]

        # Simulate a crash after B1: keep only its checkpoint record.
        crashed = sweep_config()
        cp = SweepCheckpoint(crashed.checkpoint)
        b1_record = cp.latest()["B1"]
        cp.reset()
        cp.append(b1_record)

        resumed = run_table1(
            sweep_config(resume=True), log=lambda *_: None
        )
        # B1 restored, not re-measured: it keeps its single record.
        assert _entries(crashed) == ["B1", "B2", "B4"]
        assert _table(resumed) == _table(full)

    def test_resume_without_checkpoint_runs_everything(
        self, sweep_config, monkeypatch
    ):
        monkeypatch.setattr(experiments, "measure_benchmark", _stub_measurement)
        config = sweep_config(resume=True)
        run_table1(config, log=lambda *_: None)
        assert _entries(config) == ["B1", "B2", "B4"]

    def test_fresh_run_resets_stale_checkpoint(
        self, sweep_config, monkeypatch
    ):
        config = sweep_config()
        cp = SweepCheckpoint(config.checkpoint)
        cp.append({"entry": "B1", "status": "ok", "seed": 99,
                   "freeze_increase": 0.0, "rotate_increase": 0.0})
        monkeypatch.setattr(experiments, "measure_benchmark", _stub_measurement)
        run_table1(config, log=lambda *_: None)  # resume=False
        assert cp.latest()["B1"]["seed"] == 0  # stale record gone


def _broken_b2(entry, config):
    if entry.name == "B2":
        raise FlowError("always broken")
    return _stub_measurement(entry, config)


def _cluster_outage(entry, config):
    raise FlowError("cluster outage")


class TestRetrySemantics:
    def test_permanent_failure_aborts_by_default(
        self, sweep_config, monkeypatch
    ):
        monkeypatch.setattr(experiments, "measure_benchmark", _broken_b2)
        config = sweep_config(retries=1)
        with pytest.raises(SweepError, match="B2.*1 attempt"):
            run_table1(config, log=lambda *_: None)
        # A typed failure is deterministic for its inputs: one attempt,
        # no retry, and the sweep stops before B4.
        assert _entries(config) == ["B1", "B2"]
        latest = SweepCheckpoint(config.checkpoint).latest()
        assert latest["B1"]["status"] == "ok"  # finished before the abort
        assert latest["B2"]["status"] == "failed"
        assert "always broken" in latest["B2"]["error"]

    def test_keep_going_records_failure_and_continues(
        self, sweep_config, monkeypatch
    ):
        monkeypatch.setattr(experiments, "measure_benchmark", _broken_b2)
        lines: list[str] = []
        config = sweep_config(retries=0, keep_going=True)
        measurements = run_table1(config, log=lines.append)
        assert [m.entry.name for m in measurements] == ["B1", "B4"]
        assert any("failed permanently: B2" in line for line in lines)
        # A later --resume run retries the failed entry only.
        monkeypatch.setattr(experiments, "measure_benchmark", _stub_measurement)
        resumed = run_table1(
            sweep_config(resume=True, keep_going=True), log=lambda *_: None
        )
        assert [m.entry.name for m in resumed] == ["B1", "B2", "B4"]

    def test_all_entries_failing_tabulates_nothing(
        self, sweep_config, monkeypatch
    ):
        monkeypatch.setattr(experiments, "measure_benchmark", _cluster_outage)
        lines: list[str] = []
        measurements = run_table1(
            sweep_config(retries=0, keep_going=True), log=lines.append
        )
        assert measurements == []
        assert any("nothing to tabulate" in line for line in lines)
