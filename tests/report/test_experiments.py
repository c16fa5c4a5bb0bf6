"""Experiment-driver tests (configuration logic only — the heavy runs
live in benchmarks/ and the CLI)."""

from __future__ import annotations

import pytest

from repro.core.algorithm1 import Algorithm1Config
from repro.core.flow import flow_config
from repro.report.experiments import ExperimentConfig, QUICK_MAX_FABRIC


class TestExperimentConfig:
    def test_quick_suite_caps_fabrics(self):
        config = ExperimentConfig(scale="quick")
        suite = config.suite()
        assert len(suite) == 27
        assert all(e.fabric_dim <= QUICK_MAX_FABRIC for e in suite)

    def test_paper_suite_is_verbatim(self):
        config = ExperimentConfig(scale="paper")
        suite = config.suite()
        assert {e.fabric_dim for e in suite} == {4, 8, 16}
        assert suite[-1].pe_count == 3089

    def test_only_filter(self):
        config = ExperimentConfig(scale="paper", only=["B5", "B9"])
        assert [e.name for e in config.suite()] == ["B5", "B9"]

    def test_only_filter_applies_before_scaling(self):
        config = ExperimentConfig(scale="quick", only=["B27"])
        (entry,) = config.suite()
        assert entry.name == "B27s"
        assert entry.fabric_dim == QUICK_MAX_FABRIC

    def test_unknown_scale_rejected(self):
        with pytest.raises(ValueError):
            ExperimentConfig(scale="galactic").suite()


class TestFlowConfig:
    def test_mode_threading(self):
        config = flow_config("freeze", 42.0)
        assert config.algorithm1.mode == "freeze"
        assert config.algorithm1.remap.time_limit_s == 42.0

    def test_default_mode_rotate(self):
        assert flow_config("rotate", 10.0).algorithm1.mode == "rotate"

    def test_drivers_use_the_default_iteration_budget(self, monkeypatch):
        """Table I, Fig. 2a and Fig. 2b run Algorithm 1 with the budget
        every other runner uses, so one design gets one answer."""
        import repro.report.experiments as experiments
        from repro.benchgen.suite import entry

        class Stop(Exception):
            pass

        seen = []

        class RecordingFlow(experiments.AgingAwareFlow):
            def __init__(self, config=None):
                super().__init__(config)
                seen.append(self.config)

            def phase1(self, design, fabric):
                raise Stop

            def run(self, design, fabric, deadline=None):
                raise Stop

        monkeypatch.setattr(experiments, "AgingAwareFlow", RecordingFlow)
        for driver in (
            lambda: experiments.measure_benchmark(
                entry("B1"), ExperimentConfig()
            ),
            lambda: experiments.run_fig2a(log=lambda line: None),
            lambda: experiments.run_fig2b(log=lambda line: None),
        ):
            with pytest.raises(Stop):
                driver()
        assert len(seen) == 3
        budget = Algorithm1Config().max_iterations
        assert [c.algorithm1.max_iterations for c in seen] == [budget] * 3


class TestParallelSweep:
    def test_jobs2_matches_serial_and_resumes(self, tmp_path):
        """``--jobs 2`` is a pure wall-clock optimisation: measurements,
        checkpoint records and resume semantics are identical to serial."""
        pytest.importorskip("scipy")
        import json

        from repro.report.experiments import run_table1

        def sweep(checkpoint, jobs, resume=False):
            config = ExperimentConfig(
                scale="quick",
                only=["B1", "B4"],
                time_limit_s=8.0,
                checkpoint=str(checkpoint),
                resume=resume,
                jobs=jobs,
            )
            rows = run_table1(config, log=lambda line: None)
            return [
                (m.entry.name, m.freeze_increase, m.rotate_increase)
                for m in rows
            ]

        def records(path):
            with open(path) as fh:
                return [json.loads(line) for line in fh]

        serial_ckpt = tmp_path / "serial.jsonl"
        parallel_ckpt = tmp_path / "parallel.jsonl"
        serial = sweep(serial_ckpt, jobs=1)
        parallel = sweep(parallel_ckpt, jobs=2)
        assert parallel == serial

        by_entry = lambda record: record["entry"]  # noqa: E731
        serial_records = sorted(records(serial_ckpt), key=by_entry)
        parallel_records = sorted(records(parallel_ckpt), key=by_entry)
        assert parallel_records == serial_records

        # A truncated checkpoint resumes under --jobs without re-running
        # the completed entry, and the file ends up complete.
        done = [r for r in serial_records if r["entry"] == "B1"]
        resume_ckpt = tmp_path / "resume.jsonl"
        resume_ckpt.write_text(
            "".join(json.dumps(r) + "\n" for r in done)
        )
        resumed = sweep(resume_ckpt, jobs=2, resume=True)
        assert resumed == serial
        assert sorted(records(resume_ckpt), key=by_entry) == serial_records


def _fast_measure(entry, config):
    """Instant deterministic stand-in for measure_benchmark.

    Patched into the experiments module before the workers fork, so they
    inherit it — supervisor tests then exercise crash/hang/retry paths in
    milliseconds instead of real MILP runs.
    """
    from repro.report.paper import BenchmarkMeasurement

    return BenchmarkMeasurement(
        entry=entry, freeze_increase=1.5, rotate_increase=2.5
    )


def _checkpoint_statuses(path):
    import json

    statuses: dict[str, list[str]] = {}
    with open(path) as handle:
        for line in handle:
            record = json.loads(line)
            statuses.setdefault(record["entry"], []).append(
                record["status"]
            )
    return statuses


class TestSupervisedSweep:
    """Worker crash, repeat crash and hang recovery at ``--jobs 2``.

    :class:`TestSupervisedSweepSerial` runs the same tests at ``--jobs
    1``: every entry runs in its own worker process at any width.
    """

    jobs = 2

    @pytest.fixture(autouse=True)
    def fast_supervisor(self, monkeypatch):
        import repro.report.experiments as experiments

        monkeypatch.setattr(experiments, "_CRASH_BACKOFF_BASE_S", 0.01)
        monkeypatch.setattr(
            experiments, "measure_benchmark", _fast_measure
        )

    def _config(self, tmp_path, **overrides):
        defaults = dict(
            scale="quick",
            only=["B1", "B4"],
            jobs=self.jobs,
            checkpoint=str(tmp_path / "sweep.jsonl"),
        )
        defaults.update(overrides)
        return ExperimentConfig(**defaults)

    def test_single_crash_is_retried_in_isolation(self, tmp_path):
        from repro.report.experiments import run_table1
        from repro.resilience.faults import fault_scope

        config = self._config(tmp_path)
        with fault_scope("worker_crash@1") as plan:
            rows = run_table1(config, log=lambda line: None)
        assert plan.fired("worker_crash") == 1
        assert [m.entry.name for m in rows] == ["B1", "B4"]
        statuses = _checkpoint_statuses(config.checkpoint)
        # The injected entry dies, gets a "failed" record, and its
        # retry in a fresh worker lands the "ok" — the sweep never aborts.
        assert statuses["B1"][0] == "failed"
        assert statuses["B1"][-1] == "ok"
        assert statuses["B4"][-1] == "ok"

    def test_repeat_killer_is_quarantined_then_resumable(self, tmp_path):
        from repro.report.experiments import run_table1
        from repro.resilience.faults import fault_scope

        config = self._config(tmp_path)
        lines: list[str] = []
        with fault_scope("worker_crash"):
            rows = run_table1(config, log=lines.append)
        assert rows == []
        statuses = _checkpoint_statuses(config.checkpoint)
        assert statuses["B1"][-1] == "quarantined"
        assert statuses["B4"][-1] == "quarantined"
        assert any("quarantined" in line for line in lines)

        # Quarantine is not a tombstone: --resume retries the entries.
        resumed = run_table1(
            self._config(tmp_path, resume=True), log=lambda line: None
        )
        assert [m.entry.name for m in resumed] == ["B1", "B4"]
        statuses = _checkpoint_statuses(config.checkpoint)
        assert statuses["B1"][-1] == "ok"
        assert statuses["B4"][-1] == "ok"

    def test_hanging_worker_is_killed_and_retried(self, tmp_path):
        from repro.report.experiments import run_table1
        from repro.resilience.faults import fault_scope

        config = self._config(tmp_path, entry_timeout_s=2.0)
        with fault_scope("worker_hang@1"):
            rows = run_table1(config, log=lambda line: None)
        assert [m.entry.name for m in rows] == ["B1", "B4"]
        statuses = _checkpoint_statuses(config.checkpoint)
        assert statuses["B1"][-1] == "ok"
        failed = [
            record
            for record in self._records(config.checkpoint)
            if record["status"] == "failed"
        ]
        assert any("timeout" in record["error"] for record in failed)

    def test_worker_traces_merge_into_the_parent(self, tmp_path):
        from repro.obs import CollectorSink, attached
        from repro.obs.trace import summarize_records
        from repro.report.experiments import run_table1
        from repro.resilience.faults import fault_scope

        collector = CollectorSink()
        with attached(collector), fault_scope("worker_crash@1"):
            run_table1(self._config(tmp_path), log=lambda line: None)
        entry_spans = [
            record["attrs"]["benchmark"]
            for record in collector.records
            if record["type"] == "span" and record["name"] == "table1_entry"
        ]
        # The crashed attempt returns no records; its retry and B4 do.
        assert sorted(entry_spans) == ["B1", "B4"]
        summary = summarize_records(collector.records)
        assert summary.sweep_entries == {"B1": "retried", "B4": "ok"}

    @staticmethod
    def _records(path):
        import json

        with open(path) as handle:
            return [json.loads(line) for line in handle]


class TestSupervisedSweepSerial(TestSupervisedSweep):
    jobs = 1


class TestCliParsing:
    def test_main_rejects_unknown_experiment(self, capsys):
        from repro.report.experiments import main

        with pytest.raises(SystemExit):
            main(["tableX"])

    def test_main_fig2a_runs(self, capsys):
        """fig2a is the cheapest experiment; run it through the CLI."""
        pytest.importorskip("scipy")
        from repro.report.experiments import main

        assert main(["fig2a"]) == 0
        out = capsys.readouterr().out
        assert "Original accumulated stress" in out
        assert "Re-mapped accumulated stress" in out
