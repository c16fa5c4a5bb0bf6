"""JSONL sink round-trip and trace summarization."""

from __future__ import annotations

import io
import json

import pytest

from repro.obs import (
    JsonlSink,
    MetricsRegistry,
    attached,
    event,
    span,
    summarize_records,
    summarize_trace,
)
from repro.obs.trace import REQUIRED_KEYS, TraceError, parse_trace_line


def _run_workload(*sinks):
    """A miniature flow shape shared by the round-trip tests."""
    with attached(*sinks):
        with span("flow", benchmark="unit"):
            with span("phase1"):
                pass
            with span("phase2"):
                with span("iteration", index=1):
                    pass
                with span("iteration", index=2):
                    pass
            event("flow.fallback", mttf_increase=0.9)


class TestJsonlRoundTrip:
    def test_every_line_parses_with_required_keys(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        with JsonlSink(path) as sink:
            _run_workload(sink)
            registry = MetricsRegistry()
            registry.counter("unit.count").inc(2)
            registry.histogram("unit.hist").observe(1.0)
            sink.write_metrics(registry.snapshot())
        lines = path.read_text().splitlines()
        assert len(lines) == sink.lines_written == 8  # 5 spans+1 event+2 metrics
        for line in lines:
            record = json.loads(line)
            for key in REQUIRED_KEYS:
                assert key in record, f"{key} missing from {record}"

    def test_span_records_carry_hierarchy(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        with JsonlSink(path) as sink:
            _run_workload(sink)
        records = [json.loads(line) for line in path.read_text().splitlines()]
        spans = {r["path"]: r for r in records if r["type"] == "span"}
        assert spans["flow"]["parent"] is None
        assert spans["flow > phase2"]["parent"] == "flow"
        iteration = [
            r for r in records
            if r["type"] == "span" and r["name"] == "iteration"
        ]
        assert [r["attrs"]["index"] for r in iteration] == [1, 2]

    def test_accepts_open_file_object(self):
        buffer = io.StringIO()
        sink = JsonlSink(buffer)
        _run_workload(sink)
        sink.close()  # must not close a caller-owned file
        assert buffer.getvalue().count("\n") == 6

    def test_summarize_round_trip(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        with JsonlSink(path) as sink:
            _run_workload(sink)
        summary = summarize_trace(path)
        by_path = {row.path: row for row in summary.stages}
        assert by_path["flow > phase2 > iteration"].count == 2
        assert summary.total_s == pytest.approx(
            by_path["flow"].total_s
        )
        assert summary.events[0]["name"] == "flow.fallback"


class TestTraceValidation:
    def test_rejects_non_json(self):
        with pytest.raises(TraceError):
            parse_trace_line("not json", lineno=3)

    def test_missing_file_raises_trace_error(self, tmp_path):
        with pytest.raises(TraceError) as err:
            summarize_trace(tmp_path / "nope.jsonl")
        assert "cannot read trace" in str(err.value)

    def test_rejects_missing_keys(self):
        with pytest.raises(TraceError) as err:
            parse_trace_line(json.dumps({"type": "span", "name": "x"}))
        assert "duration_s" in str(err.value)

    def test_summarize_metric_records(self):
        records = [
            {"type": "span", "name": "a", "path": "a", "parent": None,
             "duration_s": 1.0},
            {"type": "metric", "name": "m", "parent": None,
             "duration_s": 0.0, "kind": "counter", "value": 7},
        ]
        summary = summarize_records(records)
        assert summary.metrics["m"]["value"] == 7
        assert summary.total_s == 1.0
