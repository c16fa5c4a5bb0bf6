"""Offline trace analysis: torn tails, degradation events, convergence data."""

from __future__ import annotations

import json
import logging

import pytest

from repro.obs import (
    JsonlSink,
    TraceError,
    attached,
    event,
    read_trace,
    span,
    summarize_records,
    summarize_trace,
)


def _write_trace(path, records):
    path.write_text("".join(json.dumps(r) + "\n" for r in records))


def _span_record(name, parent=None, duration=0.1, **attrs):
    path = name if parent is None else f"{parent} > {name}"
    return {
        "type": "span", "name": name, "path": path, "parent": parent,
        "t_s": 0.0, "duration_s": duration, "attrs": attrs,
    }


def _event_record(name, parent=None, **attrs):
    return {
        "type": "event", "name": name,
        "path": name if parent is None else f"{parent} > {name}",
        "parent": parent, "t_s": 0.0, "duration_s": 0.0, "attrs": attrs,
    }


class TestTornTail:
    def test_torn_final_line_is_skipped_with_warning(self, tmp_path):
        path = tmp_path / "t.jsonl"
        _write_trace(path, [_span_record("flow")])
        with open(path, "a", encoding="utf-8") as handle:
            handle.write('{"type": "span", "name": "cut-off-mid-wr')
        # Capture on the emitting logger directly: the suite may have run
        # configure_logging (CLI tests), which caplog's root handler
        # would otherwise race with.
        captured: list[logging.LogRecord] = []

        class _Capture(logging.Handler):
            def emit(self, record: logging.LogRecord) -> None:
                captured.append(record)

        logger = logging.getLogger("repro.obs.trace")
        handler = _Capture(level=logging.WARNING)
        logger.addHandler(handler)
        try:
            records = read_trace(path)
        finally:
            logger.removeHandler(handler)
        assert len(records) == 1
        assert records[0]["name"] == "flow"
        assert any("torn" in record.getMessage() for record in captured)

    def test_torn_tail_can_be_made_fatal(self, tmp_path):
        path = tmp_path / "t.jsonl"
        path.write_text('{"type": "span", "name": "cut')
        with pytest.raises(TraceError):
            read_trace(path, tolerate_torn_tail=False)

    def test_corruption_before_the_tail_still_raises(self, tmp_path):
        path = tmp_path / "t.jsonl"
        path.write_text(
            "{not json}\n"
            + json.dumps(_span_record("flow")) + "\n"
        )
        with pytest.raises(TraceError):
            read_trace(path)

    def test_summarize_trace_of_crashed_run(self, tmp_path):
        """The end-to-end path: a killed run's trace still summarizes."""
        path = tmp_path / "crashed.jsonl"
        _write_trace(path, [
            _span_record("solver", parent="flow", nodes=3, kind="milp"),
            _span_record("flow"),
        ])
        with open(path, "a", encoding="utf-8") as handle:
            handle.write('{"type": "ev')
        summary = summarize_trace(path)
        assert summary.records == 2
        assert len(summary.solves) == 1


class TestResilienceEventsRoundTrip:
    """PR2's degradation-ladder and fault-injection events survive the
    write -> read_trace -> summarize pipeline and surface as degradations."""

    def test_fault_injected_event(self, tmp_path):
        path = tmp_path / "t.jsonl"
        with JsonlSink(path) as sink, attached(sink):
            with span("flow"):
                event("fault.injected", target="milp", model="eq3_ctx0")
        summary = summarize_trace(path)
        (degradation,) = summary.degradations
        assert degradation["name"] == "fault.injected"
        assert degradation["attrs"]["target"] == "milp"
        assert degradation["parent"] == "flow"

    def test_degradation_ladder_events(self, tmp_path):
        path = tmp_path / "t.jsonl"
        with JsonlSink(path) as sink, attached(sink):
            with span("flow"):
                event("algorithm1.degraded", level="incumbent", iteration=3)
                event("deadline.expired", stage="milp_solve", budget_s=5.0)
                event("flow.fallback", reason="no_feasible_remap")
        summary = summarize_trace(path)
        names = [d["name"] for d in summary.degradations]
        assert names == [
            "algorithm1.degraded", "deadline.expired", "flow.fallback",
        ]
        # Every degradation is also a plain event (superset relation).
        assert len(summary.events) == 3

    def test_non_degradation_events_stay_out(self, tmp_path):
        path = tmp_path / "t.jsonl"
        with JsonlSink(path) as sink, attached(sink):
            event("algorithm1.stats", benchmark="B1", iterations=2)
        summary = summarize_trace(path)
        assert summary.degradations == []
        assert len(summary.alg1_runs) == 1


class TestConvergenceCollection:
    def test_solver_spans_collected_in_order(self):
        records = [
            _span_record("flow"),
            _span_record("solver", parent="flow", nodes=1, kind="lp"),
            _span_record("solver", parent="flow", nodes=9, kind="milp"),
            _span_record("other", parent="flow"),
        ]
        summary = summarize_records(records)
        assert [s["attrs"]["nodes"] for s in summary.solves] == [1, 9]

    def test_alg1_stats_event_attrs_extracted(self):
        records = [
            _event_record(
                "algorithm1.stats", parent="flow",
                benchmark="B4", iterations=3, verdicts=["accepted"],
            ),
        ]
        summary = summarize_records(records)
        (run,) = summary.alg1_runs
        assert run["benchmark"] == "B4"
        assert run["verdicts"] == ["accepted"]
        # alg1 stats events are informational, not degradations.
        assert summary.degradations == []


class TestExplainCollection:
    def test_explain_event_attrs_extracted(self):
        records = [
            _event_record(
                "algorithm1.explain", parent="flow",
                benchmark="B4", cause="iteration", iteration=2,
                result="relaxed_st", st_target_ns=3.5,
            ),
            _event_record(
                "algorithm1.explain", parent="flow",
                benchmark="B4", cause="terminal",
                terminal_cause="st_ceiling_exhausted",
            ),
        ]
        summary = summarize_records(records)
        assert [e["cause"] for e in summary.explains] == ["iteration", "terminal"]
        assert summary.explains[0]["result"] == "relaxed_st"
        # explain events are informational, not degradations.
        assert summary.degradations == []

    def test_to_dict_round_trips_through_json(self):
        records = [
            _span_record("flow", duration=1.5),
            _span_record("solver", parent="flow", nodes=3, kind="milp"),
            _event_record(
                "algorithm1.explain", parent="flow",
                cause="iteration", iteration=1, result="frozen_budget_infeasible",
            ),
        ]
        payload = summarize_records(records).to_dict()
        decoded = json.loads(json.dumps(payload))
        assert decoded["kind"] == "trace_summary"
        assert decoded["records"] == 3
        assert decoded["total_s"] == pytest.approx(1.5)
        assert [s["path"] for s in decoded["stages"]] == [
            "flow", "flow > solver",
        ]
        (explain,) = decoded["explains"]
        assert explain["result"] == "frozen_budget_infeasible"
        assert len(decoded["solves"]) == 1


class TestSweepVerdicts:
    """Per-entry verdict column: ok / retried / cert-failed / failed /
    quarantined, worst signal wins."""

    def test_clean_entries_are_ok(self):
        records = [
            _span_record("table1_entry", benchmark="B1"),
            _span_record("table1_entry", benchmark="B2"),
        ]
        summary = summarize_records(records)
        assert summary.sweep_entries == {"B1": "ok", "B2": "ok"}

    def test_worst_signal_wins(self):
        records = [
            _span_record("table1_entry", benchmark="B1"),
            _event_record("sweep.entry_timeout", entry="B1", strikes=1),
            _span_record("table1_entry", benchmark="B2"),
            _event_record("sweep.worker_crash", entry="B2", strikes=1),
            _event_record("sweep.quarantined", entry="B2", strikes=2),
            _event_record("certification.failed", benchmark="B3"),
            _span_record("table1_entry", benchmark="B3"),
            _event_record("sweep.entry_timeout", entry="B4", strikes=1),
        ]
        summary = summarize_records(records)
        assert summary.sweep_entries == {
            "B1": "retried",
            "B2": "quarantined",
            "B3": "cert-failed",
            "B4": "retried",
        }
        # verdict_table sorts worst-first.
        assert [row[0] for row in summary.verdict_table()] == [
            "B2", "B3", "B1", "B4",
        ]

    def test_new_supervisor_events_are_degradations(self):
        from repro.obs.trace import DEGRADATION_EVENTS

        assert {
            "sweep.worker_crash",
            "sweep.entry_timeout",
            "sweep.quarantined",
            "certification.failed",
            "certification.cold_rebuild",
        } <= DEGRADATION_EVENTS
