"""Span nesting, timing-tree shape and sink dispatch."""

from __future__ import annotations

import time

import pytest

from repro.obs import (
    PATH_SEP,
    CollectorSink,
    attached,
    current_span,
    event,
    span,
)
from repro.obs.spans import active_sinks


class TestNesting:
    def test_root_span_path(self):
        with span("flow") as sp:
            assert sp.path == "flow"
            assert sp.parent_path is None

    def test_nested_paths(self):
        with span("flow"):
            with span("phase2"):
                with span("algorithm1") as sp:
                    assert sp.path == PATH_SEP.join(
                        ["flow", "phase2", "algorithm1"]
                    )
                    assert sp.parent_path == PATH_SEP.join(["flow", "phase2"])

    def test_current_span_tracks_stack(self):
        assert current_span() is None
        with span("a") as a:
            assert current_span() is a
            with span("b") as b:
                assert current_span() is b
            assert current_span() is a
        assert current_span() is None

    def test_sibling_spans_share_parent(self):
        sink = CollectorSink()
        with attached(sink):
            with span("flow"):
                with span("phase1"):
                    pass
                with span("phase2"):
                    pass
        paths = [record["path"] for record in sink.records]
        assert paths == ["flow > phase1", "flow > phase2", "flow"]

    def test_stack_restored_after_exception(self):
        with pytest.raises(RuntimeError):
            with span("outer"):
                with span("inner"):
                    raise RuntimeError("boom")
        assert current_span() is None

    def test_exception_marks_span(self):
        sink = CollectorSink()
        with attached(sink):
            with pytest.raises(ValueError):
                with span("solve"):
                    raise ValueError("infeasible")
        assert sink.records[0]["attrs"]["error"] == "ValueError"


class TestTiming:
    def test_duration_measures_elapsed_time(self):
        with span("sleepy") as sp:
            time.sleep(0.02)
        assert sp.duration_s >= 0.02

    def test_duration_is_live_while_open(self):
        with span("live") as sp:
            time.sleep(0.01)
            in_flight = sp.duration_s
            assert in_flight >= 0.01
        assert sp.duration_s >= in_flight

    def test_child_durations_bounded_by_parent(self):
        sink = CollectorSink()
        with attached(sink):
            with span("parent"):
                with span("child"):
                    time.sleep(0.01)
        by_name = {r["name"]: r for r in sink.records}
        assert by_name["child"]["duration_s"] <= by_name["parent"]["duration_s"]


class TestAttrsAndEvents:
    def test_set_attrs(self):
        with span("s", mode="rotate") as sp:
            sp.set(iterations=3)
        assert sp.attrs == {"mode": "rotate", "iterations": 3}

    def test_event_carries_parent_and_duration(self):
        sink = CollectorSink()
        with attached(sink):
            with span("flow"):
                event("fallback", reason="mttf")
        (record,) = [r for r in sink.records if r["type"] == "event"]
        assert record["name"] == "fallback"
        assert record["parent"] == "flow"
        assert record["duration_s"] == 0.0
        assert record["attrs"] == {"reason": "mttf"}

    def test_event_without_sink_is_dropped(self):
        event("nobody-listening")  # must not raise

    def test_to_record_keys(self):
        with span("x") as sp:
            pass
        record = sp.to_record()
        for key in ("type", "name", "path", "parent", "t_s", "duration_s", "attrs"):
            assert key in record


class TestSinkManagement:
    def test_attached_is_scoped(self):
        sink = CollectorSink()
        before = len(active_sinks())
        with attached(sink):
            assert sink in active_sinks()
        assert sink not in active_sinks()
        assert len(active_sinks()) == before

    def test_no_sink_no_records(self):
        sink = CollectorSink()
        with span("unobserved"):
            pass
        assert sink.records == []
