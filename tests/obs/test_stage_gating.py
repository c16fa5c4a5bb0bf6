"""Evaluation-stage breakdowns aggregated from a trace."""

from __future__ import annotations

import pytest

from repro.obs.trace import EVALUATION_STAGES, summarize_records


def _span(path, duration_s, parent="flow"):
    return {
        "type": "span",
        "name": path.split(" > ")[-1],
        "path": path,
        "duration_s": duration_s,
        "parent": parent,
    }


def _trace_records():
    return [
        _span("flow", 2.0, parent=None),
        _span("flow > phase1 > evaluate", 0.2),
        _span("flow > phase1 > evaluate > stress", 0.05),
        _span("flow > phase2 > evaluate > stress", 0.07),
        _span("flow > phase2 > algorithm1 > sta", 0.01),
        _span("flow > phase2 > algorithm1 > iteration > sta_verify", 0.02),
        {
            "type": "metric",
            "name": "kernels.sta.seconds",
            "kind": "histogram",
            "count": 4,
            "sum": 0.012,
        },
        {
            "type": "metric",
            "name": "milp.lowerings",
            "kind": "counter",
            "value": 3,
        },
    ]


class TestTraceEvaluationStages:
    def test_aggregates_same_leaf_across_paths(self):
        summary = summarize_records(_trace_records())
        rows = {row.path: row for row in summary.evaluation_stages()}
        assert rows["stress"].count == 2
        assert rows["stress"].total_s == pytest.approx(0.12)
        assert rows["sta"].total_s == pytest.approx(0.01)
        assert rows["sta_verify"].count == 1

    def test_canonical_order_and_omission(self):
        summary = summarize_records(_trace_records())
        names = [row.path for row in summary.evaluation_stages()]
        assert names == [
            s for s in EVALUATION_STAGES if s in set(names)
        ]
        assert "thermal" not in names  # absent stages are omitted

    def test_to_dict_carries_evaluation_stages(self):
        doc = summarize_records(_trace_records()).to_dict()
        assert doc["evaluation_stages"]["stress"]["count"] == 2

    def test_kernel_metrics_filtered(self):
        summary = summarize_records(_trace_records())
        assert set(summary.kernel_metrics()) == {"kernels.sta.seconds"}

    def test_empty_trace_has_no_evaluation_rows(self):
        summary = summarize_records([_span("flow", 1.0, parent=None)])
        assert summary.evaluation_stages() == []
        assert summary.evaluation_table() == []
