"""Self-contained run reports: section assembly and both renderers.

The CI report gate asserts every rendered ``<section>`` is non-empty;
these tests pin the invariant that makes the gate sound — ``Report.add``
drops empty sections, and every builder populates its section only when
its inputs exist.
"""

from __future__ import annotations

import json

import pytest

from repro.io.serialize import design_to_dict, floorplan_to_dict
from repro.obs import (
    CollectorSink,
    MetricsRegistry,
    attached,
    event,
    span,
    summarize_records,
)
from repro.obs.report import (
    Report,
    Section,
    build_report,
    metrics_rows,
    render_html,
    render_markdown,
)


def _span(name, parent=None, duration=0.25, **attrs):
    return {
        "type": "span", "name": name,
        "path": name if parent is None else f"{parent} > {name}",
        "parent": parent, "t_s": 0.0, "duration_s": duration, "attrs": attrs,
    }


def _event(name, **attrs):
    return {
        "type": "event", "name": name, "path": name, "parent": "flow",
        "t_s": 0.0, "duration_s": 0.0, "attrs": attrs,
    }


@pytest.fixture(scope="module")
def record(small_design, small_floorplan):
    """A flow_result document assembled from the shared small fixtures."""
    return {
        "schema": 1,
        "kind": "flow_result",
        "summary": {
            "benchmark": small_design.name,
            "mttf_increase": 1.42,
            "cpd_preserved": True,
            "degradation": "none",
        },
        "design": design_to_dict(small_design),
        "original_floorplan": floorplan_to_dict(small_floorplan),
        "remapped_floorplan": floorplan_to_dict(small_floorplan),
        "algorithm1": {
            "degradation": "none",
            "certified": True,
            "st_target_ns": 3.2,
            "stats": {
                "st_low_ns": 2.0, "st_up_ns": 4.0, "delta_ns": 0.2,
                "floor_ns": 2.9, "floor_skips": 4,
                "iterations": 2, "relaxations": 1,
                "final_st_target_ns": 3.2, "solves": 4,
                "st_trajectory": [3.0, 3.2],
                "verdicts": ["infeasible", "accepted"],
            },
            "iterations": [
                {
                    "iteration": 1,
                    "lp_stats": {
                        "backend": "highs", "kind": "lp", "nodes": 0,
                        "elapsed_s": 0.01,
                        "attribution": {
                            "rows": 5, "binding": 2,
                            "families": {
                                "stress": {"rows": 3, "binding": 2,
                                           "min_slack": 0.0},
                                "path": {"rows": 2, "binding": 0,
                                         "min_slack": 0.4},
                            },
                            "top_binding": [
                                {"row": 0, "name": "stress[1]",
                                 "family": "stress", "sense": "<=",
                                 "rhs": 3.2, "slack": 0.0,
                                 "tags": {"family": "stress", "pe": 1}},
                            ],
                            "saturated_pes": [1],
                            "tight_paths": [],
                        },
                    },
                },
            ],
            "explanations": [
                {"cause": "iteration", "iteration": 1,
                 "result": "lp_infeasible", "st_target_ns": 3.0},
                {"cause": "terminal", "terminal_cause": "st_ceiling_exhausted",
                 "iis": {
                     "status": "iis", "minimal": True, "verified": True,
                     "probes": 9, "elapsed_s": 0.12,
                     "families": {"stress": 1, "assignment": 1},
                     "involves": {"pes": [1], "contexts": [0], "ops": [4]},
                     "members": [
                         {"index": 0, "name": "stress[1]", "sense": "<=",
                          "rhs": 3.2, "tags": {"family": "stress", "pe": 1}},
                         {"index": 7, "name": "assign[4]", "sense": "==",
                          "rhs": 1.0,
                          "tags": {"family": "assignment", "op": 4}},
                     ],
                 }},
            ],
            "degradation_reason": None,
        },
    }


@pytest.fixture(scope="module")
def trace_summary():
    return summarize_records([
        _span("flow", duration=1.0),
        _span("solver", parent="flow", nodes=5, kind="milp", model="remap",
              status="optimal"),
        _event("algorithm1.explain", cause="iteration", iteration=1,
               result="relaxed_st"),
    ])


class TestSectionModel:
    def test_empty_sections_are_dropped(self):
        report = Report("t")
        report.add(Section("empty", "Empty"))
        filled = Section("full", "Full")
        filled.text("content")
        report.add(filled)
        assert [s.slug for s in report.sections] == ["full"]

    def test_empty_mapping_and_table_add_no_block(self):
        section = Section("s", "S")
        section.mapping({})
        section.table(["a"], [])
        assert not section.blocks

    def test_unknown_format_rejected(self):
        report = Report("t")
        with pytest.raises(ValueError):
            report.render("pdf")


class TestBuildReport:
    def test_requires_some_artefact(self):
        with pytest.raises(ValueError):
            build_report(None, None)

    def test_record_only_report_has_core_sections(self, record):
        report = build_report(record)
        slugs = [s.slug for s in report.sections]
        for expected in (
            "overview", "convergence", "trajectory", "attribution",
            "stress", "explanations",
        ):
            assert expected in slugs
        # No trace -> no timeline section (and no empty shell of one).
        assert "timeline" not in slugs

    def test_trace_only_report(self, trace_summary):
        report = build_report(None, trace_summary)
        slugs = [s.slug for s in report.sections]
        assert "overview" in slugs and "timeline" in slugs
        assert "stress" not in slugs  # needs a record

    def test_every_section_carries_blocks(self, record, trace_summary):
        report = build_report(record, trace_summary)
        assert report.sections
        for section in report.sections:
            assert section.blocks, f"section {section.slug} is empty"

    def test_trajectory_shows_step1_floor(self, record):
        page = render_markdown(build_report(record))
        assert "floor (ns)" in page
        assert "floor skips" in page

    def test_stress_section_survives_malformed_record(self, record):
        broken = dict(record)
        broken["design"] = {"kind": "mapped_design"}  # undecodable
        report = build_report(broken)
        assert "stress" not in [s.slug for s in report.sections]
        assert "overview" in [s.slug for s in report.sections]


class TestRenderers:
    def test_html_is_self_contained_and_populated(self, record, trace_summary):
        page = render_html(build_report(record, trace_summary))
        assert page.startswith("<!DOCTYPE html>")
        assert "<style>" in page and "<script" not in page
        assert "http://" not in page and "https://" not in page
        # Every section anchor present, none empty.
        for section in build_report(record, trace_summary).sections:
            marker = f'id="{section.slug}"'
            assert marker in page
        assert "stress[1]" in page          # IIS member name
        assert "st_ceiling_exhausted" in page

    def test_html_escapes_content(self, record):
        spiked = json.loads(json.dumps(record))
        spiked["summary"]["benchmark"] = "<script>alert(1)</script>"
        page = render_html(build_report(spiked))
        assert "<script>alert(1)</script>" not in page
        assert "&lt;script&gt;" in page

    def test_markdown_renders_all_sections(self, record, trace_summary):
        report = build_report(record, trace_summary)
        text = render_markdown(report)
        for section in report.sections:
            assert f"## {section.title}" in text
        assert "| family |" in text or "| row |" in text

    def test_heatmap_rows_match_fabric(self, record):
        report = build_report(record)
        (stress,) = [s for s in report.sections if s.slug == "stress"]
        heatmaps = [b for b in stress.blocks if b[0] == "heatmap"]
        assert len(heatmaps) == 2  # original + re-mapped
        _, col_labels, row_labels, grid = heatmaps[0]
        num_pes = len(row_labels)
        assert all(len(r) == num_pes for r in grid)
        assert col_labels[-1] == "accumulated"


@pytest.fixture(scope="module")
def workload_trace():
    """Two iteration spans, a sweep, one degradation and metric lines."""
    sink = CollectorSink()
    with attached(sink):
        with span("flow", benchmark="unit"):
            with span("phase1"):
                pass
            with span("phase2"):
                with span("iteration", index=1):
                    pass
                with span("iteration", index=2):
                    pass
            event("algorithm1.explain", cause="iteration", iteration=1)
            event("algorithm1.stats", benchmark="unit", mode="freeze",
                  degradation="none", ilp_bumps=3, cert_cold_rebuilds=1,
                  st_trajectory=[2.0], verdicts=["accepted"])
            event("certification.checked", benchmark="unit", checks=6)
        with span("table1_entry", benchmark="B1"):
            pass
        with span("table1_entry", benchmark="B2"):
            event("sweep.worker_crash", entry="B2", exitcode=-9)
    registry = MetricsRegistry()
    registry.counter("unit.count").inc(2)
    registry.histogram("unit.hist").observe(1.0)
    registry.histogram("kernels.sta.seconds").observe(0.5)
    metrics = [
        {"type": "metric", "name": name, "parent": None, "duration_s": 0.0,
         **data}
        for name, data in registry.snapshot().items()
    ]
    return summarize_records(sink.records + metrics)


def _section(report, slug):
    (section,) = [s for s in report.sections if s.slug == slug]
    return section


def _table_rows(section):
    return [row for block in section.blocks if block[0] == "table"
            for row in block[2]]


class TestTraceReport:
    """The facts a trace alone carries, each in exactly one section."""

    def test_timeline_counts_repeated_paths(self, workload_trace):
        (bars,) = _section(build_report(trace=workload_trace), "timeline").blocks
        counts = {label.strip(): count for label, count, _, _ in bars[1]}
        assert counts["iteration"] == 2  # two spans, one row
        assert counts["table1_entry"] == 2

    def test_timeline_parents_precede_children(self, workload_trace):
        (bars,) = _section(build_report(trace=workload_trace), "timeline").blocks
        names = [label.strip() for label, *_ in bars[1]]
        assert names.index("flow") < names.index("phase2")
        assert names.index("phase2") < names.index("iteration")
        page = render_markdown(build_report(trace=workload_trace))
        assert "| stage | count | wall_s | share_% |" in page

    def test_trace_without_spans_has_no_timeline(self):
        summary = summarize_records([_event("flow.fallback", reason="mttf")])
        slugs = [s.slug for s in build_report(trace=summary).sections]
        assert "timeline" not in slugs
        assert "degradations" in slugs

    def test_sweep_verdicts_worst_first(self, workload_trace):
        rows = _table_rows(_section(build_report(trace=workload_trace), "sweep"))
        assert rows == [["B2", "retried"], ["B1", "ok"]]

    def test_degradations_section(self, workload_trace):
        rows = _table_rows(
            _section(build_report(trace=workload_trace), "degradations")
        )
        assert rows == [
            ["sweep.worker_crash", "table1_entry", "entry=B2 exitcode=-9"]
        ]

    def test_events_section_holds_only_unrendered_events(self, workload_trace):
        rows = _table_rows(_section(build_report(trace=workload_trace), "events"))
        assert rows == [
            ["certification.checked", "flow", "benchmark=unit checks=6"]
        ]

    def test_metrics_section_and_kernel_timers_once(self, workload_trace):
        report = build_report(trace=workload_trace)
        rows = _table_rows(_section(report, "metrics"))
        assert [row[0] for row in rows] == ["unit.count", "unit.hist"]
        assert rows[0][1:] == ["counter", 2]
        assert "p50=1.0000" in rows[1][2] and "p95=1.0000" in rows[1][2]
        kernels = _table_rows(_section(report, "evaluation"))
        assert [row[0] for row in kernels] == ["kernels.sta.seconds"]
        assert "sum=0.5000" in kernels[0][2]

    def test_trajectory_names_the_run(self, workload_trace):
        trajectory = _section(build_report(trace=workload_trace), "trajectory")
        facts = trajectory.blocks[0][1]
        assert facts["benchmark (mode)"] == "unit (freeze)"
        assert facts["degradation"] == "none"
        assert facts["grid bumps (incl. floor skips)"] == 3
        assert facts["cert cold rebuilds"] == 1

    def test_record_trajectory_leaves_the_run_to_the_overview(self, record):
        trajectory = _section(build_report(record), "trajectory")
        assert "benchmark (mode)" not in trajectory.blocks[0][1]

    def test_metrics_formatter_reads_registry_snapshots(self):
        registry = MetricsRegistry()
        registry.gauge("g").set(1.5)
        registry.histogram("h").observe(2.0)
        rows = {name: (kind, value) for name, kind, value
                in metrics_rows(registry.snapshot())}
        assert rows["g"] == ("gauge", 1.5)
        assert rows["h"][1].startswith("count=1 sum=2.0000 mean=2.0000 p50=")
