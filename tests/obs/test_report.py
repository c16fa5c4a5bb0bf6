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
from repro.obs import summarize_records
from repro.obs.report import (
    Report,
    Section,
    build_report,
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
