"""Self-contained run reports (``repro explain``, ``repro trace summarize``).

Builds a single-file HTML (or markdown) report from the artefacts a run
leaves behind — a ``flow_result`` record (``repro flow ... -o record.json``)
and/or a JSONL trace (``--trace run.jsonl``) — so a solve can be explained
offline, on a machine with neither the repo nor a network.  It is the
only renderer of a run: ``repro trace summarize FILE`` prints the
markdown report of the trace alone.

* **overview** — the flow summary (MTTF increase, CPD, degradation);
* **timeline** — the span tree as per-stage counts and wall-time bars;
* **evaluation** — STA / stress / thermal / certification totals;
* **convergence** — the per-solve table (nodes, incumbent, bound, gap);
* **trajectory** — Algorithm 1's ``ST_target`` relaxation history;
* **attribution** — binding-constraint analysis of feasible solves in
  domain terms (families, top binding rows, saturated PEs);
* **stress** — per-context stress heatmaps of both floorplans;
* **explanations** — every ``algorithm1.explain`` event, including the
  IIS (irreducible infeasible subsystem) of an infeasible terminal solve;
* **sweep** — per-entry sweep verdicts;
* **degradations** — every :data:`~repro.obs.trace.DEGRADATION_EVENTS`
  event;
* **events** — every other event no section above renders;
* **metrics** — the run's final metrics snapshot.

Sections are built only when their inputs exist, and every built section
is guaranteed non-empty — the CI report gate relies on that.

This module stays out of ``repro.obs.__init__``: it imports
``repro.io`` and ``repro.aging`` (which import ``repro.obs``), so eager
package-root import would be a cycle.  Import it as
``from repro.obs import report``.
"""

from __future__ import annotations

import html as _html
import json
from dataclasses import dataclass, field
from typing import Any, Mapping, Sequence

from repro.obs.logs import get_logger
from repro.obs.solverstats import convergence_rows
from repro.obs.trace import DEGRADATION_EVENTS, TraceSummary

_log = get_logger("obs.report")

#: Version tag of the report layout.
REPORT_SCHEMA = "repro.report/1"

#: Heatmap colour ramp endpoints (light -> saturated), as RGB tuples.
_HEAT_LOW = (247, 251, 255)
_HEAT_HIGH = (8, 48, 107)

_CSS = """
body { font-family: -apple-system, 'Segoe UI', Roboto, sans-serif;
       margin: 2rem auto; max-width: 72rem; color: #1a1a2e; }
h1 { border-bottom: 2px solid #16213e; padding-bottom: .3rem; }
h2 { margin-top: 2rem; color: #16213e; }
table { border-collapse: collapse; margin: .5rem 0; font-size: .9rem; }
th, td { border: 1px solid #cbd5e1; padding: .25rem .6rem; text-align: left; }
th { background: #eef2f7; }
.bar { background: #4a7ebb; height: .8rem; display: inline-block; }
.heat td { text-align: right; font-variant-numeric: tabular-nums; }
.note { color: #556; font-style: italic; }
pre { background: #f6f8fa; padding: .6rem; overflow-x: auto; }
""".strip()


# -- section model -------------------------------------------------------------


@dataclass
class Section:
    """One report section: a slug (stable anchor), title and blocks.

    A block is a tuple whose first element names the kind:
    ``("text", str)``, ``("mapping", dict)``,
    ``("table", headers, rows)``,
    ``("bars", [(label, count, seconds, share), ...])`` or
    ``("heatmap", row_labels, col_labels, grid)``.
    """

    slug: str
    title: str
    blocks: list[tuple] = field(default_factory=list)

    def text(self, message: str) -> None:
        self.blocks.append(("text", message))

    def mapping(self, data: dict) -> None:
        if data:
            self.blocks.append(("mapping", data))

    def table(self, headers: Sequence[str], rows: Sequence[Sequence]) -> None:
        if rows:
            self.blocks.append(("table", list(headers), [list(r) for r in rows]))


@dataclass
class Report:
    """An ordered collection of non-empty sections, renderable twice."""

    title: str
    sections: list[Section] = field(default_factory=list)

    def add(self, section: Section) -> None:
        """Keep ``section`` only when it actually carries content."""
        if section.blocks:
            self.sections.append(section)

    def render(self, fmt: str) -> str:
        if fmt == "html":
            return render_html(self)
        if fmt in ("md", "markdown"):
            return render_markdown(self)
        raise ValueError(f"unknown report format {fmt!r}")


# -- builders ------------------------------------------------------------------


def _fmt(value: Any) -> str:
    if isinstance(value, float):
        return f"{value:.6g}"
    if isinstance(value, (list, tuple)):
        return ", ".join(_fmt(v) for v in value)
    return str(value)


#: Histogram fields a metrics row shows, in order (``count`` leads).
_HISTOGRAM_FIELDS = ("sum", "mean", "p50", "p95", "min", "max")


def metrics_rows(snapshot: Mapping[str, Mapping]) -> list[list[object]]:
    """``[metric, kind, value]`` rows of a metrics snapshot.

    Takes a live :meth:`~repro.obs.metrics.MetricsRegistry.snapshot`
    (``--metrics``) or a trace's ``metric`` lines; a histogram shows the
    fields it carries.
    """
    rows: list[list[object]] = []
    for name, data in snapshot.items():
        kind = data.get("kind", "?")
        if kind == "histogram":
            value = " ".join([f"count={data.get('count', 0)}"] + [
                f"{key}={float(data[key]):.4f}"
                for key in _HISTOGRAM_FIELDS
                if key in data
            ])
        else:
            value = data.get("value")
        rows.append([name, kind, value])
    return rows


def _event_rows(records: Sequence[Mapping]) -> list[list[object]]:
    """``[event, parent, detail]`` rows of trace event records."""
    rows = []
    for record in records:
        attrs = record.get("attrs") or {}
        detail = " ".join(f"{k}={v}" for k, v in attrs.items())
        rows.append([record["name"], record["parent"], detail])
    return rows


def _overview_section(record: dict | None, trace: TraceSummary | None) -> Section:
    section = Section("overview", "Run overview")
    if record is not None:
        summary = dict(record.get("summary") or {})
        alg1 = record.get("algorithm1") or {}
        if alg1.get("degradation_reason"):
            summary["degradation_reason"] = alg1["degradation_reason"]
        section.mapping(summary)
    if trace is not None and trace.records:
        section.mapping({
            "trace records": trace.records,
            "trace wall time (s)": round(trace.total_s, 3),
            "events": len(trace.events),
            "degradation events": len(trace.degradations),
            "solver spans": len(trace.solves),
        })
    return section


def _timeline_section(trace: TraceSummary | None) -> Section:
    section = Section("timeline", "Flow timeline")
    if trace is None or not trace.stages:
        return section
    bars = []
    for stage in trace.stages:
        share = 100.0 * stage.total_s / trace.total_s if trace.total_s else 0.0
        label = "  " * stage.depth + stage.name
        bars.append(
            (label, stage.count, round(stage.total_s, 3), round(share, 1))
        )
    section.blocks.append(("bars", bars))
    return section


def _evaluation_section(trace: TraceSummary | None) -> Section:
    """Evaluation-stage breakdown.

    Aggregates STA / stress / thermal / certification spans across the
    whole span tree and lists the ``kernels.*`` timers (STA, critical-path
    DP, stress map, thermal solves) beneath them, so a report answers
    "what did evaluation cost" at a glance.  Empty (and therefore
    omitted) when the trace carries no evaluation spans.
    """
    section = Section("evaluation", "Evaluation stages")
    if trace is None:
        return section
    section.table(
        ["stage", "count", "wall_s", "share_%"], trace.evaluation_table()
    )
    section.table(
        ["kernel metric", "kind", "value"],
        metrics_rows(trace.kernel_metrics()),
    )
    return section


def _iter_solve_stats(record: dict) -> list[dict]:
    """Flatten every per-solve stats dict out of a record's iteration log."""
    solves = []
    for entry in (record.get("algorithm1") or {}).get("iterations") or ():
        for key in ("lp_stats", "ilp_stats", "solve_stats"):
            stats = entry.get(key)
            if isinstance(stats, dict):
                label = f"iter{entry.get('iteration', '?')}.{key}"
                solves.append({"label": label, **stats})
    return solves


def _convergence_section(
    record: dict | None, trace: TraceSummary | None
) -> Section:
    section = Section("convergence", "Solver convergence")
    if trace is not None and trace.solves:
        section.table(
            ["model", "backend", "kind", "status", "nodes", "incumbent",
             "bound", "gap_%", "wall_s"],
            convergence_rows(trace.solves),
        )
        return section
    if record is not None:
        rows = []
        for stats in _iter_solve_stats(record):
            gap = stats.get("mip_gap")
            rows.append([
                stats["label"],
                stats.get("backend", "?"),
                stats.get("kind", "?"),
                stats.get("nodes", 0),
                _fmt(stats.get("incumbent")) if stats.get("incumbent") is not None else "-",
                _fmt(stats.get("best_bound")) if stats.get("best_bound") is not None else "-",
                f"{100.0 * float(gap):.2f}" if gap is not None else "-",
                stats.get("limit_reason") or "-",
                round(float(stats.get("elapsed_s", 0.0)), 3),
            ])
        section.table(
            ["solve", "backend", "kind", "nodes", "incumbent", "bound",
             "gap_%", "limit", "wall_s"],
            rows,
        )
    return section


def _trajectory_section(
    record: dict | None, trace: TraceSummary | None
) -> Section:
    section = Section("trajectory", "Algorithm 1 relaxation trajectory")
    runs: list[dict] = []
    if record is not None:
        stats = (record.get("algorithm1") or {}).get("stats") or {}
        if stats:
            runs.append(stats)
    elif trace is not None:
        runs.extend(trace.alg1_runs)
    for run in runs:
        facts: dict[str, Any] = {}
        if "benchmark" in run:
            # A trace event names its run; a record's overview does that.
            facts["benchmark (mode)"] = (
                f"{run['benchmark']} ({run.get('mode', '?')})"
            )
            facts["degradation"] = run.get("degradation")
        section.mapping({
            **facts,
            "ST range (ns)": (
                f"[{run.get('st_low_ns', 0.0):.4g}, "
                f"{run.get('st_up_ns', 0.0):.4g}]"
            ),
            "Delta (ns)": run.get("delta_ns"),
            "floor (ns)": run.get("floor_ns"),
            "floor skips": run.get("floor_skips"),
            "grid bumps (incl. floor skips)": run.get("ilp_bumps"),
            "iterations": run.get("iterations"),
            "relaxations": run.get("relaxations"),
            "lazy path rows": run.get("lazy_path_rows", 0),
            "final ST_target (ns)": run.get("final_st_target_ns"),
            "solves": run.get("solves"),
            "total nodes": run.get("total_nodes"),
            "max MIP gap": run.get("max_mip_gap"),
            "certifications": run.get("certifications"),
            "cert failures": run.get("cert_failures"),
            "cert cold rebuilds": run.get("cert_cold_rebuilds"),
        })
        trajectory = run.get("st_trajectory") or []
        verdicts = run.get("verdicts") or []
        rows_added = run.get("rows_added") or [0] * len(verdicts)
        section.table(
            ["iteration", "ST_target (ns)", "verdict", "rows added"],
            [
                [i + 1, round(float(st), 4), verdict, rows]
                for i, (st, verdict, rows) in enumerate(
                    zip(trajectory, verdicts, rows_added)
                )
            ],
        )
    return section


def _attributions(record: dict | None, trace: TraceSummary | None) -> list[dict]:
    """Every attribution payload in reach, most recent first.

    Trace solver spans carry the compact brief; record iteration logs
    carry the full :func:`repro.explain.attribute_solution` output.
    Full payloads are preferred.
    """
    full: list[dict] = []
    briefs: list[dict] = []
    if record is not None:
        for stats in _iter_solve_stats(record):
            attribution = stats.get("attribution")
            if isinstance(attribution, dict):
                full.append({"label": stats["label"], **attribution})
    if trace is not None:
        for span_record in trace.solves:
            attrs = span_record.get("attrs") or {}
            brief = attrs.get("attribution")
            if isinstance(brief, dict):
                briefs.append({"label": attrs.get("model", "?"), **brief})
    return list(reversed(full)) or list(reversed(briefs))


def _attribution_section(
    record: dict | None, trace: TraceSummary | None
) -> Section:
    section = Section("attribution", "Binding-constraint attribution")
    payloads = _attributions(record, trace)
    if not payloads:
        return section
    latest = payloads[0]
    families = latest.get("families") or {}
    if families and isinstance(next(iter(families.values())), dict):
        section.table(
            ["family", "rows", "binding", "min slack"],
            [
                [name, fam.get("rows"), fam.get("binding"),
                 _fmt(fam.get("min_slack"))]
                for name, fam in sorted(families.items())
            ],
        )
    elif families:
        section.table(
            ["family", "binding rows"],
            [[name, count] for name, count in sorted(families.items())],
        )
    top = latest.get("top_binding") or []
    if top:
        section.table(
            ["row", "name", "family", "sense", "rhs", "slack"],
            [
                [row.get("row"), row.get("name"), row.get("family"),
                 row.get("sense"), _fmt(row.get("rhs")),
                 _fmt(row.get("slack"))]
                for row in top
            ],
        )
    elif latest.get("top"):
        section.mapping({"top binding rows": ", ".join(latest["top"])})
    saturated = latest.get("saturated_pes")
    if saturated:
        section.mapping({"saturated PEs (stress at ST_target)": saturated})
    tight = latest.get("tight_paths")
    if tight:
        section.mapping({"CPD-critical monitored paths": tight})
    if len(payloads) > 1:
        section.text(
            f"(from solve {latest.get('label', '?')}; "
            f"{len(payloads) - 1} earlier attribution(s) omitted)"
        )
    return section


def _stress_section(record: dict | None) -> Section:
    section = Section("stress", "Per-context stress heatmap")
    if record is None:
        return section
    try:
        from repro.aging.stress import compute_stress_map
        from repro.io.serialize import design_from_dict, floorplan_from_dict

        design = design_from_dict(record["design"])
        plans = [
            ("original", floorplan_from_dict(record["original_floorplan"])),
            ("re-mapped", floorplan_from_dict(record["remapped_floorplan"])),
        ]
    except Exception as exc:  # noqa: BLE001 - report must not die on old records
        _log.warning("stress heatmap skipped: %s", exc)
        return section
    for label, floorplan in plans:
        stress = compute_stress_map(design, floorplan)
        grid = [
            [round(float(v), 3) for v in row] for row in stress.per_context_ns
        ]
        accumulated = [round(float(v), 3) for v in stress.accumulated_ns]
        section.text(
            f"{label} floorplan — accumulated stress "
            f"max {max(accumulated):.4g} ns, worst PE {stress.argmax_pe()}"
        )
        section.blocks.append((
            "heatmap",
            [f"ctx {c}" for c in range(stress.num_contexts)] + ["accumulated"],
            [f"PE{p}" for p in range(stress.num_pes)],
            grid + [accumulated],
        ))
    return section


def _explanations_section(
    record: dict | None, trace: TraceSummary | None
) -> Section:
    section = Section("explanations", "Why the solve ended this way")
    explains: list[dict] = []
    if record is not None:
        explains.extend((record.get("algorithm1") or {}).get("explanations") or [])
    if trace is not None:
        known = {json.dumps(e, sort_keys=True, default=str) for e in explains}
        for entry in trace.explains:
            if json.dumps(entry, sort_keys=True, default=str) not in known:
                explains.append(entry)
    if not explains and record is not None:
        alg1 = record.get("algorithm1") or {}
        if alg1.get("stats", {}).get("verdicts") == ["accepted"] or (
            alg1.get("degradation") == "none"
        ):
            section.text(
                "Nothing to explain: every iteration was accepted and the "
                "run ended without degradation."
            )
            return section
    for entry in explains:
        entry = dict(entry)
        iis = entry.pop("iis", None)
        culprit = entry.pop("culprit", None)
        section.mapping({k: _fmt(v) for k, v in entry.items()})
        if culprit:
            section.mapping({
                "culprit path context": culprit.get("context"),
                "culprit ops": _fmt(culprit.get("ops")),
                "culprit delay (ns)": _fmt(culprit.get("delay_ns")),
            })
        if iis:
            section.text(_describe_iis(iis))
            section.table(
                ["row", "constraint", "sense", "rhs", "domain tags"],
                [
                    [
                        member.get("index"),
                        member.get("name"),
                        member.get("sense"),
                        _fmt(member.get("rhs")),
                        ", ".join(
                            f"{k}={v}"
                            for k, v in (member.get("tags") or {}).items()
                        ),
                    ]
                    for member in iis.get("members") or ()
                ],
            )
    return section


def _describe_iis(iis: dict) -> str:
    status = iis.get("status")
    if status != "iis":
        return (
            f"IIS extraction ended with status {status!r}: "
            f"{iis.get('note') or 'no irreducible subsystem identified'}"
        )
    members = iis.get("members") or []
    quality = "minimal" if iis.get("minimal") else "reduced (not proven minimal)"
    verified = ", independently re-verified" if iis.get("verified") else ""
    return (
        f"The infeasibility reduces to {len(members)} constraint(s) "
        f"({quality}{verified}; {iis.get('probes', 0)} probe solves in "
        f"{float(iis.get('elapsed_s', 0.0)):.2f}s). Removing any one of "
        "them makes the remaining system feasible."
    )


#: Events the degradations, trajectory and explanations sections render.
_RENDERED_EVENTS = DEGRADATION_EVENTS | {
    "algorithm1.stats", "algorithm1.explain",
}


def _trace_tables(trace: TraceSummary) -> list[Section]:
    """The sweep, degradations, events and metrics sections."""
    event_headers = ["event", "parent", "detail"]
    others = [e for e in trace.events if e["name"] not in _RENDERED_EVENTS]
    kernels = trace.kernel_metrics()  # the evaluation section shows these
    metrics = {n: d for n, d in trace.metrics.items() if n not in kernels}
    tables = [
        ("sweep", "Sweep verdicts", ["entry", "verdict"],
         trace.verdict_table()),
        ("degradations", "Degradation events", event_headers,
         _event_rows(trace.degradations)),
        ("events", "Other events", event_headers, _event_rows(others)),
        ("metrics", "Metrics", ["metric", "kind", "value"],
         metrics_rows(metrics)),
    ]
    sections = []
    for slug, title, headers, rows in tables:
        section = Section(slug, title)
        section.table(headers, rows)
        sections.append(section)
    return sections


def build_report(
    record: dict | None = None,
    trace: TraceSummary | None = None,
    title: str | None = None,
) -> Report:
    """Assemble a report from whatever artefacts are in hand.

    ``record`` is a loaded ``flow_result`` document; ``trace`` a
    :class:`~repro.obs.trace.TraceSummary`.  Either may be ``None``, not
    both.
    """
    if record is None and trace is None:
        raise ValueError("need a flow record, a trace summary, or both")
    benchmark = None
    if record is not None:
        benchmark = (record.get("summary") or {}).get("benchmark")
    report = Report(title or f"Solve report: {benchmark or 'trace'}")
    report.add(_overview_section(record, trace))
    report.add(_timeline_section(trace))
    report.add(_evaluation_section(trace))
    report.add(_convergence_section(record, trace))
    report.add(_trajectory_section(record, trace))
    report.add(_attribution_section(record, trace))
    report.add(_stress_section(record))
    report.add(_explanations_section(record, trace))
    if trace is not None:
        for section in _trace_tables(trace):
            report.add(section)
    return report


# -- renderers -----------------------------------------------------------------


def _heat_color(value: float, low: float, high: float) -> str:
    if high <= low:
        fraction = 0.0
    else:
        fraction = max(0.0, min(1.0, (value - low) / (high - low)))
    channels = [
        round(a + fraction * (b - a))
        for a, b in zip(_HEAT_LOW, _HEAT_HIGH)
    ]
    return "#{:02x}{:02x}{:02x}".format(*channels)


def _esc(value: Any) -> str:
    return _html.escape(str(value))


def render_html(report: Report) -> str:
    """One self-contained HTML document: inline CSS, no external assets."""
    out = [
        "<!DOCTYPE html>",
        "<html lang=\"en\"><head><meta charset=\"utf-8\">",
        f"<title>{_esc(report.title)}</title>",
        f"<style>{_CSS}</style>",
        "</head><body>",
        f"<h1>{_esc(report.title)}</h1>",
        f"<p class=\"note\">schema {REPORT_SCHEMA}</p>",
    ]
    for section in report.sections:
        out.append(f"<section id=\"{_esc(section.slug)}\">")
        out.append(f"<h2>{_esc(section.title)}</h2>")
        for block in section.blocks:
            out.append(_render_html_block(block))
        out.append("</section>")
    out.append("</body></html>")
    return "\n".join(out)


def _render_html_block(block: tuple) -> str:
    kind = block[0]
    if kind == "text":
        return f"<p class=\"note\">{_esc(block[1])}</p>"
    if kind == "mapping":
        rows = "".join(
            f"<tr><th>{_esc(k)}</th><td>{_esc(v)}</td></tr>"
            for k, v in block[1].items()
        )
        return f"<table>{rows}</table>"
    if kind == "table":
        _, headers, rows = block
        head = "".join(f"<th>{_esc(h)}</th>" for h in headers)
        body = "".join(
            "<tr>" + "".join(f"<td>{_esc(c)}</td>" for c in row) + "</tr>"
            for row in rows
        )
        return f"<table><tr>{head}</tr>{body}</table>"
    if kind == "bars":
        rows = []
        for label, count, seconds, share in block[1]:
            width = max(1, round(3 * share))
            rows.append(
                "<tr>"
                f"<td><pre style=\"margin:0\">{_esc(label)}</pre></td>"
                f"<td>{count}</td>"
                f"<td>{seconds:.3f}s</td><td>{share:.1f}%</td>"
                f"<td><span class=\"bar\" style=\"width:{width}px\"></span></td>"
                "</tr>"
            )
        return (
            "<table><tr><th>stage</th><th>count</th><th>wall</th>"
            "<th>share</th><th></th></tr>"
            + "".join(rows)
            + "</table>"
        )
    if kind == "heatmap":
        _, row_labels, col_labels, grid = block
        flat = [v for row in grid for v in row]
        low, high = (min(flat), max(flat)) if flat else (0.0, 0.0)
        head = "<tr><th></th>" + "".join(
            f"<th>{_esc(c)}</th>" for c in col_labels
        ) + "</tr>"
        body = []
        for label, row in zip(row_labels, grid):
            cells = "".join(
                f"<td style=\"background:{_heat_color(v, low, high)};"
                f"color:{'#fff' if high > low and (v - low) / (high - low) > 0.6 else '#1a1a2e'}\">"
                f"{v:g}</td>"
                for v in row
            )
            body.append(f"<tr><th>{_esc(label)}</th>{cells}</tr>")
        return f"<table class=\"heat\">{head}{''.join(body)}</table>"
    raise ValueError(f"unknown block kind {kind!r}")


def render_markdown(report: Report) -> str:
    out = [f"# {report.title}", "", f"_schema {REPORT_SCHEMA}_", ""]
    for section in report.sections:
        out.append(f"## {section.title}")
        out.append("")
        for block in section.blocks:
            out.append(_render_md_block(block))
            out.append("")
    return "\n".join(out).rstrip() + "\n"


def _md_table(headers: Sequence[str], rows: Sequence[Sequence]) -> str:
    lines = [
        "| " + " | ".join(str(h) for h in headers) + " |",
        "| " + " | ".join("---" for _ in headers) + " |",
    ]
    for row in rows:
        lines.append("| " + " | ".join(str(c) for c in row) + " |")
    return "\n".join(lines)


def _render_md_block(block: tuple) -> str:
    kind = block[0]
    if kind == "text":
        return str(block[1])
    if kind == "mapping":
        return "\n".join(f"- **{k}**: {v}" for k, v in block[1].items())
    if kind == "table":
        return _md_table(block[1], block[2])
    if kind == "bars":
        return _md_table(
            ["stage", "count", "wall_s", "share_%"],
            [[f"`{label}`", *rest] for label, *rest in block[1]],
        )
    if kind == "heatmap":
        _, row_labels, col_labels, grid = block
        return _md_table(
            [""] + list(col_labels),
            [[label] + list(row) for label, row in zip(row_labels, grid)],
        )
    raise ValueError(f"unknown block kind {kind!r}")
