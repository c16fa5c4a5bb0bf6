"""Offline analysis of JSONL traces (``repro trace summarize``).

A trace is re-read as a list of dict records (one per line); the summary
aggregates span records per path into wall-time/count rows, reports the
total wall time (sum of root spans — spans with ``parent == null``), and
carries events and ``metric`` lines through for the run report
(:func:`repro.obs.report.build_report`), which renders it.

Crash-truncated traces are expected input: a killed sweep leaves a torn
final line behind, so :func:`read_trace` skips (and warns about) a
malformed *last* line instead of raising — only corruption before the
tail is an error.
"""

from __future__ import annotations

import json
import pathlib
from dataclasses import dataclass, field
from typing import Iterable, Mapping

from repro.errors import ReproError
from repro.obs.logs import get_logger
from repro.obs.spans import PATH_SEP

_log = get_logger("obs.trace")


class TraceError(ReproError):
    """A trace file line is not a valid observability record."""


#: Keys every trace record must carry (the JSONL contract).
REQUIRED_KEYS = ("type", "name", "duration_s", "parent")

#: Event names that signal degraded execution (resilience ladder, budget
#: expiry, fault injection, sweep worker deaths and failures).  The run
#: report lists matching events in a dedicated section so a degraded run
#: is visible at a glance.
DEGRADATION_EVENTS = frozenset(
    {
        "flow.fallback",
        "phase2.degraded",
        "algorithm1.fallback",
        "algorithm1.degraded",
        "deadline.expired",
        "fault.injected",
        "anneal.deadline_stop",
        "anneal.nan_abort",
        "sweep.entry_failed",
        "sweep.worker_crash",
        "sweep.entry_timeout",
        "sweep.quarantined",
        "certification.failed",
        "certification.cold_rebuild",
    }
)

#: Leaf span names of the flow's *evaluation* stages: STA, path
#: filtering, stress, thermal, MTTF and certification.  The run report
#: aggregates these across the span tree (a stage may appear under
#: several parents: phase1/phase2 evaluate, algorithm1 iterations) into
#: one per-stage breakdown.  Order is the display order.
EVALUATION_STAGES = (
    "evaluate",
    "sta",
    "sta_verify",
    "critical_paths",
    "path_filter",
    "stress",
    "thermal",
    "mttf",
    "certify",
)

#: Per-entry sweep verdicts, worst first.  An entry's verdict is the
#: highest-ranked signal seen for it anywhere in the trace: a clean
#: ``table1_entry`` span is ``ok``; worker crash/timeout events upgrade
#: it to ``retried``; a typed failure, certification failure, and
#: quarantine win over everything before them.
_EVALUATION_STAGE_SET = frozenset(EVALUATION_STAGES)

VERDICT_RANK = {
    "ok": 0,
    "retried": 1,
    "cert-failed": 2,
    "failed": 3,
    "quarantined": 4,
}

#: Event name -> the sweep verdict it implies for its entry/benchmark.
_EVENT_VERDICTS = {
    "sweep.worker_crash": "retried",
    "sweep.entry_timeout": "retried",
    "sweep.entry_failed": "failed",
    "sweep.quarantined": "quarantined",
    "certification.failed": "cert-failed",
}


@dataclass
class StageRow:
    """Aggregated statistics of one span path."""

    path: str
    count: int = 0
    total_s: float = 0.0

    @property
    def depth(self) -> int:
        return self.path.count(PATH_SEP)

    @property
    def name(self) -> str:
        return self.path.split(PATH_SEP)[-1]


@dataclass
class TraceSummary:
    """Everything ``summarize_trace`` extracted from one file."""

    stages: list[StageRow] = field(default_factory=list)
    events: list[dict] = field(default_factory=list)
    metrics: dict[str, dict] = field(default_factory=dict)
    #: Events whose name is in :data:`DEGRADATION_EVENTS`, in trace order.
    degradations: list[dict] = field(default_factory=list)
    #: ``solver`` span records, in trace order — the raw material of the
    #: per-solve convergence table (attrs carry ``SolveStats.span_attrs``).
    solves: list[dict] = field(default_factory=list)
    #: ``algorithm1.stats`` event attrs, one dict per Algorithm 1 run.
    alg1_runs: list[dict] = field(default_factory=list)
    #: ``algorithm1.explain`` event attrs — one "why was this iteration
    #: rejected / why did the run end" record per emission, in trace order.
    explains: list[dict] = field(default_factory=list)
    #: Per-sweep-entry verdict (see :data:`VERDICT_RANK`), in the order
    #: entries first appear in the trace.
    sweep_entries: dict[str, str] = field(default_factory=dict)
    #: Sum of root-span durations = the trace's total wall time.
    total_s: float = 0.0
    records: int = 0

    def evaluation_stages(self) -> list[StageRow]:
        """Evaluation-stage totals aggregated across the span tree.

        One row per :data:`EVALUATION_STAGES` leaf name that occurs in
        the trace (in canonical order), summing every path ending in that
        name — e.g. ``flow > phase1 > evaluate > stress`` and
        ``flow > phase2 > evaluate > stress`` fold into one ``stress``
        row.  Empty when the trace has no evaluation spans.
        """
        totals: dict[str, StageRow] = {}
        for row in self.stages:
            name = row.name
            if name in _EVALUATION_STAGE_SET:
                agg = totals.get(name)
                if agg is None:
                    agg = totals[name] = StageRow(path=name)
                agg.count += row.count
                agg.total_s += row.total_s
        return [totals[name] for name in EVALUATION_STAGES if name in totals]

    def evaluation_table(self) -> list[list[object]]:
        """``[stage, count, wall_s, share_%]`` rows of the evaluation stages."""
        rows: list[list[object]] = []
        for row in self.evaluation_stages():
            share = 100.0 * row.total_s / self.total_s if self.total_s else 0.0
            rows.append(
                [row.path, row.count, round(row.total_s, 3), round(share, 1)]
            )
        return rows

    def kernel_metrics(self) -> dict[str, dict]:
        """The ``kernels.*`` metric records (evaluation-stage timers)."""
        return {
            name: data
            for name, data in sorted(self.metrics.items())
            if name.startswith("kernels.")
        }

    def to_dict(self) -> dict:
        """JSON-safe form of the whole summary (``trace summarize --json``)."""
        return {
            "schema": 1,
            "kind": "trace_summary",
            "records": self.records,
            "total_s": round(self.total_s, 6),
            "evaluation_stages": {
                row.path: {"count": row.count, "total_s": round(row.total_s, 6)}
                for row in self.evaluation_stages()
            },
            "stages": [
                {
                    "path": row.path,
                    "count": row.count,
                    "total_s": round(row.total_s, 6),
                }
                for row in self.stages
            ],
            "metrics": self.metrics,
            "degradations": self.degradations,
            "solves": self.solves,
            "alg1_runs": self.alg1_runs,
            "explains": self.explains,
            "sweep_entries": self.sweep_entries,
            "events": self.events,
        }

    def verdict_table(self) -> list[list[str]]:
        """Per-entry ``[entry, verdict]`` rows, worst verdicts first."""
        return [
            [entry, verdict]
            for entry, verdict in sorted(
                self.sweep_entries.items(),
                key=lambda item: (-VERDICT_RANK[item[1]], item[0]),
            )
        ]


def parse_trace_line(line: str, lineno: int = 0) -> dict:
    """Parse and validate one JSONL record."""
    try:
        record = json.loads(line)
    except json.JSONDecodeError as exc:
        raise TraceError(f"line {lineno}: not valid JSON: {exc}") from exc
    if not isinstance(record, dict):
        raise TraceError(f"line {lineno}: expected a JSON object")
    missing = [key for key in REQUIRED_KEYS if key not in record]
    if missing:
        raise TraceError(f"line {lineno}: record missing keys {missing}")
    return record


def read_trace(
    path: str | pathlib.Path, tolerate_torn_tail: bool = True
) -> list[dict]:
    """All records of a trace file, validated.

    A malformed *final* line is what a crash mid-write leaves behind (the
    exact artefact of a killed sweep), so by default it is skipped with a
    warning instead of raising; malformed lines anywhere else still raise
    :class:`TraceError`.  Pass ``tolerate_torn_tail=False`` to make any
    malformed line fatal.
    """
    try:
        with open(path, "r", encoding="utf-8") as handle:
            lines = [
                (lineno, line.strip())
                for lineno, line in enumerate(handle, start=1)
                if line.strip()
            ]
    except OSError as exc:
        raise TraceError(f"cannot read trace {path}: {exc}") from exc
    records = []
    for position, (lineno, line) in enumerate(lines):
        try:
            records.append(parse_trace_line(line, lineno))
        except TraceError:
            if not tolerate_torn_tail or position != len(lines) - 1:
                raise
            _log.warning(
                "%s: line %d is torn (crash-truncated write?); skipped",
                path, lineno,
            )
    return records


def _note_verdict(summary: TraceSummary, entry: object, verdict: str) -> None:
    """Upgrade ``entry``'s sweep verdict if ``verdict`` outranks it."""
    if not isinstance(entry, str) or not entry:
        return
    current = summary.sweep_entries.get(entry)
    if current is None or VERDICT_RANK[verdict] > VERDICT_RANK[current]:
        summary.sweep_entries[entry] = verdict


def summarize_records(records: Iterable[Mapping]) -> TraceSummary:
    """Aggregate records into per-stage rows + total wall time."""
    summary = TraceSummary()
    order: list[str] = []
    by_path: dict[str, StageRow] = {}
    for record in records:
        summary.records += 1
        kind = record.get("type")
        if kind == "span":
            path = record.get("path", record["name"])
            row = by_path.get(path)
            if row is None:
                row = by_path[path] = StageRow(path=path)
                order.append(path)
            row.count += 1
            row.total_s += float(record["duration_s"])
            if record["parent"] is None:
                summary.total_s += float(record["duration_s"])
            if record["name"] == "solver":
                summary.solves.append(dict(record))
            elif record["name"] == "table1_entry":
                attrs = record.get("attrs") or {}
                _note_verdict(summary, attrs.get("benchmark"), "ok")
        elif kind == "event":
            summary.events.append(dict(record))
            if record["name"] in DEGRADATION_EVENTS:
                summary.degradations.append(dict(record))
            elif record["name"] == "algorithm1.stats":
                summary.alg1_runs.append(dict(record.get("attrs", {})))
            elif record["name"] == "algorithm1.explain":
                summary.explains.append(dict(record.get("attrs", {})))
            verdict = _EVENT_VERDICTS.get(record["name"])
            if verdict is not None:
                attrs = record.get("attrs") or {}
                _note_verdict(
                    summary,
                    attrs.get("entry", attrs.get("benchmark")),
                    verdict,
                )
        elif kind == "metric":
            summary.metrics[record["name"]] = {
                k: v for k, v in record.items() if k not in ("type", "name")
            }
    order.sort(key=lambda p: p.split(PATH_SEP))
    summary.stages = [by_path[path] for path in order]
    return summary


def summarize_trace(path: str | pathlib.Path) -> TraceSummary:
    """Read + aggregate one JSONL trace file."""
    return summarize_records(read_trace(path))
