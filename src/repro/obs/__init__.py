"""Observability for the CAD flow: spans, metrics, sinks, logging.

The subsystem has four small parts that compose:

* :mod:`repro.obs.spans` — hierarchical :class:`Span` timing via
  ``contextvars`` (``flow > phase2 > algorithm1 > ... > lp_relax``);
* :mod:`repro.obs.metrics` — an always-on process-local
  :class:`MetricsRegistry` of counters/gauges/histograms;
* :mod:`repro.obs.sinks` — pluggable span sinks: :class:`JsonlSink`
  (one-event-per-line traces, rendered by :mod:`repro.obs.report`) and
  :class:`CollectorSink` (in-memory records, the transport of worker
  traces);
* :mod:`repro.obs.logs` — ``repro.*`` stdlib-logging helpers.

Typical library usage::

    from repro.obs import counter, get_logger, span

    _log = get_logger("milp.branch_bound")

    with span("solver", backend="branch_bound") as sp:
        ...
        counter("milp.bb.nodes_explored").inc(nodes)

Typical application usage::

    from repro.obs import JsonlSink, attached, registry

    with JsonlSink("trace.jsonl") as sink:
        with attached(sink):
            run_flow(design, fabric)
        sink.write_metrics(registry().snapshot())
"""

from repro.obs.logs import configure_logging, get_logger, parse_level
from repro.obs.metrics import (
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    counter,
    gauge,
    histogram,
    registry,
    timer,
)
from repro.obs.sinks import (
    CollectorSink,
    JsonlSink,
    replay_records,
)
from repro.obs.solverstats import (
    Algorithm1Stats,
    SolveProgress,
    SolveStats,
    TrajectorySample,
    convergence_rows,
    progress_enabled,
    set_progress,
)
from repro.obs.spans import (
    PATH_SEP,
    Span,
    add_sink,
    attached,
    clear_sinks,
    current_span,
    event,
    remove_sink,
    span,
)
from repro.obs.trace import (
    StageRow,
    TraceError,
    TraceSummary,
    read_trace,
    summarize_records,
    summarize_trace,
)

__all__ = [
    "PATH_SEP",
    "Algorithm1Stats",
    "CollectorSink",
    "Counter",
    "Gauge",
    "Histogram",
    "JsonlSink",
    "MetricsRegistry",
    "SolveProgress",
    "SolveStats",
    "Span",
    "StageRow",
    "TraceError",
    "TraceSummary",
    "TrajectorySample",
    "add_sink",
    "attached",
    "clear_sinks",
    "configure_logging",
    "convergence_rows",
    "counter",
    "current_span",
    "event",
    "gauge",
    "get_logger",
    "histogram",
    "parse_level",
    "progress_enabled",
    "read_trace",
    "registry",
    "remove_sink",
    "replay_records",
    "set_progress",
    "span",
    "summarize_records",
    "summarize_trace",
    "timer",
]
