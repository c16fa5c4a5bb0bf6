"""Performance-regression harness: ``repro bench run`` / ``repro bench compare``.

``run_suite`` executes the smoke-scale benchmark subset through the full
aging-aware flow, collecting per-entry

* wall time and per-stage wall times (from the span tree),
* solver statistics (solve count, branch-and-bound/HiGHS nodes, worst
  final MIP gap — from the ``solver`` spans' :class:`SolveStats` attrs),
* peak Python heap (``tracemalloc``) and process RSS (``resource``),
* the scientific outputs (MTTF increase, CPD preservation, degradation)
  so a perf regression can be told apart from a quality regression.

The result is a schema-versioned document (``kind: bench_record``,
written as ``BENCH_<timestamp>.json`` by the CLI); ``compare_records``
diffs two such documents against configurable relative thresholds and
reports regressions — the CLI exits nonzero on any, making the pair a
CI-ready performance gate.

This module deliberately lives outside ``repro.obs.__init__``: it imports
``repro.core`` (which itself imports ``repro.obs``), so eagerly importing
it from the package root would be a cycle.  Import it as
``from repro.obs import perf`` / ``from repro.obs.perf import run_suite``.
"""

from __future__ import annotations

import platform
import sys
import time
import tracemalloc
from dataclasses import dataclass, field

from repro.obs.logs import get_logger
from repro.obs.metrics import registry
from repro.obs.sinks import CollectorSink, replay_records
from repro.obs.spans import attached, clear_sinks
from repro.obs.trace import summarize_records

_log = get_logger("obs.perf")

#: Version tag of the bench record layout (bump on breaking change).
BENCH_SCHEMA = "repro.bench/1"

#: Default subset: representative Table I entries across usage classes
#: and context counts, all runnable at smoke scale in minutes.
SMOKE_BENCHMARKS = ("B1", "B4", "B10", "B13", "B19", "B22")

#: Fabric cap of the smoke profile (entries are scaled down to fit).
SMOKE_MAX_FABRIC = 8


def _rss_mb() -> float | None:
    """Process peak RSS in MiB, when the platform exposes it."""
    try:
        import resource
    except ImportError:  # pragma: no cover - non-POSIX
        return None
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    # Linux reports KiB, macOS bytes.
    divisor = 1024.0 if sys.platform != "darwin" else 1024.0 * 1024.0
    return peak / divisor


def _solver_aggregates(solves: list[dict]) -> dict:
    """Roll ``solver`` span records up into one per-entry summary.

    ``limit_hits`` stays the historical total; ``limit_reasons`` breaks it
    out per reason (``deadline``, ``node_limit``, ``time_limit``, ...) so
    a regression in limit hits names its cause.
    """
    agg = {
        "solves": len(solves),
        "milp_solves": 0,
        "nodes": 0,
        "max_mip_gap": 0.0,
        "solve_s": 0.0,
        "limit_hits": 0,
        "limit_reasons": {},
    }
    for record in solves:
        attrs = record.get("attrs", {})
        agg["solve_s"] += float(record.get("duration_s", 0.0))
        if attrs.get("kind") == "milp":
            agg["milp_solves"] += 1
        agg["nodes"] += int(attrs.get("nodes") or 0)
        gap = attrs.get("gap")
        if gap is not None:
            agg["max_mip_gap"] = max(agg["max_mip_gap"], float(gap))
        reason = attrs.get("limit_reason")
        if reason:
            agg["limit_hits"] += 1
            agg["limit_reasons"][reason] = (
                agg["limit_reasons"].get(reason, 0) + 1
            )
    agg["solve_s"] = round(agg["solve_s"], 6)
    return agg


def run_entry(
    name: str,
    mode: str = "rotate",
    time_limit_s: float = 15.0,
    max_fabric: int | None = SMOKE_MAX_FABRIC,
    seed: int = 0,
    max_iterations: int = 10,
) -> dict:
    """Run one benchmark through the flow and measure it.

    Returns the per-entry dict of a bench record (see :func:`run_suite`).
    """
    # Imports are deferred so importing this module never drags the whole
    # flow stack in (and cannot form an import cycle with repro.core).
    from repro.benchgen.suite import entry as suite_entry
    from repro.benchgen.synth import build_benchmark
    from repro.core.algorithm1 import Algorithm1Config
    from repro.core.flow import AgingAwareFlow, FlowConfig
    from repro.core.remap import RemapConfig

    bench = suite_entry(name)
    if max_fabric is not None:
        bench = bench.scaled(max_fabric)
    design, fabric = build_benchmark(bench.spec(seed))
    flow = AgingAwareFlow(
        FlowConfig(
            algorithm1=Algorithm1Config(
                mode=mode,
                max_iterations=max_iterations,
                remap=RemapConfig(time_limit_s=time_limit_s),
            )
        )
    )

    collector = CollectorSink()
    tracing_was_on = tracemalloc.is_tracing()
    if not tracing_was_on:
        tracemalloc.start()
    tracemalloc.reset_peak()
    start = time.perf_counter()
    with attached(collector):
        result = flow.run(design, fabric)
    wall_s = time.perf_counter() - start
    _, peak_bytes = tracemalloc.get_traced_memory()
    if not tracing_was_on:
        tracemalloc.stop()

    summary = summarize_records(collector.records)
    stages = {
        row.path: {"count": row.count, "total_s": round(row.total_s, 6)}
        for row in summary.stages
    }
    entry_record = {
        "benchmark": name,
        "fabric": f"{fabric.rows}x{fabric.cols}",
        "contexts": design.num_contexts,
        "wall_s": round(wall_s, 6),
        "peak_mem_mb": round(peak_bytes / (1024.0 * 1024.0), 3),
        "mttf_increase": result.mttf_increase,
        "cpd_preserved": result.cpd_preserved,
        "degradation": result.remap.degradation,
        "stages": stages,
        "solver": _solver_aggregates(summary.solves),
        "alg1": summary.alg1_runs[0] if summary.alg1_runs else None,
    }
    return entry_record


def _suite_worker(name: str, opts: dict) -> tuple[dict, list[dict]]:
    """Process-pool body of one suite entry.

    Runs in a worker process, so spans emitted there never reach the
    parent's sinks directly; a collector captures them as JSONL-shaped
    dicts (picklable) for the parent to replay.
    """
    clear_sinks()  # drop sinks (and their file handles) inherited via fork
    collector = CollectorSink()
    with attached(collector):
        entry_record = run_entry(name, **opts)
    return entry_record, collector.records


def _run_entries_parallel(
    names: tuple[str, ...], opts: dict, jobs: int
) -> dict:
    """Fan suite entries out over a process pool; results in suite order.

    Worker trace records are replayed into the parent's attached sinks as
    each entry completes, so ``--trace`` output covers the whole sweep.
    The first worker failure propagates after pending entries are
    cancelled.
    """
    from concurrent.futures import ProcessPoolExecutor, as_completed

    results: dict[str, dict] = {}
    with ProcessPoolExecutor(max_workers=min(jobs, len(names))) as pool:
        futures = {
            pool.submit(_suite_worker, name, opts): name for name in names
        }
        try:
            for future in as_completed(futures):
                name = futures[future]
                entry_record, records = future.result()
                replay_records(records)
                results[name] = entry_record
                _log.info(
                    "bench %s: %.2fs, %.1f MiB peak, %d solves",
                    name, entry_record["wall_s"], entry_record["peak_mem_mb"],
                    entry_record["solver"]["solves"],
                )
        except BaseException:
            for future in futures:
                future.cancel()
            raise
    return {name: results[name] for name in names}


def run_suite(
    benchmarks: tuple[str, ...] | list[str] | None = None,
    mode: str = "rotate",
    time_limit_s: float = 15.0,
    max_fabric: int | None = SMOKE_MAX_FABRIC,
    seed: int = 0,
    timestamp: str | None = None,
    jobs: int = 1,
) -> dict:
    """Run the benchmark suite and return a schema-versioned bench record.

    ``jobs > 1`` executes entries on a process pool (each entry is an
    independent flow run with its own seed-derived inputs, so results are
    identical to a serial run and the record keeps suite order).  The
    ``metrics`` snapshot then only reflects the parent process — per-entry
    numbers, which live in the entries themselves, are unaffected.
    """
    names = tuple(benchmarks) if benchmarks else SMOKE_BENCHMARKS
    opts = dict(
        mode=mode, time_limit_s=time_limit_s, max_fabric=max_fabric, seed=seed
    )
    if jobs > 1 and len(names) > 1:
        entries = _run_entries_parallel(names, opts, jobs)
    else:
        entries = {}
        for name in names:
            _log.info("bench %s ...", name)
            entries[name] = run_entry(name, **opts)
            _log.info(
                "bench %s: %.2fs, %.1f MiB peak, %d solves",
                name, entries[name]["wall_s"], entries[name]["peak_mem_mb"],
                entries[name]["solver"]["solves"],
            )
    record = {
        "schema": 1,
        "kind": "bench_record",
        "bench_schema": BENCH_SCHEMA,
        "timestamp": timestamp or time.strftime("%Y%m%dT%H%M%S"),
        "config": {
            "mode": mode,
            "time_limit_s": time_limit_s,
            "max_fabric": max_fabric,
            "seed": seed,
        },
        "env": {
            "python": platform.python_version(),
            "platform": platform.platform(),
        },
        "process_peak_rss_mb": _rss_mb(),
        "entries": entries,
        "metrics": registry().snapshot(),
    }
    return record


# -- comparison ----------------------------------------------------------------


@dataclass
class CompareThresholds:
    """Relative regression allowances of ``compare_records``.

    A metric regresses when ``candidate > baseline * (1 + rel)`` **and**
    the absolute increase exceeds the noise floor — small quantities
    (a 0.2 s stage, a 3-node solve) would otherwise trip on timer jitter.
    """

    wall_rel: float = 0.25
    wall_abs_s: float = 0.5
    mem_rel: float = 0.30
    mem_abs_mb: float = 8.0
    nodes_rel: float = 0.50
    nodes_abs: int = 50


@dataclass
class Regression:
    """One metric of one entry exceeding its threshold."""

    benchmark: str
    metric: str
    baseline: float
    candidate: float

    @property
    def ratio(self) -> float:
        if self.baseline == 0:
            return float("inf") if self.candidate else 1.0
        return self.candidate / self.baseline

    def describe(self) -> str:
        return (
            f"{self.benchmark}: {self.metric} {self.baseline:.3f} -> "
            f"{self.candidate:.3f} ({self.ratio:.2f}x)"
        )


@dataclass
class CompareResult:
    """Everything ``compare_records`` derived from the two documents."""

    rows: list[list[object]] = field(default_factory=list)
    regressions: list[Regression] = field(default_factory=list)
    warnings: list[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.regressions


def _check(
    result: CompareResult,
    benchmark: str,
    metric: str,
    base: float,
    cand: float,
    rel: float,
    abs_floor: float,
) -> None:
    if cand > base * (1.0 + rel) and cand - base > abs_floor:
        result.regressions.append(
            Regression(benchmark=benchmark, metric=metric,
                       baseline=base, candidate=cand)
        )


def compare_records(
    baseline: dict,
    candidate: dict,
    thresholds: CompareThresholds | None = None,
) -> CompareResult:
    """Diff two bench records; regressions exceed the given thresholds."""
    th = thresholds or CompareThresholds()
    result = CompareResult()
    for doc, label in ((baseline, "baseline"), (candidate, "candidate")):
        if doc.get("kind") != "bench_record":
            result.warnings.append(f"{label} is not a bench_record document")
        elif doc.get("bench_schema") != BENCH_SCHEMA:
            result.warnings.append(
                f"{label} bench schema {doc.get('bench_schema')!r} != "
                f"{BENCH_SCHEMA!r}; comparison may be unreliable"
            )
    base_entries = baseline.get("entries", {})
    cand_entries = candidate.get("entries", {})
    for name in base_entries:
        if name not in cand_entries:
            result.warnings.append(f"{name}: missing from candidate run")
    for name in cand_entries:
        if name not in base_entries:
            result.warnings.append(f"{name}: new in candidate run (no baseline)")

    for name in sorted(set(base_entries) & set(cand_entries)):
        base, cand = base_entries[name], cand_entries[name]
        b_wall, c_wall = float(base["wall_s"]), float(cand["wall_s"])
        b_mem, c_mem = float(base["peak_mem_mb"]), float(cand["peak_mem_mb"])
        b_nodes = int(base.get("solver", {}).get("nodes", 0))
        c_nodes = int(cand.get("solver", {}).get("nodes", 0))
        _check(result, name, "wall_s", b_wall, c_wall,
               th.wall_rel, th.wall_abs_s)
        _check(result, name, "peak_mem_mb", b_mem, c_mem,
               th.mem_rel, th.mem_abs_mb)
        _check(result, name, "solver.nodes", float(b_nodes), float(c_nodes),
               th.nodes_rel, float(th.nodes_abs))
        b_hits = int(base.get("solver", {}).get("limit_hits", 0))
        c_hits = int(cand.get("solver", {}).get("limit_hits", 0))
        if c_hits > b_hits:
            result.warnings.append(
                f"{name}: solver limit hits rose {b_hits} -> {c_hits} "
                f"(baseline {_format_reasons(base)}, "
                f"candidate {_format_reasons(cand)})"
            )
        b_mttf = float(base.get("mttf_increase", 0.0))
        c_mttf = float(cand.get("mttf_increase", 0.0))
        if c_mttf < b_mttf * 0.95:
            result.warnings.append(
                f"{name}: mttf_increase dropped {b_mttf:.2f} -> {c_mttf:.2f} "
                "(quality, not perf — investigate separately)"
            )
        if base.get("cpd_preserved") and not cand.get("cpd_preserved"):
            result.warnings.append(f"{name}: CPD no longer preserved")
        result.rows.append([
            name,
            round(b_wall, 3), round(c_wall, 3),
            _ratio_cell(b_wall, c_wall),
            round(b_mem, 1), round(c_mem, 1),
            b_nodes, c_nodes,
        ])
    return result


def _format_reasons(entry: dict) -> str:
    """``reason=count`` breakdown of an entry's solver limit hits."""
    reasons = entry.get("solver", {}).get("limit_reasons", {})
    if not reasons:
        return "no reason breakdown"
    return ", ".join(
        f"{reason}={count}" for reason, count in sorted(reasons.items())
    )


def _ratio_cell(base: float, cand: float) -> str:
    if base <= 0:
        return "-"
    return f"{cand / base:.2f}x"


def bench_table_rows(record: dict) -> list[list[object]]:
    """``bench run`` summary rows: one line per entry."""
    rows = []
    for name, entry in record.get("entries", {}).items():
        solver = entry.get("solver", {})
        rows.append([
            name,
            entry.get("fabric", "-"),
            round(float(entry["wall_s"]), 3),
            round(float(entry["peak_mem_mb"]), 1),
            solver.get("solves", 0),
            solver.get("nodes", 0),
            round(float(entry.get("mttf_increase", 0.0)), 2),
            entry.get("degradation", "-"),
        ])
    return rows
