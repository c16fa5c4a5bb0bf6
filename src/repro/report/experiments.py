"""Experiment drivers regenerating every table and figure of the paper.

Command-line usage (also installed as ``repro-experiments``)::

    python -m repro.report.experiments table1 [--scale quick|paper] [--only B13 ...]
    python -m repro.report.experiments fig5  [--scale quick|paper]
    python -m repro.report.experiments fig2a
    python -m repro.report.experiments fig2b [--bench B13]

Scales
------
``quick``  caps fabrics at 8x8 via :meth:`Table1Entry.scaled` (minutes on a
laptop); ``paper`` runs the verbatim Table I configurations (hours for the
16x16 entries).  Both exercise the identical code path — only problem size
changes.  EXPERIMENTS.md records measured-vs-published values.

Sweeps (``table1``, ``fig5``) run each entry in its own fresh worker
process, ``--jobs`` of them at once, and every flow with the one
configuration all runners share (:func:`repro.core.flow.flow_config`).
"""

from __future__ import annotations

import argparse
import asyncio
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

from repro.benchgen.suite import TABLE1, Table1Entry
from repro.benchgen.synth import build_benchmark
from repro.core.flow import AgingAwareFlow, flow_config
from repro.errors import FlowError, ReproError, SweepError, WorkerLostError
from repro.obs import (
    CollectorSink,
    attached,
    clear_sinks,
    configure_logging,
    counter,
    event,
    get_logger,
    replay_records,
    span,
)
from repro.resilience.checkpoint import SweepCheckpoint
from repro.resilience.deadline import Deadline, deadline_scope, shielded
from repro.resilience.faults import should_inject
from repro.resilience.isolation import run_isolated
from repro.report.figures import ascii_curve, bar_chart, series_csv, stress_grid
from repro.report.paper import (
    BenchmarkMeasurement,
    TABLE_HEADERS,
    class_averages,
    paper_class_averages,
    shape_checks,
)
from repro.report.tables import format_table

#: Fabric cap of the quick profile.
QUICK_MAX_FABRIC = 8

_log = get_logger("report.experiments")


def _log_line(message: str = "") -> None:
    """Library default output channel: the ``repro.*`` logger.

    The drivers accept any ``log`` callable; when none is given, lines go
    through ``repro.report.experiments`` at INFO instead of ``print`` so
    importing callers control the output policy.  The CLI entry point
    passes ``print`` explicitly — terminal output stays on stdout.
    """
    _log.info("%s", message)


#: Base of the exponential backoff slept before retrying an entry whose
#: worker died (doubles per fatal attempt).  Module-level so tests can
#: shrink it.
_CRASH_BACKOFF_BASE_S = 0.5


@dataclass
class ExperimentConfig:
    """How to run a suite experiment."""

    scale: str = "quick"  # "quick" | "paper"
    seed: int = 0
    only: list[str] = field(default_factory=list)
    time_limit_s: float = 180.0
    #: Wall-clock budget per benchmark entry (None = unlimited).
    deadline_s: float | None = None
    #: Path of the per-entry JSONL checkpoint (None = no checkpointing).
    checkpoint: str | None = None
    #: Skip entries already completed in the checkpoint file.
    resume: bool = False
    #: Record permanently-failed entries and continue instead of aborting.
    keep_going: bool = False
    #: Extra attempts after a worker crash or timeout; the last fatal
    #: attempt quarantines the entry.
    retries: int = 1
    #: How many entries run at once, each in its own worker process.
    jobs: int = 1
    #: Hard wall-clock limit per entry attempt; an overrunning worker is
    #: killed and the attempt counts as fatal (None = off).
    entry_timeout_s: float | None = None

    def suite(self) -> list[Table1Entry]:
        entries = [
            e for e in TABLE1 if not self.only or e.name in self.only
        ]
        if self.scale == "quick":
            entries = [e.scaled(QUICK_MAX_FABRIC) for e in entries]
        elif self.scale != "paper":
            raise ValueError(f"unknown scale {self.scale!r}")
        return entries


def measure_benchmark(
    entry: Table1Entry, config: ExperimentConfig
) -> BenchmarkMeasurement:
    """Run Phase 1 once and Phase 2 in both modes for one benchmark.

    Phase 1 (placement + baseline evaluation) is mode-independent, so it
    is shared between the Freeze and Rotate measurements — exactly as in
    the paper, where both columns start from the same Musketeer floorplan.
    Phase 2 keeps the original floorplan when a re-map lowers MTTF, as in
    every other runner.

    ``config.deadline_s`` bounds the whole measurement (Phase 1 shielded,
    as in :meth:`AgingAwareFlow.run`).
    """
    from repro.aging.mttf import mttf_increase as compute_increase

    design, fabric = build_benchmark(entry.spec(config.seed))
    deadline = (
        Deadline.after(config.deadline_s)
        if config.deadline_s is not None
        else None
    )
    increases: dict[str, float] = {}
    with deadline_scope(deadline):
        baseline_flow = AgingAwareFlow(
            flow_config("freeze", config.time_limit_s)
        )
        with shielded():
            original = baseline_flow.phase1(design, fabric)
        for mode in ("freeze", "rotate"):
            flow = AgingAwareFlow(flow_config(mode, config.time_limit_s))
            remapped, remap = flow.phase2(design, fabric, original)
            if remap.final_cpd_ns > remap.original_cpd_ns + 1e-6:
                raise FlowError(
                    f"{entry.name}/{mode}: re-mapped CPD "
                    f"{remap.final_cpd_ns:.6f} ns exceeds original "
                    f"{remap.original_cpd_ns:.6f} ns — "
                    "no-delay-degradation invariant broken"
                )
            increases[mode] = compute_increase(original.mttf, remapped.mttf)
    return BenchmarkMeasurement(
        entry=entry,
        freeze_increase=increases["freeze"],
        rotate_increase=increases["rotate"],
    )


def _measure_entry(entry: Table1Entry, config: ExperimentConfig) -> dict:
    """Worker body of one sweep entry; runs in its own process.

    Inherited sinks are dropped (their file handles belong to the
    parent), spans and events are captured by a local collector and
    shipped back as picklable records, and the checkpoint is never
    touched here: the parent owns every append.  A typed flow failure
    comes back as a ``failed`` record.  It is deterministic for its
    inputs, so a retry would only repeat it.
    """
    clear_sinks()
    collector = CollectorSink()
    start = time.perf_counter()
    with attached(collector), span("table1_entry", benchmark=entry.name):
        try:
            measurement = measure_benchmark(entry, config)
        except ReproError as exc:
            record = {
                "entry": entry.name,
                "status": "failed",
                "error": f"{type(exc).__name__}: {exc}",
            }
        else:
            record = {
                "entry": entry.name,
                "status": "ok",
                "seed": config.seed,
                "freeze_increase": measurement.freeze_increase,
                "rotate_increase": measurement.rotate_increase,
            }
    return {
        "record": record,
        "trace_records": collector.records,
        "wall_s": time.perf_counter() - start,
    }


def _measurement(entry: Table1Entry, record: dict) -> BenchmarkMeasurement:
    """The measurement an ``ok`` checkpoint record stores."""
    return BenchmarkMeasurement(
        entry=entry,
        freeze_increase=record["freeze_increase"],
        rotate_increase=record["rotate_increase"],
    )


async def _run_entry(
    entry: Table1Entry,
    config: ExperimentConfig,
    checkpoint: SweepCheckpoint | None,
    results: dict[str, BenchmarkMeasurement],
    log,
) -> str:
    """Attempt ladder of one entry; returns ``ok``, ``failed`` or
    ``quarantined``.

    Every attempt runs in a fresh worker process.  A crash or timeout
    appends a ``failed`` record, backs off, and retries; after
    ``retries + 1`` fatal attempts the entry is ``quarantined`` (still
    resumable: ``completed()`` only honours ``ok``).  A typed failure
    ends the ladder at once, and aborts the sweep unless
    ``config.keep_going``.
    """
    attempts = max(1, config.retries + 1)
    reason = ""
    for attempt in range(1, attempts + 1):
        if attempt > 1:
            if checkpoint is not None:
                checkpoint.append({
                    "entry": entry.name, "status": "failed", "error": reason,
                })
            backoff = _CRASH_BACKOFF_BASE_S * 2 ** (attempt - 2)
            log(f"{entry.name}: {reason}; retrying in {backoff:.1f}s")
            await asyncio.sleep(backoff)
        # Fault verdicts are taken here, in the parent, so per-point hit
        # counters are process-stable (see repro.resilience.isolation).
        inject = None
        if should_inject("worker_crash"):
            inject = "crash"
        elif should_inject("worker_hang"):
            inject = "hang"
        try:
            outcome = await run_isolated(
                _measure_entry, (entry, config), config.entry_timeout_s, inject
            )
        except WorkerLostError as lost:
            reason = str(lost)
            if lost.timed_out:
                counter("sweep.entry_timeouts").inc()
                event("sweep.entry_timeout", entry=entry.name,
                      strikes=attempt, error=reason)
            else:
                counter("sweep.worker_crashes").inc()
                event("sweep.worker_crash", entry=entry.name,
                      strikes=attempt, error=reason)
            continue
        replay_records(outcome["trace_records"])
        record = outcome["record"]
        if checkpoint is not None:
            checkpoint.append(record)
        if record["status"] == "ok":
            measurement = results[entry.name] = _measurement(entry, record)
            log(
                f"{entry.name}: freeze "
                f"{measurement.freeze_increase:.2f}x "
                f"(paper {entry.freeze_ref:.2f}) rotate "
                f"{measurement.rotate_increase:.2f}x "
                f"(paper {entry.rotate_ref:.2f}) "
                f"[{outcome['wall_s']:.1f}s]"
            )
            return "ok"
        counter("sweep.entry_failures").inc()
        event("sweep.entry_failed", entry=entry.name, error=record["error"])
        if not config.keep_going:
            raise SweepError(
                f"{entry.name}: failed after {attempt} attempt(s): "
                f"{record['error']}"
            )
        log(
            f"{entry.name}: FAILED ({record['error']}); "
            "continuing (--keep-going)"
        )
        return "failed"
    counter("sweep.entries_quarantined").inc()
    event("sweep.quarantined", entry=entry.name, strikes=attempts,
          error=reason)
    if checkpoint is not None:
        checkpoint.append({
            "entry": entry.name,
            "status": "quarantined",
            "strikes": attempts,
            "error": reason,
        })
    log(
        f"{entry.name}: QUARANTINED after {attempts} fatal attempt(s) "
        f"({reason}); a --resume run will retry it"
    )
    return "quarantined"


async def _sweep(
    pending: list[Table1Entry],
    config: ExperimentConfig,
    checkpoint: SweepCheckpoint | None,
    results: dict[str, BenchmarkMeasurement],
    log,
) -> dict[str, str]:
    """Run ``pending`` through :func:`_run_entry`, ``config.jobs`` at a
    time; returns each entry's final status."""
    queue = list(pending)
    statuses: dict[str, str] = {}

    async def lane() -> None:
        while queue:
            entry = queue.pop(0)
            statuses[entry.name] = await _run_entry(
                entry, config, checkpoint, results, log
            )

    await asyncio.gather(
        *(lane() for _ in range(min(max(1, config.jobs), len(queue))))
    )
    return statuses


def run_table1(config: ExperimentConfig, log=_log_line) -> list[BenchmarkMeasurement]:
    """Regenerate Table I (measured vs published).

    With ``config.checkpoint`` set, every completed entry is appended to a
    JSONL checkpoint as it finishes (flushed + fsynced, so a kill at any
    point loses at most the in-flight entry).  ``config.resume`` skips
    entries the checkpoint already records as ``ok`` and reconstructs
    their measurements verbatim — the final table is bit-identical to an
    uninterrupted run.  ``config.keep_going`` records a permanently-failed
    entry and moves on instead of aborting the sweep.

    Every entry still to measure runs in its own fresh worker process,
    through the attempt the service makes per job
    (:func:`repro.resilience.isolation.run_isolated`), ``config.jobs`` of
    them at once.  ``--jobs`` changes only wall time: measurements and
    checkpoint records are identical at any width, and the returned list
    keeps suite order regardless of completion order.
    """
    checkpoint = (
        SweepCheckpoint(Path(config.checkpoint)) if config.checkpoint else None
    )
    done: dict[str, dict] = {}
    if checkpoint is not None:
        if config.resume:
            done = checkpoint.completed()
        else:
            checkpoint.reset()
    suite = config.suite()
    results: dict[str, BenchmarkMeasurement] = {}
    pending: list[Table1Entry] = []
    for entry in suite:
        record = done.get(entry.name)
        if record is not None:
            counter("sweep.entries_resumed").inc()
            results[entry.name] = _measurement(entry, record)
            log(f"{entry.name}: restored from checkpoint")
        else:
            pending.append(entry)
    statuses = asyncio.run(_sweep(pending, config, checkpoint, results, log))
    failed = [e.name for e in pending if statuses[e.name] == "failed"]
    quarantined = [
        e.name for e in pending if statuses[e.name] == "quarantined"
    ]
    measurements = [
        results[entry.name] for entry in suite if entry.name in results
    ]
    if failed:
        log("")
        log(
            f"WARNING: {len(failed)} entr{'y' if len(failed) == 1 else 'ies'} "
            f"failed permanently: {', '.join(failed)}"
        )
    if quarantined:
        log("")
        log(
            f"WARNING: {len(quarantined)} "
            f"entr{'y' if len(quarantined) == 1 else 'ies'} quarantined "
            f"after repeated worker deaths: {', '.join(quarantined)}; "
            "a --resume run will retry them"
        )
    log("")
    if not measurements:
        log("no entries completed; nothing to tabulate")
        return measurements
    log(format_table(TABLE_HEADERS, [m.row() for m in measurements]))
    log("")
    measured_avg = class_averages(measurements)
    published_avg = paper_class_averages()
    rows = []
    for usage, (freeze, rotate) in measured_avg.items():
        p_freeze, p_rotate = published_avg[usage]
        rows.append([usage, freeze, p_freeze, rotate, p_rotate])
    log(format_table(
        ["usage", "freeze avg", "paper", "rotate avg", "paper"], rows
    ))
    log("")
    for check in shape_checks(measurements):
        status = "PASS" if check.holds else "MISS"
        log(f"[{status}] {check.name}: {check.detail}")
    return measurements


def run_fig5(config: ExperimentConfig, log=_log_line) -> None:
    """Regenerate Fig. 5: grouped bars by C/F group and usage class."""
    measurements = run_table1(config, log=lambda *_: None)
    groups: list[str] = []
    series: dict[str, list[float | None]] = {
        "low": [], "medium": [], "high": []
    }
    for entry in config.suite():
        if entry.group not in groups:
            groups.append(entry.group)
    by_key = {
        (m.entry.group, m.entry.usage_class): m.rotate_increase
        for m in measurements
    }
    for group in groups:
        for usage in series:
            series[usage].append(by_key.get((group, usage)))
    log("MTTF increase (x) by fabric group — Fig. 5")
    log(bar_chart(groups, series))


def run_fig2a(log=_log_line) -> None:
    """Regenerate Fig. 2(a): accumulated stress grids before/after."""
    from repro.benchgen.suite import entry as suite_entry

    design, fabric = build_benchmark(suite_entry("B1").spec())
    flow = AgingAwareFlow(flow_config("rotate", 60.0))
    result = flow.run(design, fabric)
    log("Original accumulated stress (ns) — aging-unaware floorplan:")
    log(stress_grid(fabric, result.original.stress.accumulated_ns))
    log(f"max = {result.original.stress.max_accumulated_ns:.2f} ns")
    log("")
    log("Re-mapped accumulated stress (ns) — aging-aware floorplan:")
    log(stress_grid(fabric, result.remapped.stress.accumulated_ns))
    log(f"max = {result.remapped.stress.max_accumulated_ns:.2f} ns")


def run_fig2b(bench: str = "B13", log=_log_line, csv: bool = False) -> None:
    """Regenerate Fig. 2(b): Vth shift vs time, original vs re-mapped."""
    from repro.aging.mttf import vth_curve
    from repro.benchgen.suite import entry as suite_entry

    design, fabric = build_benchmark(suite_entry(bench).scaled(8).spec())
    flow = AgingAwareFlow(flow_config("rotate", 120.0))
    result = flow.run(design, fabric)
    horizon = 1.3 * result.remapped.mttf.mttf_s
    original = vth_curve(result.original.mttf, "original", horizon_s=horizon)
    remapped = vth_curve(result.remapped.mttf, "re-mapped", horizon_s=horizon)
    if csv:
        log(series_csv([original, remapped]))
        return
    log(f"Vth shift vs time — {bench} (Fig. 2b)")
    log(ascii_curve([original, remapped]))
    log(f"MTTF increase: {result.mttf_increase:.2f}x")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        description="Regenerate the paper's tables and figures."
    )
    parser.add_argument(
        "experiment", choices=["table1", "fig5", "fig2a", "fig2b"]
    )
    parser.add_argument("--scale", default="quick", choices=["quick", "paper"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--only", nargs="*", default=[])
    parser.add_argument("--bench", default="B13")
    parser.add_argument("--csv", action="store_true")
    parser.add_argument("--time-limit", type=float, default=180.0)
    parser.add_argument(
        "--deadline", type=float, default=None, metavar="SECONDS",
        help="wall-clock budget per benchmark entry (default: unlimited)",
    )
    parser.add_argument(
        "--checkpoint", default=None, metavar="PATH",
        help="JSONL checkpoint file for table1/fig5 sweeps "
        "(default: <experiment>-<scale>.checkpoint.jsonl; "
        "pass 'none' to disable)",
    )
    parser.add_argument(
        "--resume", action="store_true",
        help="skip entries already completed in the checkpoint",
    )
    parser.add_argument(
        "--keep-going", action="store_true",
        help="record failed entries and continue instead of aborting",
    )
    parser.add_argument(
        "--retries", type=int, default=1,
        help="extra attempts per entry after a worker crash or timeout; "
        "the last fatal attempt quarantines the entry (default: 1)",
    )
    parser.add_argument(
        "--jobs", type=int, default=1, metavar="N",
        help="measure N table1/fig5 entries at once, each in its own "
        "worker process (default: 1; results are identical at any N)",
    )
    parser.add_argument(
        "--entry-timeout", type=float, default=None, metavar="SECONDS",
        help="hard wall-clock limit per entry attempt; an overrunning "
        "worker is killed and the entry retried (default: no timeout)",
    )
    parser.add_argument(
        "--log-level", default="warning",
        choices=["debug", "info", "warning", "error", "critical"],
    )
    args = parser.parse_args(argv)

    checkpoint = args.checkpoint
    if args.experiment in ("table1", "fig5"):
        if checkpoint is None:
            checkpoint = f"{args.experiment}-{args.scale}.checkpoint.jsonl"
        elif checkpoint.lower() == "none":
            checkpoint = None
    else:
        checkpoint = None
    config = ExperimentConfig(
        scale=args.scale,
        seed=args.seed,
        only=list(args.only),
        time_limit_s=args.time_limit,
        deadline_s=args.deadline,
        checkpoint=checkpoint,
        resume=args.resume,
        keep_going=args.keep_going,
        retries=args.retries,
        jobs=args.jobs,
        entry_timeout_s=args.entry_timeout,
    )
    configure_logging(args.log_level)
    # CLI invocation: experiment output belongs on stdout, so the drivers
    # get ``print`` explicitly; library callers default to the repro logger.
    try:
        if args.experiment == "table1":
            run_table1(config, log=print)
        elif args.experiment == "fig5":
            run_fig5(config, log=print)
        elif args.experiment == "fig2a":
            run_fig2a(log=print)
        else:
            run_fig2b(bench=args.bench, log=print, csv=args.csv)
    except ReproError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
