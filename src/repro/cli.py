"""Command-line interface for the aging-aware CAD flow.

Subcommands mirror the flow's stages so artefacts can be produced,
inspected and re-analysed from the shell::

    python -m repro.cli compile  kernel.c -o design.json [--capacity 16]
    python -m repro.cli place    design.json --fabric 4x4 -o floorplan.json
    python -m repro.cli remap    design.json floorplan.json -o remapped.json \
                                 [--mode rotate] [--time-limit 30]
    python -m repro.cli analyze  design.json floorplan.json
    python -m repro.cli flow     kernel.c --fabric 4x4 [-o result.json]
    python -m repro.cli bench    one B13 [--scaled 8] [--mode rotate]
    python -m repro.cli bench    run [-o BENCH.json] [--benchmarks B1,B4]
    python -m repro.cli bench    compare baseline.json candidate.json
    python -m repro.cli verify   result.json [--certify-backend branch-bound]
    python -m repro.cli trace    summarize trace.jsonl [--json]
    python -m repro.cli explain  result.json [trace.jsonl] [-o report.html]
    python -m repro.cli explain  design.json --probe-infeasible [--fabric 4x4]
    python -m repro.cli serve    [--state-dir DIR] [--port 0] [--concurrency 2]

``compile`` accepts a mini-C file or a named library kernel (fir8,
matvec4, checksum, sobel3).  ``analyze`` prints CPD, stress and MTTF for
any (design, floorplan) pair — so saved artefacts from different runs can
be compared without re-solving anything.

Observability (``flow``, ``remap`` and ``bench``; docs/observability.md):

``--trace FILE.jsonl``
    Record the run's span tree, events and final metrics as JSONL;
    inspect offline with ``repro trace summarize FILE.jsonl``.
``--metrics``
    Print the metrics-registry snapshot (counters/gauges/histograms)
    after the command finishes.
``--log-level LEVEL``
    Level of the ``repro.*`` stderr logger (default ``warning``).
``--solver-progress``
    Render a live stderr line (incumbent/bound/gap/nodes) during long
    MILP solves (HiGHS prints its own branch-and-cut log).
``--profile FILE.pstats``
    cProfile the whole command, write pstats to FILE and print the
    top cumulative-time hotspots.

``serve`` runs the long-lived floorplanning service: an HTTP front end
with admission control, a crash-safe persistent artifact cache, durable
exactly-once job journaling and graceful SIGTERM drain (see
docs/robustness.md, "Serving floorplans").  The listener address is
published to ``<state-dir>/endpoint.json`` (``--port 0`` = ephemeral).

``bench run`` executes the smoke benchmark suite and writes a
schema-versioned ``BENCH_<timestamp>.json`` performance record;
``bench compare`` diffs two records and exits 3 when a configured
regression threshold is exceeded (``--warn-only`` downgrades to exit 0).
The bare form ``bench B13`` remains an alias for ``bench one B13``.
"""

from __future__ import annotations

import argparse
import json
import os
import pathlib
import sys

from repro.arch.fabric import Fabric
from repro.benchgen.sources import KERNELS, kernel_source
from repro.benchgen.suite import entry as suite_entry
from repro.benchgen.synth import build_benchmark
from repro.core.algorithm1 import Algorithm1Config, run_algorithm1
from repro.core.flow import AgingAwareFlow, FlowConfig
from repro.core.remap import RemapConfig
from repro.errors import ReproError
from repro.explain import set_explain
from repro.hls.lower import compile_source
from repro.hls.schedule import schedule_dfg
from repro.hls.allocate import tech_map
from repro.io.serialize import (
    flow_summary_to_dict,
    load_design,
    load_floorplan,
    load_json,
    save_design,
    save_floorplan,
    save_json,
)
from repro.obs import (
    JsonlSink,
    add_sink,
    configure_logging,
    convergence_rows,
    registry,
    remove_sink,
    set_progress,
    span,
    summarize_trace,
)
from repro.place.baseline import place_baseline
from repro.report.tables import format_mapping, format_table
from repro.resilience.deadline import Deadline


def _deadline_of(args) -> Deadline | None:
    seconds = getattr(args, "deadline", None)
    return Deadline.after(seconds) if seconds is not None else None


def _parse_fabric(text: str) -> Fabric:
    try:
        rows, cols = (int(part) for part in text.lower().split("x"))
    except ValueError as exc:
        raise SystemExit(f"invalid fabric {text!r}; expected e.g. 4x4") from exc
    return Fabric(rows, cols)


def _load_kernel(argument: str) -> tuple[str, str]:
    path = pathlib.Path(argument)
    if path.exists():
        return path.stem, path.read_text()
    if argument in KERNELS:
        return argument, kernel_source(argument)
    raise SystemExit(
        f"{argument!r} is neither a file nor a library kernel "
        f"({sorted(KERNELS)})"
    )


def _metrics_rows() -> list[list[object]]:
    """Registry snapshot as (metric, kind, value) table rows."""
    rows: list[list[object]] = []
    for name, data in registry().snapshot().items():
        kind = data["kind"]
        if kind == "histogram":
            value = (
                f"count={data['count']} mean={data['mean']:.4f} "
                f"p50={data['p50']:.4f} p95={data['p95']:.4f} "
                f"min={data['min']:.4f} max={data['max']:.4f}"
            )
        else:
            value = data["value"]
        rows.append([name, kind, value])
    return rows


def _remap_config(args) -> RemapConfig:
    """Build the solver config from shared CLI flags (incl. portfolio)."""
    kwargs: dict = {"time_limit_s": args.time_limit}
    if getattr(args, "portfolio", False):
        kwargs["portfolio"] = True
    lanes = getattr(args, "lanes", None)
    if lanes:
        kwargs["lanes"] = tuple(
            name.strip() for name in lanes.split(",") if name.strip()
        )
    hedge_delay = getattr(args, "hedge_delay", None)
    if hedge_delay is not None:
        kwargs["hedge_delay_s"] = hedge_delay
    return RemapConfig(**kwargs)


def _flow_config(args) -> FlowConfig:
    return FlowConfig(
        algorithm1=Algorithm1Config(
            mode=args.mode,
            certify=not getattr(args, "no_certify", False),
            remap=_remap_config(args),
        )
    )


# -- subcommands ---------------------------------------------------------------


def cmd_compile(args) -> int:
    name, source = _load_kernel(args.source)
    dfg = compile_source(source, name)
    schedule = schedule_dfg(dfg, capacity=args.capacity)
    design = tech_map(schedule)
    save_design(design, args.output)
    print(
        f"{name}: {design.num_ops} ops in {design.num_contexts} contexts "
        f"-> {args.output}"
    )
    return 0


def cmd_place(args) -> int:
    design = load_design(args.design)
    fabric = _parse_fabric(args.fabric)
    floorplan = place_baseline(design, fabric)
    save_floorplan(floorplan, args.output)
    print(
        f"placed {design.name} on {fabric.rows}x{fabric.cols} "
        f"(utilization {floorplan.utilization():.0%}) -> {args.output}"
    )
    return 0


def cmd_remap(args) -> int:
    design = load_design(args.design)
    original = load_floorplan(args.floorplan)
    config = Algorithm1Config(
        mode=args.mode,
        certify=not args.no_certify,
        remap=_remap_config(args),
    )
    result = run_algorithm1(
        design, original.fabric, original, config, deadline=_deadline_of(args)
    )
    save_floorplan(result.floorplan, args.output)
    print(format_mapping("Re-mapping", {
        "fell back": result.fell_back,
        "degradation": result.degradation,
        "certified": result.certified,
        "iterations": result.iterations,
        "original CPD (ns)": result.original_cpd_ns,
        "final CPD (ns)": result.final_cpd_ns,
        "ST_target (ns)": result.st_target_ns,
        "output": str(args.output),
    }))
    return 0 if not result.fell_back else 2


def cmd_analyze(args) -> int:
    from repro.aging.mttf import compute_mttf
    from repro.aging.stress import compute_stress_map
    from repro.thermal.hotspot import ThermalSimulator
    from repro.timing.sta import analyze

    design = load_design(args.design)
    floorplan = load_floorplan(args.floorplan)
    report = analyze(design, floorplan)
    stress = compute_stress_map(design, floorplan)
    thermal = ThermalSimulator(floorplan.fabric).simulate(
        stress.duty_per_context()
    )
    mttf = compute_mttf(stress, thermal.accumulated_k)
    print(format_mapping(f"{design.name} on this floorplan", {
        "CPD (ns)": report.cpd_ns,
        "max accumulated stress (ns)": stress.max_accumulated_ns,
        "mean accumulated stress (ns)": stress.mean_accumulated_ns,
        "peak temperature (K)": thermal.peak_k,
        "MTTF (years)": mttf.mttf_years,
        "limiting PE": mttf.limiting_pe,
    }))
    return 0


def cmd_flow(args) -> int:
    name, source = _load_kernel(args.source)
    fabric = _parse_fabric(args.fabric)
    with span("hls_compile", kernel=name):
        dfg = compile_source(source, name)
        design = tech_map(schedule_dfg(dfg, capacity=fabric.num_pes))
    result = AgingAwareFlow(_flow_config(args)).run(
        design, fabric, deadline=_deadline_of(args)
    )
    print(format_mapping(f"flow: {name}", {
        "MTTF increase": f"{result.mttf_increase:.2f}x",
        "CPD preserved": result.cpd_preserved,
        "certified": result.remap.certified,
        "degradation": result.remap.degradation,
        "contexts": design.num_contexts,
        "utilization": f"{result.original.floorplan.utilization():.0%}",
    }))
    if args.output:
        save_json(flow_summary_to_dict(result), args.output)
        print(f"full record -> {args.output}")
    return 0


def cmd_bench(args) -> int:
    bench = suite_entry(args.name)
    if args.scaled:
        bench = bench.scaled(args.scaled)
    design, fabric = build_benchmark(bench.spec())
    result = AgingAwareFlow(_flow_config(args)).run(
        design, fabric, deadline=_deadline_of(args)
    )
    reference = bench.freeze_ref if args.mode == "freeze" else bench.rotate_ref
    print(format_mapping(f"benchmark {bench.name} ({args.mode})", {
        "MTTF increase": f"{result.mttf_increase:.2f}x",
        "paper reference": f"{reference:.2f}x",
        "CPD preserved": result.cpd_preserved,
        "fell back": result.remap.fell_back,
        "degradation": result.remap.degradation,
    }))
    return 0


def cmd_bench_run(args) -> int:
    from repro.obs import perf

    names = tuple(args.benchmarks.split(",")) if args.benchmarks else None
    record = perf.run_suite(
        names,
        mode=args.mode,
        time_limit_s=args.time_limit,
        max_fabric=args.scaled,
        seed=args.seed,
        jobs=args.jobs,
    )
    output = args.output or f"BENCH_{record['timestamp']}.json"
    save_json(record, output)
    print(format_table(
        ["bench", "fabric", "wall_s", "peak_mb", "solves", "nodes",
         "mttf_x", "degradation"],
        perf.bench_table_rows(record),
    ))
    print(f"\nbench record -> {output}")
    return 0


def cmd_bench_compare(args) -> int:
    from repro.obs import perf

    baseline = load_json(args.baseline)
    candidate = load_json(args.candidate)
    thresholds = perf.CompareThresholds(
        wall_rel=args.threshold_wall,
        mem_rel=args.threshold_mem,
        nodes_rel=args.threshold_nodes,
    )
    result = perf.compare_records(baseline, candidate, thresholds)
    if result.rows:
        print(format_table(
            ["bench", "base_s", "cand_s", "wall", "base_mb", "cand_mb",
             "base_nodes", "cand_nodes"],
            result.rows,
        ))
    for warning in result.warnings:
        print(f"warning: {warning}", file=sys.stderr)
    if result.regressions:
        print("\nREGRESSIONS")
        for regression in result.regressions:
            print(f"  {regression.describe()}")
        if not args.warn_only:
            return 3
        print("(--warn-only: not failing the run)", file=sys.stderr)
        return 0
    print("\nno regressions")
    return 0


def cmd_verify(args) -> int:
    from repro.verify import certify_artifact

    document = load_json(args.record)
    report = certify_artifact(
        document,
        certify_backend=args.certify_backend,
        sample=args.sample,
        seed=args.seed,
        time_limit_s=args.time_limit,
    )
    cert = report["certificate"]
    fields = {
        "certificate": "PASS" if not cert["violations"] else "FAIL",
        "checks": len(cert["checks"]),
        "violations": len(cert["violations"]),
    }
    differential = report["differential"]
    if differential is not None:
        fields["differential"] = (
            "agree" if differential["ok"] else "MISMATCH"
        )
        fields["sampled contexts"] = ", ".join(
            str(c) for c in differential["sampled_contexts"]
        )
    print(format_mapping(f"verify: {report['benchmark']}", fields))
    for check in cert["checks"]:
        print(f"  [pass] {check}")
    for violation in cert["violations"]:
        print(
            f"  [FAIL] {violation['kind']}[{violation['subject']}]: "
            f"{violation['detail']}"
        )
    if differential is not None:
        for context, result in differential["contexts"].items():
            objectives = " ".join(
                f"{backend}={value}"
                for backend, value in result["objectives"].items()
            )
            status = "ok" if result["ok"] else "MISMATCH"
            print(f"  [ctx {context}] {status}: {objectives}")
    return 0 if report["ok"] else 4


def _print_explain(entry: dict, indent: str = "  ") -> None:
    """Render one ``algorithm1.explain`` record for the terminal."""
    entry = dict(entry)
    iis = entry.pop("iis", None)
    culprit = entry.pop("culprit", None)
    print(indent + " ".join(f"{k}={v}" for k, v in entry.items()))
    if culprit:
        print(
            f"{indent}  culprit path: context={culprit.get('context')} "
            f"ops={culprit.get('ops')} delay={culprit.get('delay_ns')}ns"
        )
    if iis:
        members = iis.get("members") or []
        print(
            f"{indent}  IIS: status={iis.get('status')} "
            f"minimal={iis.get('minimal')} verified={iis.get('verified')} "
            f"({len(members)} member(s), {iis.get('probes')} probes)"
        )
        for member in members:
            tags = ", ".join(
                f"{k}={v}" for k, v in (member.get("tags") or {}).items()
            )
            line = (
                f"{indent}    - {member.get('name')} "
                f"{member.get('sense')} {member.get('rhs')}"
            )
            print(line + (f"  [{tags}]" if tags else ""))


def cmd_explain(args) -> int:
    """Explain a saved run (flow record and/or trace) or probe an IIS."""
    from repro.obs import report as report_mod
    from repro.obs.trace import summarize_trace as _summarize

    if args.probe_infeasible:
        return _cmd_explain_probe(args)
    record = None
    trace_summary = None
    for path in args.artifacts:
        document = None
        if not str(path).endswith(".jsonl"):
            try:
                document = load_json(path)
            except (ReproError, ValueError):
                document = None
        if document is not None and document.get("kind") == "flow_result":
            record = document
        else:
            trace_summary = _summarize(path)
    if record is None and trace_summary is None:
        print("error: no flow record or trace found in arguments",
              file=sys.stderr)
        return 1
    report = report_mod.build_report(record=record, trace=trace_summary)
    fmt = args.format
    if fmt is None and args.output:
        suffix = pathlib.Path(args.output).suffix.lower()
        fmt = "html" if suffix in (".html", ".htm") else "markdown"
    rendered = report.render(fmt or "markdown")
    if args.output:
        pathlib.Path(args.output).write_text(rendered, encoding="utf-8")
        print(f"report ({len(report.sections)} sections) -> {args.output}")
    else:
        print(rendered)
    return 0


def _cmd_explain_probe(args) -> int:
    """Forced-infeasible IIS demonstration on a saved design.

    Builds the pigeonhole stress probe (provably infeasible), extracts an
    IIS, independently re-verifies it, and prints the conflict in domain
    terms.  Exit 0 only when the IIS is found *and* certified.
    """
    from repro.explain import find_iis, verify_iis
    from repro.explain.probe import build_infeasible_stress_model

    design = load_design(args.artifacts[0])
    fabric = _parse_fabric(args.fabric)
    model, st_target = build_infeasible_stress_model(
        design, fabric, factor=args.probe_factor
    )
    print(
        f"probe: {design.name} on {fabric.rows}x{fabric.cols}, "
        f"ST_target={st_target:.4g} ns (below the mean per-PE load "
        "— infeasible by pigeonhole)"
    )
    iis = find_iis(model, time_limit_s=args.time_limit)
    print(iis.describe())
    if iis.status != "iis":
        return 5
    certified = verify_iis(model, iis, time_limit_s=args.time_limit)
    print(
        "independent re-check: members-only infeasible and every "
        "single-member drop feasible"
        if certified
        else "independent re-check FAILED"
    )
    return 0 if certified else 5


def cmd_trace_summarize(args) -> int:
    summary = summarize_trace(args.file)
    if args.json:
        print(json.dumps(
            summary.to_dict(), indent=2, sort_keys=True, default=str
        ))
        return 0
    print(format_table(
        ["stage", "count", "wall_s", "share_%"], summary.stage_table()
    ))
    print(
        f"\ntotal wall time {summary.total_s:.3f}s "
        f"({summary.records} records, {len(summary.events)} events, "
        f"{len(summary.degradations)} degradation event(s))"
    )
    evaluation_rows = summary.evaluation_table()
    if evaluation_rows:
        print("\nevaluation stages (aggregated)")
        print("------------------------------")
        print(format_table(
            ["stage", "count", "wall_s", "share_%"], evaluation_rows
        ))
        kernel_rows = [
            [name, data.get("count", data.get("value", 0)),
             round(float(data.get("sum", data.get("value", 0.0))), 4)]
            for name, data in summary.kernel_metrics().items()
        ]
        if kernel_rows:
            print(format_table(
                ["kernel metric", "count", "total"], kernel_rows
            ))
    if summary.solves:
        print("\nconvergence (per solve)")
        print("-----------------------")
        print(format_table(
            ["model", "backend", "kind", "status", "nodes", "incumbent",
             "bound", "gap_%", "wall_s"],
            convergence_rows(summary.solves),
        ))
    for run in summary.alg1_runs:
        verdicts = run.get("verdicts", [])
        trajectory = " -> ".join(
            f"{st:.3f}[{verdict}{f' +{rows} rows' if rows else ''}]"
            for st, verdict, rows in zip(
                run.get("st_trajectory", []), verdicts,
                run.get("rows_added") or [0] * len(verdicts),
            )
        )
        print()
        print(format_mapping(
            f"algorithm1: {run.get('benchmark', '?')}", {
                "degradation": run.get("degradation"),
                "ST range (ns)": (
                    f"[{run.get('st_low_ns', 0.0):.3f}, "
                    f"{run.get('st_up_ns', 0.0):.3f}]"
                ),
                "bisection steps": run.get("bisection_steps"),
                "ILP bumps": run.get("ilp_bumps"),
                "delta (ns)": run.get("delta_ns"),
                "iterations": run.get("iterations"),
                "relaxations": run.get("relaxations"),
                "lazy path rows": run.get("lazy_path_rows", 0),
                "ST trajectory": trajectory or "-",
                "final ST_target (ns)": run.get("final_st_target_ns"),
                "solves": run.get("solves"),
                "total nodes": run.get("total_nodes"),
                "max MIP gap": run.get("max_mip_gap"),
                "certifications": run.get("certifications"),
                "cert failures": run.get("cert_failures"),
                "cert cold rebuilds": run.get("cert_cold_rebuilds"),
            }
        ))
    if summary.races:
        print("\nportfolio races (per lane)")
        print("--------------------------")
        print(format_table(
            ["model", "winner", "lane", "verdict", "start_s", "wall_s",
             "cancelled_s"],
            summary.race_table(),
        ))
    if summary.explains:
        print("\nexplanations (why iterations were rejected / the run ended)")
        print("-" * 58)
        for entry in summary.explains:
            _print_explain(entry)
    if summary.sweep_entries:
        print("\nsweep entries")
        print("-------------")
        print(format_table(["entry", "verdict"], summary.verdict_table()))
    if summary.degradations:
        rows = []
        for record in summary.degradations:
            attrs = record.get("attrs") or {}
            rows.append([
                record["name"],
                " ".join(f"{k}={v}" for k, v in attrs.items()),
            ])
        print("\ndegradations")
        print("------------")
        print(format_table(["event", "detail"], rows))
    if summary.events:
        print("\nevents")
        print("------")
        for record in summary.events:
            attrs = record.get("attrs") or {}
            rendered = " ".join(f"{k}={v}" for k, v in attrs.items())
            print(f"{record['name']}  parent={record['parent']}  {rendered}")
    if summary.metrics:
        rows = []
        for name, data in summary.metrics.items():
            kind = data.get("kind", "?")
            if kind == "histogram":
                value = (
                    f"count={data.get('count')} mean={data.get('mean', 0.0):.4f} "
                    f"max={data.get('max', 0.0):.4f}"
                )
            else:
                value = data.get("value")
            rows.append([name, kind, value])
        print()
        print(format_table(["metric", "kind", "value"], rows))
    return 0


def cmd_serve(args) -> int:
    import asyncio

    from repro.service import AdmissionConfig, ServiceConfig

    config = ServiceConfig(
        state_dir=args.state_dir,
        concurrency=args.concurrency,
        retries=args.retries,
        attempt_timeout_s=args.attempt_timeout,
        drain_grace_s=args.drain_grace,
        certify_cached=not args.no_certify_cache,
        admission=AdmissionConfig(
            max_queue=args.max_queue,
            tenant_queue=args.tenant_queue,
            tenant_concurrency=args.tenant_concurrency,
            retry_after_s=args.retry_after,
        ),
    )
    return asyncio.run(_serve_until_signalled(config, args.host, args.port))


async def _serve_until_signalled(config, host: str, port: int) -> int:
    """Body of ``repro serve``: run until SIGTERM/SIGINT, then drain."""
    import asyncio
    import signal

    from repro.service import FloorplanService, ServiceServer

    service = FloorplanService(config)
    await service.start()
    server = ServiceServer(service, host=host, port=port)
    await server.start()
    stop = asyncio.Event()
    loop = asyncio.get_running_loop()
    for signum in (signal.SIGTERM, signal.SIGINT):
        loop.add_signal_handler(signum, stop.set)
    print(
        f"serving on http://{server.host}:{server.port} "
        f"(state: {config.state_dir}, endpoint: {server.endpoint_path()})",
        file=sys.stderr, flush=True,
    )
    await stop.wait()
    # Drain: stop intake (new submissions shed with 503 "draining") but
    # keep answering probes while in-flight jobs finish within the grace
    # budget; whatever does not finish stays journaled for a restart.
    print("signal received; draining...", file=sys.stderr, flush=True)
    clean = await service.drain()
    await server.close()
    await service.close()
    if clean:
        print("drained cleanly", file=sys.stderr)
    else:
        print(
            "drain grace expired; unfinished jobs remain journaled and "
            "resume on restart", file=sys.stderr,
        )
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro", description="Aging-aware CGRRA floorplanning flow."
    )
    sub = parser.add_subparsers(dest="command", required=True)

    # Observability flags shared by the solver-running subcommands.
    obs_flags = argparse.ArgumentParser(add_help=False)
    obs_flags.add_argument(
        "--trace", metavar="FILE.jsonl", default=None,
        help="record spans/events/metrics as JSONL to this file",
    )
    obs_flags.add_argument(
        "--metrics", action="store_true",
        help="print the metrics registry snapshot after the run",
    )
    obs_flags.add_argument(
        "--log-level", default="warning",
        choices=["debug", "info", "warning", "error", "critical"],
        help="repro.* stderr logger level (default: warning)",
    )
    obs_flags.add_argument(
        "--deadline", type=float, default=None, metavar="SECONDS",
        help="wall-clock budget for the whole command; on expiry the flow "
        "degrades gracefully instead of running on (default: unlimited)",
    )
    obs_flags.add_argument(
        "--solver-progress", action="store_true",
        help="live stderr progress line (incumbent/bound/gap/nodes) during "
        "long MILP solves",
    )
    obs_flags.add_argument(
        "--profile", metavar="FILE.pstats", default=None,
        help="cProfile the command, write pstats to FILE and print the "
        "top cumulative-time hotspots",
    )
    obs_flags.add_argument(
        "--no-explain", action="store_true",
        help="disable solve diagnostics (binding attribution, IIS "
        "extraction, explain events; on by default — docs/observability.md)",
    )

    # Certification opt-out, shared by the Algorithm-1-running commands.
    cert_flags = argparse.ArgumentParser(add_help=False)
    cert_flags.add_argument(
        "--no-certify", action="store_true",
        help="skip the independent certification of accepted MILP "
        "solutions (on by default; see docs/robustness.md)",
    )

    # Solver-portfolio racing, shared by the Algorithm-1-running commands.
    portfolio_flags = argparse.ArgumentParser(add_help=False)
    portfolio_flags.add_argument(
        "--portfolio", action="store_true",
        help="race solver lanes on every MILP solve and accept the first "
        "independently certified answer; crashed/hung/lying lanes are "
        "struck and demoted by circuit breakers (docs/robustness.md)",
    )
    portfolio_flags.add_argument(
        "--lanes", default=None, metavar="LANE[,LANE...]",
        help="lane order when racing (default: highs,branch-bound,prober); "
        "the first breaker-healthy lane leads",
    )
    portfolio_flags.add_argument(
        "--hedge-delay", type=float, default=None, metavar="SECONDS",
        help="backup lanes start this long after the leader (default: 1.5s; "
        "released early when every started lane has failed)",
    )

    p = sub.add_parser("compile", help="mini-C -> mapped design JSON")
    p.add_argument("source")
    p.add_argument("-o", "--output", default="design.json")
    p.add_argument("--capacity", type=int, default=16)
    p.set_defaults(func=cmd_compile)

    p = sub.add_parser("place", help="aging-unaware baseline placement")
    p.add_argument("design")
    p.add_argument("--fabric", default="4x4")
    p.add_argument("-o", "--output", default="floorplan.json")
    p.set_defaults(func=cmd_place)

    p = sub.add_parser(
        "remap", help="aging-aware re-mapping (Algorithm 1)",
        parents=[obs_flags, cert_flags, portfolio_flags],
    )
    p.add_argument("design")
    p.add_argument("floorplan")
    p.add_argument("-o", "--output", default="remapped.json")
    p.add_argument("--mode", choices=["freeze", "rotate"], default="rotate")
    p.add_argument("--time-limit", type=float, default=30.0)
    p.set_defaults(func=cmd_remap)

    p = sub.add_parser("analyze", help="CPD/stress/MTTF of a floorplan")
    p.add_argument("design")
    p.add_argument("floorplan")
    p.set_defaults(func=cmd_analyze)

    p = sub.add_parser(
        "flow", help="full Phase 1 + Phase 2 on a kernel",
        parents=[obs_flags, cert_flags, portfolio_flags],
    )
    p.add_argument("source")
    p.add_argument("--fabric", default="4x4")
    p.add_argument("--mode", choices=["freeze", "rotate"], default="rotate")
    p.add_argument("--time-limit", type=float, default=30.0)
    p.add_argument("-o", "--output", default=None)
    p.set_defaults(func=cmd_flow)

    p = sub.add_parser(
        "bench", help="Table I benchmarks: one / run / compare"
    )
    bsub = p.add_subparsers(dest="bench_command", required=True)

    b = bsub.add_parser(
        "one", help="run one Table I benchmark",
        parents=[obs_flags, cert_flags],
    )
    b.add_argument("name")
    b.add_argument("--scaled", type=int, default=None)
    b.add_argument("--mode", choices=["freeze", "rotate"], default="rotate")
    b.add_argument("--time-limit", type=float, default=30.0)
    b.set_defaults(func=cmd_bench)

    b = bsub.add_parser(
        "run", help="run the perf suite -> BENCH_<timestamp>.json",
        parents=[obs_flags],
    )
    b.add_argument(
        "-o", "--output", default=None,
        help="bench record path (default: BENCH_<timestamp>.json)",
    )
    b.add_argument(
        "--benchmarks", default=None, metavar="B1,B4,...",
        help="comma-separated subset (default: the smoke suite)",
    )
    b.add_argument("--scaled", type=int, default=8, metavar="DIM",
                   help="fabric cap (default: 8 = smoke scale)")
    b.add_argument("--mode", choices=["freeze", "rotate"], default="rotate")
    b.add_argument("--time-limit", type=float, default=15.0)
    b.add_argument("--seed", type=int, default=0)
    b.add_argument(
        "--jobs", type=int, default=1, metavar="N",
        help="run suite entries on an N-process pool (default: 1 = serial)",
    )
    b.set_defaults(func=cmd_bench_run)

    b = bsub.add_parser(
        "compare", help="diff two bench records; exit 3 on regression"
    )
    b.add_argument("baseline")
    b.add_argument("candidate")
    b.add_argument(
        "--threshold-wall", type=float, default=0.25, metavar="REL",
        help="allowed relative wall-time increase (default: 0.25)",
    )
    b.add_argument(
        "--threshold-mem", type=float, default=0.30, metavar="REL",
        help="allowed relative peak-memory increase (default: 0.30)",
    )
    b.add_argument(
        "--threshold-nodes", type=float, default=0.50, metavar="REL",
        help="allowed relative solver-node increase (default: 0.50)",
    )
    b.add_argument(
        "--warn-only", action="store_true",
        help="report regressions but exit 0 (CI soft mode)",
    )
    b.set_defaults(func=cmd_bench_compare)

    p = sub.add_parser(
        "verify",
        help="independently certify a saved flow record "
        "(repro flow ... -o record.json)",
    )
    p.add_argument("record", help="flow_result JSON artifact to certify")
    p.add_argument(
        "--certify-backend", default=None,
        choices=["highs", "branch-bound"], metavar="BACKEND",
        help="additionally re-solve sampled contexts on this backend and "
        "compare objectives against HiGHS (highs | branch-bound)",
    )
    p.add_argument(
        "--sample", type=int, default=2, metavar="N",
        help="contexts to re-solve in differential mode (default: 2)",
    )
    p.add_argument("--seed", type=int, default=0)
    p.add_argument(
        "--time-limit", type=float, default=30.0,
        help="per-context solver time limit in differential mode",
    )
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("trace", help="inspect JSONL observability traces")
    tsub = p.add_subparsers(dest="trace_command", required=True)
    ts = tsub.add_parser(
        "summarize", help="aggregate a trace into a per-stage table"
    )
    ts.add_argument("file")
    ts.add_argument(
        "--json", action="store_true",
        help="emit the full summary as one JSON document instead of tables",
    )
    ts.set_defaults(func=cmd_trace_summarize)

    p = sub.add_parser(
        "explain",
        help="explain a saved run: self-contained HTML/markdown report, "
        "or a forced-infeasible IIS probe",
    )
    p.add_argument(
        "artifacts", nargs="+",
        help="flow record (repro flow -o record.json) and/or JSONL trace; "
        "with --probe-infeasible: a mapped design JSON",
    )
    p.add_argument(
        "-o", "--output", default=None,
        help="write the rendered report here (.html -> HTML, else markdown); "
        "default: print markdown to stdout",
    )
    p.add_argument(
        "--format", choices=["html", "markdown", "md"], default=None,
        help="report format (default: inferred from -o, else markdown)",
    )
    p.add_argument(
        "--probe-infeasible", action="store_true",
        help="build the provably-infeasible pigeonhole stress model for "
        "the given design, extract + verify an IIS, and print it",
    )
    p.add_argument(
        "--fabric", default="4x4",
        help="fabric for --probe-infeasible (default: 4x4)",
    )
    p.add_argument(
        "--probe-factor", type=float, default=0.9, metavar="F",
        help="ST_target = F * mean per-PE load, F in (0,1) (default: 0.9)",
    )
    p.add_argument(
        "--time-limit", type=float, default=30.0,
        help="IIS extraction/verification budget in seconds (default: 30)",
    )
    p.set_defaults(func=cmd_explain)

    p = sub.add_parser(
        "serve",
        help="run the floorplanning service: HTTP front end with "
        "admission control, persistent artifact cache and graceful drain",
        parents=[obs_flags],
    )
    p.add_argument(
        "--state-dir", default="service-state",
        help="durable state root: job journal, artifact cache, "
        "endpoint.json (default: service-state)",
    )
    p.add_argument("--host", default="127.0.0.1")
    p.add_argument(
        "--port", type=int, default=0,
        help="listen port (default 0 = ephemeral; the bound port is "
        "published to <state-dir>/endpoint.json)",
    )
    p.add_argument(
        "--concurrency", type=int, default=2,
        help="parallel job slots, one single-worker pool each (default: 2)",
    )
    p.add_argument(
        "--max-queue", type=int, default=64,
        help="admitted-but-unfinished cap before shedding (default: 64)",
    )
    p.add_argument(
        "--tenant-queue", type=int, default=32,
        help="per-tenant backlog cap (default: 32)",
    )
    p.add_argument(
        "--tenant-concurrency", type=int, default=2,
        help="per-tenant running-job quota (default: 2)",
    )
    p.add_argument(
        "--retries", type=int, default=2,
        help="extra attempts after a crashed/failed solve (default: 2)",
    )
    p.add_argument(
        "--attempt-timeout", type=float, default=300.0, metavar="SECONDS",
        help="kill a worker still running after this long (default: 300)",
    )
    p.add_argument(
        "--drain-grace", type=float, default=10.0, metavar="SECONDS",
        help="SIGTERM drain budget for in-flight jobs (default: 10)",
    )
    p.add_argument(
        "--retry-after", type=float, default=1.0, metavar="SECONDS",
        help="base Retry-After hint for shed requests (default: 1)",
    )
    p.add_argument(
        "--no-certify-cache", action="store_true",
        help="serve cached artifacts without re-certification "
        "(integrity checksums still apply)",
    )
    p.set_defaults(func=cmd_serve)
    return parser


def _normalize_argv(argv: list[str] | None) -> list[str]:
    """Back-compat shim: ``bench B13 ...`` means ``bench one B13 ...``."""
    argv = list(sys.argv[1:] if argv is None else argv)
    if argv and argv[0] == "bench" and len(argv) > 1:
        nxt = argv[1]
        if nxt not in ("run", "compare", "one") and not nxt.startswith("-"):
            argv.insert(1, "one")
    return argv


def _run_profiled(args, path: str) -> int:
    """Run the subcommand under cProfile; dump pstats + print hotspots."""
    import cProfile
    import io
    import pstats

    profiler = cProfile.Profile()
    try:
        code = profiler.runcall(args.func, args)
    finally:
        profiler.create_stats()
        profiler.dump_stats(path)
        buffer = io.StringIO()
        stats = pstats.Stats(profiler, stream=buffer)
        stats.sort_stats("cumulative").print_stats(15)
        print(f"\nprofile -> {path}", file=sys.stderr)
        print(buffer.getvalue(), file=sys.stderr, end="")
    return code


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(_normalize_argv(argv))
    configure_logging(getattr(args, "log_level", "warning"))
    if getattr(args, "solver_progress", False):
        set_progress(True)
    if getattr(args, "no_explain", False):
        set_explain(False)
    sink = None
    trace_path = getattr(args, "trace", None)
    if trace_path:
        try:
            sink = JsonlSink(trace_path)
        except OSError as exc:
            print(f"error: cannot open trace file: {exc}", file=sys.stderr)
            return 1
        add_sink(sink)
    try:
        profile_path = getattr(args, "profile", None)
        if profile_path:
            code = _run_profiled(args, profile_path)
        else:
            code = args.func(args)
    except ReproError as exc:
        print(f"error: {exc}", file=sys.stderr)
        code = 1
    except BrokenPipeError:
        # Downstream pager/head closed stdout; exit quietly like cat does.
        # Point stdout at devnull so the interpreter's final flush is silent.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        code = 141
    finally:
        if getattr(args, "solver_progress", False):
            set_progress(None)
        if getattr(args, "no_explain", False):
            set_explain(None)
        if sink is not None:
            remove_sink(sink)
            sink.write_metrics(registry().snapshot())
            sink.close()
            print(f"trace -> {trace_path}", file=sys.stderr)
    if getattr(args, "metrics", False):
        print()
        print(format_table(["metric", "kind", "value"], _metrics_rows()))
    return code


if __name__ == "__main__":
    sys.exit(main())
