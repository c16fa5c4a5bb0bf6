"""Command-line interface for the aging-aware CAD flow.

Subcommands mirror the flow's stages so artefacts can be produced,
inspected and re-analysed from the shell::

    python -m repro.cli compile  kernel.c -o design.json [--capacity 16]
    python -m repro.cli place    design.json --fabric 4x4 -o floorplan.json
    python -m repro.cli remap    design.json floorplan.json -o remapped.json \
                                 [--mode rotate] [--time-limit 30]
    python -m repro.cli analyze  design.json floorplan.json
    python -m repro.cli flow     kernel.c --fabric 4x4 [-o result.json]
    python -m repro.cli bench    B13 [--scaled 8] [--mode rotate]
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

``bench B13`` runs one Table I benchmark through the flow.
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
from repro.core.algorithm1 import run_algorithm1
from repro.core.flow import flow_config
from repro.errors import ReproError
from repro.hls.lower import compile_source
from repro.hls.schedule import schedule_dfg
from repro.hls.allocate import tech_map
from repro.io.serialize import (
    design_to_dict,
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
    registry,
    remove_sink,
    set_progress,
    summarize_trace,
)
from repro.place.baseline import place_baseline
from repro.report.tables import format_mapping, format_table
from repro.resilience.deadline import Deadline


def _deadline_of(args) -> Deadline | None:
    return Deadline.after(args.deadline) if args.deadline is not None else None


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


def _run_flow(args, **work) -> dict:
    """Run one flow request (``repro flow``/``bench``) as the service does."""
    from repro.service import FloorplanRequest, run_request

    return run_request(FloorplanRequest.from_dict({
        **work,
        "mode": args.mode,
        "time_limit_s": args.time_limit,
        "deadline_s": args.deadline,
    }))


def _cpd_preserved(summary: dict) -> bool:
    return summary["final_cpd_ns"] <= summary["original_cpd_ns"] + 1e-6


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
    result = run_algorithm1(
        design, original.fabric, original,
        flow_config(args.mode, args.time_limit).algorithm1,
        deadline=_deadline_of(args),
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
    document = _run_flow(args, kernel=name, source=source, fabric=args.fabric)
    summary = document["summary"]
    print(format_mapping(f"flow: {name}", {
        "MTTF increase": f"{summary['mttf_increase']:.2f}x",
        "CPD preserved": _cpd_preserved(summary),
        "certified": document["algorithm1"]["certified"],
        "degradation": summary["degradation"],
        "contexts": summary["contexts"],
        "utilization": f"{summary['utilization']:.0%}",
    }))
    if args.output:
        save_json(document, args.output)
        print(f"full record -> {args.output}")
    return 0


def cmd_bench(args) -> int:
    bench = suite_entry(args.name)
    if args.scaled:
        bench = bench.scaled(args.scaled)
    design, fabric = build_benchmark(bench.spec())
    summary = _run_flow(
        args,
        design=design_to_dict(design),
        fabric=f"{fabric.rows}x{fabric.cols}",
    )["summary"]
    reference = bench.freeze_ref if args.mode == "freeze" else bench.rotate_ref
    print(format_mapping(f"benchmark {bench.name} ({args.mode})", {
        "MTTF increase": f"{summary['mttf_increase']:.2f}x",
        "paper reference": f"{reference:.2f}x",
        "CPD preserved": _cpd_preserved(summary),
        "fell back": summary["fell_back"],
        "degradation": summary["degradation"],
    }))
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


def cmd_explain(args) -> int:
    """Explain a saved run (flow record and/or trace) or probe an IIS."""
    from repro.obs.report import build_report

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
            trace_summary = summarize_trace(path)
    if record is None and trace_summary is None:
        print("error: no flow record or trace found in arguments",
              file=sys.stderr)
        return 1
    report = build_report(record=record, trace=trace_summary)
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
    from repro.obs.report import build_report

    summary = summarize_trace(args.file)
    if args.json:
        print(json.dumps(
            summary.to_dict(), indent=2, sort_keys=True, default=str
        ))
    else:
        print(build_report(trace=summary).render("markdown"))
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
        "--solver-progress", action="store_true",
        help="live stderr progress line (incumbent/bound/gap/nodes) during "
        "long MILP solves",
    )
    obs_flags.add_argument(
        "--profile", metavar="FILE.pstats", default=None,
        help="cProfile the command, write pstats to FILE and print the "
        "top cumulative-time hotspots",
    )

    # The wall-clock budget of the flow-running commands; a served job's
    # budget is its request's ``deadline_s``.
    flow_flags = argparse.ArgumentParser(add_help=False)
    flow_flags.add_argument(
        "--deadline", type=float, default=None, metavar="SECONDS",
        help="wall-clock budget for the whole command; on expiry the flow "
        "degrades gracefully instead of running on (default: unlimited)",
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
        parents=[obs_flags, flow_flags],
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
        parents=[obs_flags, flow_flags],
    )
    p.add_argument("source")
    p.add_argument("--fabric", default="4x4")
    p.add_argument("--mode", choices=["freeze", "rotate"], default="rotate")
    p.add_argument("--time-limit", type=float, default=30.0)
    p.add_argument("-o", "--output", default=None)
    p.set_defaults(func=cmd_flow)

    p = sub.add_parser(
        "bench", help="run one Table I benchmark",
        parents=[obs_flags, flow_flags],
    )
    p.add_argument("name")
    p.add_argument("--scaled", type=int, default=None)
    p.add_argument("--mode", choices=["freeze", "rotate"], default="rotate")
    p.add_argument("--time-limit", type=float, default=30.0)
    p.set_defaults(func=cmd_bench)

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
        "summarize",
        help="print a trace's run report (the markdown of repro explain)",
    )
    ts.add_argument("file")
    ts.add_argument(
        "--json", action="store_true",
        help="emit the full summary as one JSON document instead of the "
        "report",
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
    p.set_defaults(func=cmd_serve)
    return parser


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
    args = build_parser().parse_args(argv)
    configure_logging(getattr(args, "log_level", "warning"))
    if getattr(args, "solver_progress", False):
        set_progress(True)
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
        if sink is not None:
            remove_sink(sink)
            sink.write_metrics(registry().snapshot())
            sink.close()
            print(f"trace -> {trace_path}", file=sys.stderr)
    if getattr(args, "metrics", False):
        from repro.obs.report import metrics_rows

        print()
        print(format_table(
            ["metric", "kind", "value"], metrics_rows(registry().snapshot())
        ))
    return code


if __name__ == "__main__":
    sys.exit(main())
