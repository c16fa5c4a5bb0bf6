#!/usr/bin/env python3
"""The floorplanner's benchmark: one command, three workloads.

Run from the repository root::

    python3 perfbench/run.py --workload table1-ladder --seed 0 --seconds 25 --trace 0
    python3 perfbench/run.py --workload serve-hit --seed 0 --seconds 25 --trace 1

``--trace 0`` measures the end-to-end metrics with tracing off;
``--trace 1`` is the separate traced run that reports per-layer metrics.
The last line of standard output is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``.  The exit code is 0
only when every output passed the correctness gate.  See README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import pathlib
import shutil
import signal
import sys
import time
import types

import gate
import host
import ladder
import layers
import serve
from stats import (
    done_values, fail_share, gmean, median, tail,
)

ROOT = pathlib.Path(__file__).resolve().parent.parent
WORKLOADS = ("table1-ladder", "serve-hit", "serve-miss")

#: Cold starts per run; ``setup_s`` is their median.
SETUP_COUNT = 9


def _parse(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true",
                        help=argparse.SUPPRESS)
    parser.add_argument("--one-shot", nargs=2, type=pathlib.Path,
                        metavar=("BATCH", "DIR"), help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if not (args.setup_probe or args.one_shot) and args.workload is None:
        parser.error("--workload is required")
    return args


def _spec() -> dict[str, dict[str, str]]:
    """``{"end_to_end": {name: unit}, "per_layer": {name: unit}}`` as
    ``BENCHMARK.json`` declares them."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {
        kind: {metric["name"]: metric["unit"] for metric in spec[kind]}
        for kind in ("end_to_end", "per_layer")
    }


def _limit_hits(document: dict) -> dict:
    """Relax-loop solver limit hits recorded in a ``flow_result``."""
    counts: dict[str, int] = {}
    for entry in document.get("algorithm1", {}).get("iterations", []):
        for solve in ("lp_stats", "ilp_stats"):
            reason = (entry.get(solve) or {}).get("limit_reason")
            if reason:
                counts[reason] = counts.get(reason, 0) + 1
    return counts


def _end_to_end(result) -> tuple[dict, dict]:
    """Gated metrics and printed-only extras of an untraced run."""
    rows = result["rows"]
    done = [row for row in rows if row["status"] == "done"]
    latencies = done_values(rows, "latency_s")
    count = {s: sum(1 for r in rows if r["status"] == s)
             for s in ("failed", "shed", "timed_out", "rejected")}
    percentile, tail_value = tail(latencies)
    metrics = {
        "setup_s": median(result["setup_s"]),
        "latency_gmean_s": gmean(latencies),
        "throughput_per_s": len(done) / result["wall_s"],
        "mttf_gmean": gmean(r["summary"]["mttf_increase"] for r in done),
        "peak_rss_mb": result["peak_rss_mb"],
    }
    extras = {
        "latency_p50_s": median(latencies),
        "latency_tail_s": tail_value,
        "latency_tail_percentile": percentile,
        "degraded_share": sum(
            1 for r in done if r["summary"].get("degradation") != "none"
        ) / len(done),
        "fail_share": fail_share(len(rows), **count),
        "requests": len(rows),
        "timed_wall_s": result["wall_s"],
    }
    return metrics, extras


def _ledger(result) -> list[dict]:
    documents = result["documents"]
    ledger = []
    for row in result["rows"]:
        entry = {
            "name": row["name"], "key": row.get("key"),
            "status": row["status"], "latency_s": row.get("latency_s"),
            "end_s": row.get("end"),
        }
        if row["status"] in ("done", "rejected"):
            document = documents[(row["key"], row["digest"])]
            summary = row["summary"]
            entry.update(
                limit_hits=_limit_hits(document),
                degradation=summary.get("degradation"),
                iterations=summary.get("iterations"),
                mttf_increase=summary.get("mttf_increase"),
                digest=row["digest"],
            )
        if row.get("error"):
            entry["error"] = row["error"]
        ledger.append(entry)
    return ledger


def _print_ledger(ledger, grouped: bool) -> None:
    print("\nper-request ledger" + (" (grouped by key and digest)" if grouped else ""))
    if grouped:
        groups: dict[tuple, list] = {}
        for entry in ledger:
            groups.setdefault(
                (entry["name"], entry.get("digest"), entry["status"]), []
            ).append(entry)
        for (name, digest, status), entries in sorted(groups.items()):
            lat = sorted(e["latency_s"] for e in entries if e["latency_s"])
            first = entries[0]
            print(f"  {name:<22} n={len(entries):<5} {status:<9} "
                  f"p50={lat[len(lat) // 2] if lat else float('nan'):.4f}s "
                  f"rung={first.get('degradation')} "
                  f"iters={first.get('iterations')} "
                  f"limits={first.get('limit_hits')} "
                  f"digest={(digest or '-')[:12]}")
        return
    for entry in ledger:
        latency = entry["latency_s"]
        print(f"  {entry['name']:<22} {entry['status']:<9} "
              f"{latency if latency is not None else float('nan'):8.3f}s "
              f"rung={entry.get('degradation')} "
              f"iters={entry.get('iterations')} "
              f"limits={entry.get('limit_hits')} "
              f"key={(entry.get('key') or '-')[:12]} "
              f"digest={(entry.get('digest') or '-')[:12]}"
              + (f" error={entry['error']}" if entry.get("error") else ""))


def _print_breakdown(breakdown) -> None:
    print("\nper-design layers (traced pass; share of request latency)")
    for name, latency, flow in breakdown:
        shares = {k: flow[k] / latency for k in layers.FLOW_TIME_LAYERS}
        solver = flow["solver.lp_s"] + flow["solver.ilp_s"]
        others = max(v for k, v in flow.items()
                     if k in layers.FLOW_TIME_LAYERS
                     and not k.startswith("solver."))
        top = sorted(shares.items(), key=lambda kv: -kv[1])[:4]
        print(f"  {name:<5} {latency:7.3f}s covered={flow['coverage']:.1%} "
              f"solver={solver / latency:.1%} "
              f"solver_largest={solver >= others} "
              + " ".join(f"{k}={v:.1%}" for k, v in top))


def main(argv=None) -> int:
    args = _parse(argv)
    if not (ROOT / "src" / "repro").is_dir():
        print(f"error: no program source under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    if args.setup_probe:
        ladder.setup_probe()
        return 0
    if args.one_shot:
        gate.one_shot(*args.one_shot)
        return 0
    host.adopt_orphans()
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))
    try:
        return _run(args)
    finally:
        leftover = host.stop_children()
        if leftover:
            print(f"stopped {leftover} leftover process(es)", file=sys.stderr)


def _run(args) -> int:
    spec = _spec()

    work_dir = ROOT / "perfbench" / ".work"
    run_dir = work_dir / "run"
    shutil.rmtree(run_dir, ignore_errors=True)
    run_dir.mkdir(parents=True)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + [p for p in [env.get("PYTHONPATH")] if p]
    )
    ctx = types.SimpleNamespace(
        root=ROOT, env=env, work_dir=work_dir, run_dir=run_dir,
        seed=args.seed, seconds=args.seconds, trace=bool(args.trace),
        setup_count=SETUP_COUNT, per_layer=list(spec["per_layer"]),
    )
    record = {
        "workload": args.workload, "seed": args.seed,
        "seconds": args.seconds, "trace": args.trace,
        "host": {"nproc": host.nproc(), "start": host.snapshot()},
    }
    started = time.perf_counter()
    if args.workload == "table1-ladder":
        result = ladder.run(ctx)
    else:
        result = serve.run(ctx, args.workload)
    gate_report = gate.check(ctx, result)
    record["host"]["end"] = host.snapshot()
    record["gate"] = gate_report
    rows = result["rows"]
    failed = sum(1 for row in rows if row["status"] != "done")
    correct = failed == 0 and bool(rows)

    print(f"workload {args.workload}  seed {args.seed}  seconds {args.seconds}"
          f"  trace {args.trace}  nproc {record['host']['nproc']}")
    for when in ("start", "end"):
        snap = record["host"][when]
        print(f"host {when}: loadavg={snap['loadavg']} "
              f"steal_ticks={snap['steal_ticks']} "
              f"speed_probe={snap['speed_probe_s']:.4f}s")
    print(f"gate: {json.dumps(gate_report)}")
    ledger = _ledger(result)
    record["ledger"] = ledger
    _print_ledger(ledger, grouped=args.workload == "serve-hit")

    if args.trace:
        metrics = {
            name: {"value": float(result["layers"]["metrics"][name]),
                   "unit": unit}
            for name, unit in spec["per_layer"].items()
        }
        if "breakdown" in result["layers"]:
            _print_breakdown(result["layers"]["breakdown"])
        if result["layers"].get("front_end_s") is not None:
            print("\nfront end subtracted from worker.startup_s "
                  f"(median of small hits): {result['layers']['front_end_s']:.4f}s")
        print("\nper-layer metrics (traced run, per measured request)")
    else:
        values, extras = _end_to_end(result)
        metrics = {
            name: {"value": float(values[name]), "unit": unit}
            for name, unit in spec["end_to_end"].items()
        }
        record["extras"] = extras
        print("\nend-to-end metrics (untraced run)")
        for name, unit in (("latency_p50_s", "s"), ("latency_tail_s", "s"),
                           ("degraded_share", "fraction"),
                           ("fail_share", "fraction")):
            value = extras[name]
            note = (f"  (p{extras['latency_tail_percentile']} of "
                    f"{extras['requests']} requests)"
                    if name == "latency_tail_s" else "")
            if value is None:
                note = f"  (n/a: {extras['requests']} requests leave no ten beyond any percentile)"
            print(f"  {name:<32} {value if value is not None else '-'} {unit}{note}")
    for name, data in metrics.items():
        print(f"  {name:<32} {data['value']:.6g} {data['unit']}")
    record["metrics"] = metrics
    record["run_s"] = time.perf_counter() - started
    runs = work_dir / "runs"
    runs.mkdir(parents=True, exist_ok=True)
    (runs / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=1, default=str)
    )
    print(json.dumps({
        "correct": correct, "attempted": len(rows), "failed": failed,
        "metrics": metrics,
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
