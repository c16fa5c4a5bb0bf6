"""``table1-ladder``: the one-shot pipeline on Table I designs, in-process.

A closed loop with one client calls ``repro.service.run_request`` on
the ladder's designs, whole passes in seeded order, until the run's
seconds are spent (at least one pass, so every design is measured).
"""

from __future__ import annotations

import pathlib
import resource
import subprocess
import sys
import time

import gate
import layers
import pools
from stats import done_values, gmean


def setup_probe() -> None:
    """Body of a fresh interpreter: import the pipeline, build inputs."""
    import repro.core.flow  # noqa: F401
    import repro.milp  # noqa: F401
    import repro.service  # noqa: F401
    from repro.service import FloorplanRequest

    for request in pools.ladder_requests():
        FloorplanRequest.from_dict(request)
    print("ready", flush=True)


def cold_starts(env: dict, count: int) -> list[float]:
    """Seconds from launch until a fresh interpreter is ready, ``count``x."""
    times = []
    for _ in range(count):
        start = time.perf_counter()
        with subprocess.Popen(
            [sys.executable, str(pathlib.Path(__file__).with_name("run.py")),
             "--setup-probe"],
            stdout=subprocess.PIPE, text=True, env=env,
        ) as process:
            line = process.stdout.readline()
            times.append(time.perf_counter() - start)
            process.stdout.read()
        if process.returncode != 0 or line.strip() != "ready":
            raise RuntimeError(f"setup probe failed ({process.returncode})")
    return times


def _run_one(request: dict, traced: bool) -> dict:
    """One timed ``run_request``; traced calls also keep spans/counters."""
    from repro.errors import ReproError
    from repro.obs import CollectorSink, attached, registry
    from repro.service import FloorplanRequest, run_request

    parsed = FloorplanRequest.from_dict(request)
    row = {"name": pools.label(request), "key": parsed.cache_key(),
           "request": request}
    collector = CollectorSink()
    before = registry().snapshot() if traced else None
    start = time.perf_counter()
    try:
        if traced:
            with attached(collector):
                document = run_request(parsed)
        else:
            document = run_request(parsed)
    except ReproError as exc:
        row.update(status="failed", error=f"{type(exc).__name__}: {exc}")
        return row
    row.update(latency_s=time.perf_counter() - start, status="done",
               document=document, summary=document["summary"])
    if traced:
        row["records"] = collector.records
        row["counters"] = layers.counter_deltas(before, registry().snapshot())
    return row


def _phase(requests, seed, seconds, traced) -> tuple[list, float]:
    """Whole passes until ``seconds`` have elapsed (at least one pass)."""
    rows = []
    start = time.perf_counter()
    index = 0
    while True:
        for request in pools.ladder_pass(requests, seed, index):
            rows.append(_run_one(request, traced))
            rows[-1]["end"] = time.perf_counter() - start
        index += 1
        elapsed = time.perf_counter() - start
        if elapsed >= seconds:
            return rows, elapsed


def run(ctx) -> dict:
    """Run the workload; returns the raw run for ``run.py`` to report."""
    from repro.service import FloorplanRequest, run_request

    setup = cold_starts(ctx.env, ctx.setup_count)
    requests = pools.ladder_requests()
    # Untimed warm-up: the first call pays imports and solver loading.
    run_request(FloorplanRequest.from_dict(
        pools.kernel_request("fir8", 3, "rotate")
    ))
    if ctx.trace:
        # One untraced pass, then the same pass traced.
        untraced, _ = _phase(requests, ctx.seed, 0, traced=False)
        rows, wall = _phase(requests, ctx.seed, 0, traced=True)
    else:
        rows, wall = _phase(requests, ctx.seed, ctx.seconds, traced=False)
    documents = gate.distinct(rows)
    out = {
        "setup_s": setup,
        "rows": rows,
        "documents": documents,
        "wall_s": wall,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    if ctx.trace:
        out["layers"] = _layers(rows, untraced, documents, ctx)
    return out


def _layers(rows, untraced, documents, ctx) -> dict:
    done = [row for row in rows if row["status"] == "done"]
    per_request, breakdown = [], []
    for row in done:
        document = documents[(row["key"], row["digest"])]
        flow = layers.flow_layers(row["records"])
        facts = layers.artifact_layers(document)
        counters = row["counters"]
        flow.update(facts)
        flow["milp.lowerings"] = counters.get("milp.lowerings", 0)
        flow["kernels.lowerings"] = layers.kernel_lowerings(counters)
        flow.update(layers.replay(
            row["request"], document, hit=False, served=False,
            tmp_root=ctx.work_dir,
        ))
        named = sum(flow[k] for k in layers.FLOW_TIME_LAYERS)
        flow["coverage"] = named / row["latency_s"]
        per_request.append(flow)
        breakdown.append((row["name"], row["latency_s"], flow))
    metrics = layers.summarize(per_request, ctx.per_layer)
    metrics["obs.trace_overhead"] = (
        gmean(done_values(rows, "latency_s"))
        / gmean(done_values(untraced, "latency_s"))
    )
    return {"metrics": metrics, "breakdown": breakdown}
