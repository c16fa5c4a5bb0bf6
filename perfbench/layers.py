"""Per-layer metrics from program spans, counters and replayed calls.

Three sources, all read only in the traced run:

* spans the program emits (a ``CollectorSink`` around in-process
  ``run_request`` calls, or ``repro serve --trace`` for served jobs,
  whose worker spans the service replays into its trace);
* counters and histograms the program exports (``repro.obs.registry``
  in-process, ``/metricsz`` for the server) and the job views;
* the benchmark's own timed calls into layers the program does not span
  (cache reads and writes, ``repro.io`` decoding and encoding, the HLS
  front end), replayed on the run's own requests and artifacts.

Every metric is a mean per measured request unless it is a ratio.
Layers a request does not run count as zero for it.
"""

from __future__ import annotations

import pathlib
import statistics
import tempfile
import time

#: Flow layers whose times partition a request's latency (coverage).
FLOW_TIME_LAYERS = (
    "place.busy_s", "targets.busy_s", "alg1.busy_s", "milp.build_s",
    "solver.lp_s", "solver.ilp_s", "timing.busy_s", "eval.busy_s",
    "verify.flow_s", "explain.busy_s",
)

_TIMING_SPANS = {"sta", "critical_paths", "path_filter", "sta_verify"}
#: Spans whose whole duration belongs to one named layer.
_LEAF_LAYER = {
    "milp_build": "milp.build_s",
    "milp_restamp": "milp.build_s",
    "place_baseline": "place.busy_s",
    "evaluate": "eval.busy_s",
    "certify": "verify.flow_s",
    "explain_iis": "explain.busy_s",
    **{name: "timing.busy_s" for name in _TIMING_SPANS},
}
_LP_PARENTS = {"lp_relax", "lp_probe"}
_SEP = " > "


def flow_layers(records) -> dict:
    """Layer times and counts of one request's flow spans.

    ``targets.busy_s`` and ``alg1.busy_s`` are self times: Step 1's
    ``binary_search`` and the rest of ``algorithm1`` minus the solver,
    model-build, timing, certification and explain spans inside them
    (LP set-up, rounding, fixing and bookkeeping).
    """
    out = dict.fromkeys(FLOW_TIME_LAYERS, 0.0)
    out.update({
        "place.anneal_moves": 0, "targets.solves": 0, "solver.calls": 0,
        "solver.nodes": 0, "solver.limit_hits.time_limit": 0,
        "solver.limit_hits.gap_limit": 0, "solver.max_gap": 0.0,
        "alg1.greedy_completions": 0, "milp.restamps": 0, "flow_s": 0.0,
    })
    search_total = alg1_total = in_search = in_alg1 = 0.0
    for record in records:
        if record.get("type") != "span":
            continue
        name = record["name"]
        parts = record["path"].split(_SEP)
        seconds = record["duration_s"]
        attrs = record.get("attrs") or {}
        if name == "anneal":
            out["place.anneal_moves"] += int(attrs.get("moves_proposed") or 0)
        if any(part in _LEAF_LAYER or part == "solver" for part in parts[:-1]):
            continue  # inside a span counted whole (e.g. IIS solves)
        layer = _LEAF_LAYER.get(name)
        if name == "solver":
            parent = parts[-2] if len(parts) > 1 else ""
            layer = "solver.lp_s" if parent in _LP_PARENTS else "solver.ilp_s"
            out["solver.calls"] += 1
            out["solver.nodes"] += int(attrs.get("nodes") or 0)
            reason = attrs.get("limit_reason")
            if reason in ("time_limit", "gap_limit"):
                out[f"solver.limit_hits.{reason}"] += 1
            if attrs.get("gap") is not None:
                out["solver.max_gap"] = max(out["solver.max_gap"], attrs["gap"])
            if "binary_search" in parts:
                out["targets.solves"] += 1
        elif name == "greedy_complete":
            out["alg1.greedy_completions"] += 1
        elif name == "milp_restamp":
            out["milp.restamps"] += 1
        elif name == "binary_search":
            search_total += seconds
        elif name == "algorithm1":
            alg1_total += seconds
        elif name == "flow":
            out["flow_s"] += seconds
        if layer is None:
            continue
        out[layer] += seconds
        if "binary_search" in parts:
            in_search += seconds
        elif "algorithm1" in parts:
            in_alg1 += seconds
    out["targets.busy_s"] = max(0.0, search_total - in_search)
    out["alg1.busy_s"] = max(0.0, alg1_total - search_total - in_alg1)
    return out


def artifact_layers(document: dict) -> dict:
    """Relax-loop and degradation facts recorded in a ``flow_result``."""
    stats = document.get("algorithm1", {}).get("stats", {})
    verdicts = stats.get("verdicts", [])
    rung = document["summary"].get("degradation", "none")
    return {
        "alg1.iterations": len(verdicts),
        "alg1.accepted": sum(1 for v in verdicts if v == "accepted"),
        **{
            f"degrade.{name}": int(rung == name)
            for name in ("incumbent", "greedy", "original")
        },
    }


def counter_deltas(before: dict, after: dict) -> dict:
    """Counter and histogram-sum deltas between two registry snapshots."""
    out = {}
    for name, data in after.items():
        old = before.get(name, {})
        if data.get("kind") == "counter":
            out[name] = data.get("value", 0) - old.get("value", 0)
        elif data.get("kind") == "histogram":
            out[name] = data.get("sum", 0.0) - old.get("sum", 0.0)
    return out


def kernel_lowerings(deltas: dict) -> int:
    return sum(
        value for name, value in deltas.items()
        if name.startswith("kernels.") and name.endswith(".lowerings")
    )


def _median_time(fn, repeats: int = 5) -> float:
    """Median seconds of ``repeats`` calls of ``fn``."""
    times = []
    for _ in range(repeats):
        start = time.perf_counter()
        fn()
        times.append(time.perf_counter() - start)
    return statistics.median(times)


def replay(request: dict, document: dict, *, hit: bool, served: bool,
           tmp_root: pathlib.Path) -> dict:
    """The benchmark's own timed calls into layers the program does not span.

    ``hit``: the request was answered from the cache, which decodes the
    stored artifact to re-certify it.  Otherwise it ran a flow, which
    starts with the worker's ``materialize`` (the HLS front end for a
    kernel request, a design decode for a design request) and ends by
    encoding the result.  ``served``: it went through the service's
    cache (a read, and a write after a miss); replayed writes go to a
    temporary directory under ``tmp_root``.
    """
    from repro.io.serialize import (
        design_from_dict,
        design_to_dict,
        floorplan_from_dict,
        floorplan_to_dict,
    )
    from repro.service import ArtifactCache, FloorplanRequest
    from repro.service.worker import materialize

    out = dict.fromkeys(
        ("cache.read_s", "cache.write_s", "io.decode_s", "io.encode_s",
         "hls.compile_s"), 0.0,
    )
    design = design_from_dict(document["design"])
    original = floorplan_from_dict(document["original_floorplan"])
    remapped = floorplan_from_dict(document["remapped_floorplan"])
    if hit:
        out["io.decode_s"] = _median_time(lambda: (
            design_from_dict(document["design"]),
            floorplan_from_dict(document["original_floorplan"]),
            floorplan_from_dict(document["remapped_floorplan"]),
        ))
    if not hit:
        parsed = FloorplanRequest.from_dict(request)
        layer = "io.decode_s" if parsed.design is not None else "hls.compile_s"
        out[layer] = _median_time(lambda: materialize(parsed), repeats=3)
        out["io.encode_s"] = _median_time(lambda: (
            design_to_dict(design), floorplan_to_dict(original),
            floorplan_to_dict(remapped),
        ))
    if served:
        with tempfile.TemporaryDirectory(dir=tmp_root) as tmp:
            cache = ArtifactCache(pathlib.Path(tmp), certify=False)
            key = "0" * 64
            # A hit reads a stored entry; a miss probes an absent key,
            # then writes the result.
            if hit:
                cache.put(key, document)
            out["cache.read_s"] = _median_time(lambda: cache.fetch(key))
            if not hit:
                out["cache.write_s"] = _median_time(
                    lambda: cache.put(key, document)
                )
    return out


def summarize(rows: list[dict], names) -> dict:
    """Per-layer metrics ``names`` from per-request rows: means, plus the ratios.

    ``alg1.accept_ratio`` pools iterations over all requests and
    ``solver.max_gap`` is the largest gap any request left.
    """
    n = len(rows)
    metrics = {
        key: sum(row.get(key, 0.0) for row in rows) / n for key in names
    }
    attempted = sum(row.get("alg1.iterations", 0) for row in rows)
    accepted = sum(row.get("alg1.accepted", 0) for row in rows)
    metrics["alg1.accept_ratio"] = accepted / attempted if attempted else 0.0
    metrics["solver.max_gap"] = max(
        (row.get("solver.max_gap", 0.0) for row in rows), default=0.0
    )
    return metrics
