"""The service's job-execution body (runs inside forked worker processes).

:func:`run_request` is the one-shot pipeline itself: ``repro flow``
(kernel requests) and ``repro bench`` (design requests) call it, and
:func:`execute_request` runs it in a service worker.  The service's
contract — a served artifact is bit-identical to the one-shot CLI's —
holds *because* both share this code path rather than approximating it.

The service runs :func:`execute_request` through
:func:`repro.resilience.isolation.run_isolated`, which also applies the
parent's ``service_worker_crash`` verdict in the worker.
"""

from __future__ import annotations

import time

from repro.errors import ReproError
from repro.obs import CollectorSink, attached, clear_sinks, span
from repro.service.request import FloorplanRequest


def materialize(request: FloorplanRequest):
    """Build the ``(design, fabric)`` pair a request describes.

    Kernel/source requests compile the mini-C (span ``hls_compile``),
    schedule with ``capacity=fabric.num_pes`` and technology-map.  Design
    requests decode the mapped-design document directly.
    """
    from repro.arch.fabric import Fabric
    from repro.benchgen.sources import KERNELS, kernel_source
    from repro.hls.allocate import tech_map
    from repro.hls.lower import compile_source
    from repro.hls.schedule import schedule_dfg
    from repro.io.serialize import design_from_dict

    rows, cols = (int(part) for part in request.fabric.lower().split("x"))
    fabric = Fabric(rows, cols)
    if request.design is not None:
        return design_from_dict(request.design), fabric
    source = request.source
    name = request.kernel
    if source is None:
        if name not in KERNELS:
            raise ReproError(
                f"unknown library kernel {name!r} (known: {sorted(KERNELS)})"
            )
        source = kernel_source(name)
    with span("hls_compile", kernel=name):
        dfg = compile_source(source, name)
        design = tech_map(schedule_dfg(dfg, capacity=fabric.num_pes))
    return design, fabric


def run_request(request: FloorplanRequest) -> dict:
    """Synchronously run one request to a ``flow_result`` document.

    This *is* the one-shot CLI pipeline (``repro flow``, ``repro
    bench``); tests compare service-served artifacts against this
    function's output for bit-identity.
    """
    from repro.core.flow import AgingAwareFlow, flow_config
    from repro.io.serialize import flow_summary_to_dict
    from repro.resilience.deadline import Deadline

    design, fabric = materialize(request)
    config = flow_config(request.mode, request.time_limit_s)
    deadline = (
        Deadline.after(request.deadline_s)
        if request.deadline_s is not None
        else None
    )
    result = AgingAwareFlow(config).run(design, fabric, deadline=deadline)
    return flow_summary_to_dict(result)


#: Wall-clock measurement fields — the only nondeterminism in a
#: ``flow_result``; everything else (MTTF, CPD, floorplans, per-context
#: mappings) is bit-stable across runs.
VOLATILE_FIELDS = frozenset({
    "elapsed_s", "wall_s", "solve_s", "ilp_s", "lp_s", "t_s",
    "duration_s", "total_s",
})


def comparable_view(document):
    """``document`` with wall-clock fields removed, recursively.

    Two runs of the same request agree on this view exactly; it is the
    service's bit-identity contract (tests compare served artifacts
    against one-shot runs through it).
    """
    if isinstance(document, dict):
        return {
            key: comparable_view(value)
            for key, value in document.items()
            if key not in VOLATILE_FIELDS
        }
    if isinstance(document, list):
        return [comparable_view(item) for item in document]
    return document


def execute_request(request_dict: dict) -> dict:
    """Process-pool body of one service job.

    Runs in a forked worker: inherited sinks are dropped (their file
    handles belong to the parent), spans/events are captured by a local
    collector and shipped back as picklable records.  Returns
    ``{"ok", "document" | "error", "trace_records", "wall_s"}`` — a
    :class:`ReproError` comes back as a typed error payload, anything
    else propagates (and surfaces parent-side as a job failure).
    """
    clear_sinks()
    collector = CollectorSink()
    request = FloorplanRequest.from_dict(request_dict)
    start = time.perf_counter()
    with attached(collector):
        with span("service_job", key=request.cache_key()[:12]):
            try:
                document = run_request(request)
            except ReproError as exc:
                return {
                    "ok": False,
                    "error": f"{type(exc).__name__}: {exc}",
                    "error_type": type(exc).__name__,
                    "trace_records": collector.records,
                    "wall_s": time.perf_counter() - start,
                }
    return {
        "ok": True,
        "document": document,
        "trace_records": collector.records,
        "wall_s": time.perf_counter() - start,
    }
