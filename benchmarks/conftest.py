"""Shared helpers for the benchmark harness.

Scale control
-------------
``REPRO_BENCH_SCALE`` selects the benchmark profile:

* ``smoke`` (default) — 4x4/8x8 fabrics, representative subset; minutes.
* ``paper`` — the verbatim Table I configurations; hours for the 16x16
  entries.  Use ``python -m repro.report.experiments table1 --scale paper``
  for the full-table reproduction outside pytest-benchmark.

Every benchmark records its scientific outputs (MTTF increase, CPD
preservation, solver statistics) in ``benchmark.extra_info`` so the
pytest-benchmark JSON doubles as the experiment record.  Flows run with
the configuration every runner shares (:func:`repro.core.flow_config`),
so Algorithm 1 gets the same iteration budget here as in the CLI, the
service and the experiment drivers.  Timings for regression tracking
come from ``perfbench/``, not from here.
"""

from __future__ import annotations

import os

import pytest

from repro.benchgen import Table1Entry, entry
from repro.benchgen.synth import build_benchmark
from repro.core import AgingAwareFlow, flow_config

SCALE = os.environ.get("REPRO_BENCH_SCALE", "smoke")

#: Smoke subset: representative Table I entries across usage classes and
#: context counts, all runnable at smoke scale in minutes.
SMOKE_BENCHMARKS = ("B1", "B4", "B10", "B13", "B19", "B22")

#: Fabric cap of the smoke profile (entries are scaled down to fit).
SMOKE_MAX_FABRIC = 8


def scaled_entry(name: str) -> Table1Entry:
    e = entry(name)
    if SCALE == "smoke":
        return e.scaled(SMOKE_MAX_FABRIC)
    return e


def bench_flow(mode: str = "rotate", time_limit_s: float = 15.0) -> AgingAwareFlow:
    """Benchmark-profile flow: the shared configuration with a tighter
    solver time limit, so the whole harness completes in minutes."""
    return AgingAwareFlow(flow_config(mode, time_limit_s))


def solver_extra_info(result) -> dict:
    """Algorithm 1 convergence numbers for ``benchmark.extra_info``.

    ``result`` is a :class:`~repro.core.flow.FlowResult`; the returned
    keys sit next to the scientific outputs so the pytest-benchmark JSON
    records solver effort alongside quality.
    """
    alg1 = result.remap.alg1
    return {
        "solves": alg1.solves,
        "solver_nodes": alg1.total_nodes,
        "max_mip_gap": alg1.max_mip_gap,
        "st_relaxations": alg1.relaxations,
        "floor_ns": alg1.floor_ns,
        "floor_skips": alg1.floor_skips,
    }


@pytest.fixture(scope="session")
def built_benchmarks():
    """Designs/fabrics for the smoke subset, built once per session."""
    result = {}
    for name in SMOKE_BENCHMARKS:
        e = scaled_entry(name)
        result[name] = (e, *build_benchmark(e.spec()))
    return result
