"""Incremental-compilation microbenchmark (docs/performance.md).

Algorithm 1's relax loop re-solves the same Eq. (3) model at a sequence
of ``ST_target`` values.  This bench isolates the model-side cost of one
such iteration, on the largest smoke-suite entry:

* **cold** — assemble the expression model from scratch and lower it to
  matrix form, which is what every iteration paid before incremental
  compilation;
* **cached restamp** — re-stamp the ``st_target`` RHS parameter on the
  already-compiled model and re-emit the matrix form, which is what an
  iteration pays now (O(rows) re-stamp, zero expression traversals).

Run::

    pytest benchmarks/bench_lowering.py --benchmark-only
"""

from __future__ import annotations

import pytest

from repro.aging import compute_stress_map
from repro.core.remap import (
    build_remap_model,
    default_candidates,
    resolved_window,
)
from repro.core.rotation import freeze_plan
from repro.place import place_baseline
from repro.timing import all_critical_paths, analyze
from repro.timing.graph import build_timing_graphs
from repro.timing.kpaths import filter_paths


@pytest.fixture(scope="module")
def remap_inputs(built_benchmarks):  # noqa: F811
    """Eq. (3) ingredients for the largest smoke entry (most PEs x ops)."""
    entry, design, fabric = max(
        built_benchmarks.values(),
        key=lambda item: (item[2].num_pes, item[0].pe_count),
    )
    original = place_baseline(design, fabric)
    graphs = build_timing_graphs(design)
    report = analyze(design, original, graphs)
    critical = all_critical_paths(design, original, graphs, report)
    by_context: dict[int, list[int]] = {}
    for path in critical:
        bucket = by_context.setdefault(path.context, [])
        for op in path.chain:
            if op not in bucket:
                bucket.append(op)
    frozen = freeze_plan(original, by_context)
    filtered = filter_paths(design, original, graphs=graphs, report=report)
    candidates = default_candidates(
        design, original, frozen, fabric, resolved_window(fabric)
    )
    st_target = compute_stress_map(design, original).max_accumulated_ns
    return {
        "entry": entry,
        "design": design,
        "fabric": fabric,
        "frozen": frozen,
        "candidates": candidates,
        "monitored": filtered.non_critical,
        "cpd_ns": report.cpd_ns,
        "st_target": st_target,
    }


def _build(inp, st_target):
    model, _, _ = build_remap_model(
        inp["design"], inp["fabric"], inp["frozen"], inp["candidates"],
        inp["monitored"], inp["cpd_ns"], st_target,
    )
    return model


def test_lowering_cold_build(benchmark, remap_inputs):
    """Full assembly + lowering per iteration (pre-incremental cost)."""
    inp = remap_inputs

    def cold():
        return _build(inp, inp["st_target"]).to_matrix_form()

    form = benchmark.pedantic(cold, rounds=5, iterations=1, warmup_rounds=1)
    benchmark.extra_info.update(
        {
            "benchmark": inp["entry"].name,
            "rows": form.a_matrix.shape[0],
            "cols": form.a_matrix.shape[1],
            "nnz": int(form.a_matrix.nnz),
        }
    )


def test_lowering_cached_restamp(benchmark, remap_inputs):
    """Parameter re-stamp + matrix re-emit per iteration (current cost)."""
    inp = remap_inputs
    model = _build(inp, inp["st_target"])
    model.to_matrix_form()  # charge the one-off compile outside the timer
    targets = [inp["st_target"] * 1.05, inp["st_target"] * 1.10]
    state = {"flip": 0}

    def restamp():
        state["flip"] ^= 1
        model.set_parameter("st_target", targets[state["flip"]])
        return model.to_matrix_form()

    form = benchmark.pedantic(
        restamp, rounds=20, iterations=1, warmup_rounds=2
    )
    benchmark.extra_info.update(
        {
            "benchmark": inp["entry"].name,
            "rows": form.a_matrix.shape[0],
            "cols": form.a_matrix.shape[1],
            "nnz": int(form.a_matrix.nnz),
        }
    )
