"""Ablation A1: two-step LP->ILP vs the monolithic primary ILP.

Section V-A motivates the whole method: the primary ILP formulation "does
not scale well; ... the ILP solver could not find a solution within a
reasonable amount of time (5 days)".  This ablation times the paper's
two-step relaxation against the monolithic solve on the same model at
identical ST_target, and additionally counts branch-and-bound nodes with
the pure-Python reference solver on a tiny instance to show *why*: the
pre-mapping collapses most of the branching tree.

Run::

    pytest benchmarks/bench_ablation_twostep.py --benchmark-only
"""

from __future__ import annotations

import pytest

from benchmarks.conftest import scaled_entry
from repro.aging import compute_stress_map
from repro.benchgen.synth import build_benchmark
from repro.core import (
    FrozenPlan,
    RemapConfig,
    build_remap_model,
    default_candidates,
    solve_remap,
)
from repro.place import place_baseline
from repro.timing import analyze, filter_paths


@pytest.fixture(scope="module")
def problem():
    entry = scaled_entry("B13")
    design, fabric = build_benchmark(entry.spec())
    floorplan = place_baseline(design, fabric)
    stress = compute_stress_map(design, floorplan)
    report = analyze(design, floorplan)
    monitored = filter_paths(design, floorplan).non_critical
    frozen = FrozenPlan(positions={}, orientation_of_context={})
    candidates = default_candidates(design, floorplan, frozen, fabric, None)
    # A mildly tight budget: feasible, but not trivially so.
    st_target = 0.75 * stress.max_accumulated_ns
    return design, fabric, frozen, candidates, monitored, report.cpd_ns, st_target


@pytest.mark.parametrize("strategy", ["two-step", "monolithic"])
def test_strategy_runtime(benchmark, problem, strategy):
    design, fabric, frozen, candidates, monitored, cpd, st_target = problem
    config = RemapConfig(strategy=strategy, time_limit_s=60)

    def solve():
        model, variables, _ = build_remap_model(
            design, fabric, frozen, candidates, monitored, cpd, st_target
        )
        return solve_remap(model, variables, config)

    outcome = benchmark.pedantic(solve, rounds=1, iterations=1)
    assert outcome.feasible
    benchmark.extra_info.update(
        {
            "strategy": strategy,
            "status": outcome.stats.get("status"),
            "fixed_fraction": outcome.stats.get("fixed_fraction"),
            "lp_s": outcome.stats.get("lp_s"),
            "ilp_s": outcome.stats.get("ilp_s") or outcome.stats.get("solve_s"),
        }
    )


def test_premapping_shrinks_branching_tree(benchmark):
    """Reference-solver node counts with and without LP pre-mapping."""
    from repro.milp import BranchBoundBackend, threshold_fix

    entry = scaled_entry("B1")
    design, fabric = build_benchmark(entry.spec())
    floorplan = place_baseline(design, fabric)
    stress = compute_stress_map(design, floorplan)
    frozen = FrozenPlan(positions={}, orientation_of_context={})
    candidates = default_candidates(design, floorplan, frozen, fabric, 8)
    st_target = 0.8 * stress.max_accumulated_ns

    def build():
        return build_remap_model(
            design, fabric, frozen, candidates, (), float("inf"), st_target,
            objective="null",
        )

    def run():
        # Monolithic reference solve.
        model, variables, _ = build()
        raw_backend = BranchBoundBackend(max_nodes=20_000)
        raw = model.solve(raw_backend)
        raw_nodes = raw.stats.nodes
        # Two-step: LP relax, fix, then reference-solve the residue.
        model2, variables2, _ = build()
        lp = model2.solve(relax=True)
        threshold_fix(model2, variables2.groups, lp)
        fixed_backend = BranchBoundBackend(max_nodes=20_000)
        fixed = model2.solve(fixed_backend)
        return raw_nodes, fixed.stats.nodes, raw, fixed

    raw_nodes, fixed_nodes, raw, fixed = benchmark.pedantic(
        run, rounds=1, iterations=1
    )
    assert fixed.status.has_solution
    # The pre-mapped tree must be no larger (and is typically far smaller).
    assert fixed_nodes <= raw_nodes
    benchmark.extra_info.update(
        {"monolithic_nodes": raw_nodes, "premapped_nodes": fixed_nodes}
    )
