"""Incremental-solving tests for Algorithm 1's relax loop.

The Eq. (3) model must be assembled (lowered) exactly once per
Algorithm 1 run; every further relaxation iteration only re-stamps the
``st_target`` RHS parameter on the cached compiled model, optionally
warm-started from the previous iteration's pre-mapping.
"""

from __future__ import annotations

import pytest

from repro.aging import compute_stress_map
from repro.core import Algorithm1Config, RemapConfig, WarmStart, run_algorithm1
from repro.core.remap import (
    build_remap_model,
    default_candidates,
    restamp_remap_model,
    solve_remap,
)
from repro.core.rotation import freeze_plan
from repro.core.targets import StressTargetResult
from repro.obs import CollectorSink, attached, counter
from repro.timing import all_critical_paths, analyze
from repro.timing.graph import build_timing_graphs
from repro.timing.kpaths import filter_paths


def spans_named(records, name, model=None):
    return [
        r for r in records
        if r["type"] == "span" and r["name"] == name
        and (model is None or r["attrs"].get("model") == model)
    ]


@pytest.fixture(scope="class")
def forced_relax_run(request, synth_design, synth_floorplan, fabric4):
    """Run Algorithm 1 with Step 1 pinned to a too-tight (but buildable)
    target, so the relax loop is guaranteed to execute at least twice —
    the scenario the incremental-compilation contract is about."""
    stress = compute_stress_map(synth_design, synth_floorplan)
    # Above the frozen per-PE stress (the model builds) yet below any
    # achievable levelling (the first solve is infeasible).
    target = stress.max_accumulated_ns * 0.40

    def fake_step1(*args, **kwargs):
        return StressTargetResult(
            st_target_ns=target,
            st_low_ns=stress.mean_accumulated_ns,
            st_up_ns=stress.max_accumulated_ns,
        )

    patch = pytest.MonkeyPatch()
    request.addfinalizer(patch.undo)
    patch.setattr(
        "repro.core.algorithm1.stress_target_lower_bound", fake_step1
    )
    collector = CollectorSink()
    config = Algorithm1Config(
        delta_ns=stress.max_accumulated_ns / 8.0,
        remap=RemapConfig(time_limit_s=30),
    )
    with attached(collector):
        result = run_algorithm1(
            synth_design, fabric4, synth_floorplan, config
        )
    return result, collector.records


class TestOneBuildPerRun:
    def test_forced_scenario_relaxes(self, forced_relax_run):
        result, _ = forced_relax_run
        assert result.iterations >= 2
        log = result.stats["iterations"]
        assert log[0]["result"] == "infeasible"
        assert log[-1]["result"] == "accepted"

    def test_exactly_one_model_build(self, forced_relax_run):
        _, records = forced_relax_run
        builds = spans_named(records, "milp_build", model="remap")
        assert len(builds) == 1

    def test_later_iterations_restamp(self, forced_relax_run):
        result, records = forced_relax_run
        restamps = spans_named(records, "milp_restamp", model="remap")
        assert len(restamps) == result.iterations - 1
        log = result.stats["iterations"]
        assert all(entry.get("restamped") for entry in log[1:])
        assert "restamped" not in log[0]

    def test_result_still_valid(self, forced_relax_run, synth_design):
        result, _ = forced_relax_run
        assert not result.fell_back
        report = analyze(synth_design, result.floorplan)
        assert report.cpd_ns <= result.original_cpd_ns + 1e-6


@pytest.fixture(scope="class")
def remap_inputs(synth_design, synth_floorplan, fabric4):
    """The Eq. (3) ingredients Algorithm 1 derives before its loop."""
    graphs = build_timing_graphs(synth_design)
    report = analyze(synth_design, synth_floorplan, graphs)
    critical = all_critical_paths(synth_design, synth_floorplan, graphs, report)
    by_context: dict[int, list[int]] = {}
    for path in critical:
        bucket = by_context.setdefault(path.context, [])
        for op in path.chain:
            if op not in bucket:
                bucket.append(op)
    frozen = freeze_plan(synth_floorplan, by_context)
    filtered = filter_paths(
        synth_design, synth_floorplan, graphs=graphs, report=report
    )
    config = RemapConfig(time_limit_s=30)
    candidates = default_candidates(
        synth_design, synth_floorplan, frozen, fabric4,
        config.resolved_window(fabric4),
    )
    stress = compute_stress_map(synth_design, synth_floorplan)
    return {
        "frozen": frozen,
        "candidates": candidates,
        "monitored": filtered.non_critical,
        "cpd_ns": report.cpd_ns,
        "config": config,
        "max_stress": stress.max_accumulated_ns,
    }


class TestWarmFixing:
    """Re-solving a re-stamped model re-uses the previous pre-mapping."""

    def test_warm_fixing_hit_after_restamp(
        self, remap_inputs, synth_design, fabric4
    ):
        inp = remap_inputs
        feasible_target = inp["max_stress"]
        model, variables, _ = build_remap_model(
            synth_design, fabric4, inp["frozen"], inp["candidates"],
            inp["monitored"], inp["cpd_ns"], feasible_target,
        )
        cold = solve_remap(model, variables, inp["config"])
        assert cold.feasible

        # Same model, looser target: the previous binding must still be
        # feasible, so the warm trial short-circuits the LP->ILP path.
        # (The LP's own >threshold fixing set can legitimately be empty,
        # so the hint carries the full previous assignment instead.)
        warm = WarmStart(fixing=dict(cold.assignment), reason="infeasible")
        restamp_remap_model(model, inp["max_stress"] * 1.1)
        hits = counter("milp.warm_fixing_hits")
        before = hits.value
        outcome = solve_remap(model, variables, inp["config"], warm=warm)
        assert outcome.feasible
        assert outcome.stats.get("warm_fixing") == len(warm.fixing)
        assert "lp_status" not in outcome.stats  # LP stage skipped
        assert hits.value == before + 1
        # The fixed groups are honoured; unfixed ops may move freely.
        for op, pe in warm.fixing.items():
            assert outcome.assignment[op] == pe

    def test_warm_fixing_miss_reopens_and_retries(
        self, remap_inputs, synth_design, fabric4
    ):
        inp = remap_inputs
        model, variables, _ = build_remap_model(
            synth_design, fabric4, inp["frozen"], inp["candidates"],
            inp["monitored"], inp["cpd_ns"], inp["max_stress"],
        )
        cold = solve_remap(model, variables, inp["config"])
        assert cold.feasible
        warm = WarmStart(fixing=dict(cold.assignment), reason="infeasible")
        # Tighten far below feasibility: the warm trial must miss, reopen
        # the fixes, and fall through to the (also infeasible) cold path.
        restamp_remap_model(model, inp["max_stress"] * 0.3)
        misses = counter("milp.warm_fixing_misses")
        before = misses.value
        outcome = solve_remap(model, variables, inp["config"], warm=warm)
        assert misses.value == before + 1
        assert outcome.stats.get("warm_fixing_retry") is True
        assert not outcome.feasible
        assert model.fixed_variables == {}

    def test_warm_ignored_without_infeasible_reason(
        self, remap_inputs, synth_design, fabric4
    ):
        inp = remap_inputs
        model, variables, _ = build_remap_model(
            synth_design, fabric4, inp["frozen"], inp["candidates"],
            inp["monitored"], inp["cpd_ns"], inp["max_stress"],
        )
        cold = solve_remap(model, variables, inp["config"])
        stale = WarmStart(fixing=dict(cold.assignment), reason="cpd_violation")
        restamp_remap_model(model, inp["max_stress"] * 1.1)
        outcome = solve_remap(model, variables, inp["config"], warm=stale)
        assert outcome.feasible
        assert "warm_fixing" not in outcome.stats
        assert "lp_status" in outcome.stats  # full two-step pipeline ran
