"""Step-1 (ST_target lower bound) tests."""

from __future__ import annotations

import pytest

from repro.aging import compute_stress_map
from repro.benchgen import load_benchmark
from repro.core import (
    RemapConfig,
    default_delta_ns,
    stress_target_lower_bound,
)
from repro.core.remap import (
    GreedyContext,
    build_remap_model,
    default_candidates,
    resolved_window,
    solve_remap,
)
from repro.core.rotation import FrozenPlan
from repro.core.targets import FLOOR_MARGIN_NS, relaxed_target
from repro.obs import CollectorSink, attached, counter
from repro.place import place_baseline


@pytest.fixture
def inputs(synth_design, synth_floorplan, fabric4):
    stress = compute_stress_map(synth_design, synth_floorplan)
    return synth_design, fabric4, synth_floorplan, stress


class TestBounds:
    def test_result_within_brackets(self, inputs):
        design, fabric, floorplan, stress = inputs
        result = stress_target_lower_bound(
            design, fabric, floorplan, stress, config=RemapConfig(time_limit_s=30)
        )
        assert stress.mean_accumulated_ns - 1e-9 <= result.st_target_ns
        assert result.st_target_ns <= stress.max_accumulated_ns + default_delta_ns(stress)
        assert result.st_low_ns == pytest.approx(stress.mean_accumulated_ns)
        assert result.st_up_ns == pytest.approx(stress.max_accumulated_ns)

    def test_target_is_delay_unaware_feasible(self, inputs):
        """An integral delay-unaware floorplan must exist at the target."""
        design, fabric, floorplan, stress = inputs
        result = stress_target_lower_bound(
            design, fabric, floorplan, stress, config=RemapConfig(time_limit_s=30)
        )
        assert result.stats.get("status") == "ok"

    def test_target_is_meaningfully_below_original_max(self, inputs):
        """The aging-unaware corner packing leaves lots of slack: the
        delay-unaware bound should bite well below the original max."""
        design, fabric, floorplan, stress = inputs
        result = stress_target_lower_bound(
            design, fabric, floorplan, stress, config=RemapConfig(time_limit_s=30)
        )
        assert result.st_target_ns < stress.max_accumulated_ns * 0.95

    def test_deterministic(self, inputs):
        design, fabric, floorplan, stress = inputs
        a = stress_target_lower_bound(
            design, fabric, floorplan, stress, config=RemapConfig(time_limit_s=30)
        )
        b = stress_target_lower_bound(
            design, fabric, floorplan, stress, config=RemapConfig(time_limit_s=30)
        )
        assert a.st_target_ns == pytest.approx(b.st_target_ns)


class TestDelta:
    def test_default_delta_positive(self, inputs):
        *_, stress = inputs
        delta = default_delta_ns(stress)
        assert delta > 0

    def test_default_delta_span_fraction(self, inputs):
        *_, stress = inputs
        span = stress.max_accumulated_ns - stress.mean_accumulated_ns
        delta = default_delta_ns(stress)
        assert delta >= span / 20 - 1e-12

    def test_floor_for_degenerate_span(self):
        import numpy as np

        from repro.aging import StressMap

        uniform = StressMap(
            per_context_ns=np.full((2, 4), 1.0), clock_period_ns=5.0
        )
        assert default_delta_ns(uniform) > 0


def reference_scan(design, fabric, original, stress, config):
    """Step 1's Δ-scan from k = 0, every grid point solved.

    Returns the two-step verdict of each grid point up to the first
    feasible one, whose index and target are Step 1's answer.
    """
    frozen = FrozenPlan(positions={}, orientation_of_context={})
    candidates = default_candidates(
        design, original, frozen, fabric, resolved_window(fabric)
    )
    model, variables, _ = build_remap_model(
        design, fabric, frozen, candidates, monitored_paths=(),
        cpd_ns=float("inf"), st_target_ns=stress.max_accumulated_ns,
        name="reference",
    )
    delta = default_delta_ns(stress)
    verdicts: list[bool] = []
    while not verdicts or not verdicts[-1]:
        assert len(verdicts) < 100, "no feasible grid point"
        target = relaxed_target(stress.mean_accumulated_ns, delta, len(verdicts))
        model.unfix_all()
        model.set_parameter("st_target", target)
        greedy = GreedyContext(
            design=design, fabric=fabric, frozen_positions={},
            st_target_ns=target, frozen_stress_ns={},
        )
        verdicts.append(
            solve_remap(model, variables, config, greedy_context=greedy).feasible
        )
    return verdicts, target


@pytest.fixture(scope="module", params=["B1", "B10"])
def table1_step1(request):
    """Step 1 on a canonical Table I entry at 4x4, with the grid points
    below its integrality floor skipped."""
    design, fabric = load_benchmark(request.param)
    original = place_baseline(design, fabric)
    stress = compute_stress_map(design, original)
    config = RemapConfig(time_limit_s=30)
    collector = CollectorSink()
    skips = counter("algorithm1.st_target_floor_skips")
    before = skips.value
    with attached(collector):
        result = stress_target_lower_bound(
            design, fabric, original, stress, config=config
        )
    return {
        "inputs": (design, fabric, original, stress, config),
        "result": result,
        "records": collector.records,
        "counted_skips": skips.value - before,
    }


class TestIntegralityFloor:
    def test_skips_some_grid_points(self, table1_step1):
        result = table1_step1["result"]
        assert result.floor_skips >= 1
        assert result.st_low_ns < result.floor_ns <= result.st_up_ns
        skipped = relaxed_target(
            result.st_low_ns, default_delta_ns(table1_step1["inputs"][3]),
            result.floor_skips - 1,
        )
        assert skipped < result.floor_ns - FLOOR_MARGIN_NS

    def test_matches_scan_from_zero(self, table1_step1):
        """Every skipped grid point is infeasible, and the target and the
        bump count are exactly those of a scan that solves every point."""
        result = table1_step1["result"]
        verdicts, target = reference_scan(*table1_step1["inputs"])
        assert verdicts[: result.floor_skips] == [False] * result.floor_skips
        assert result.ilp_bumps == len(verdicts) - 1
        assert result.st_target_ns == target
        assert result.stats.get("status") == "ok"

    def test_trace_records_skips(self, table1_step1):
        result = table1_step1["result"]
        records = [r for r in table1_step1["records"] if r["type"] == "span"]
        (search,) = [r for r in records if r["name"] == "binary_search"]
        assert search["attrs"]["floor_skips"] == result.floor_skips
        assert search["attrs"]["floor_ns"] == result.floor_ns
        assert table1_step1["counted_skips"] == result.floor_skips

    def test_no_solve_below_floor(self, table1_step1):
        result = table1_step1["result"]
        records = [r for r in table1_step1["records"] if r["type"] == "span"]
        solves = [r for r in records if r["name"] == "milp_solve"]
        assert len(solves) == result.ilp_bumps - result.floor_skips + 1
        aims = [
            r["attrs"]["st_target_ns"] for r in records
            if r["name"] == "milp_restamp"
        ]
        assert len(aims) == len(solves)
        assert min(aims) >= result.floor_ns - FLOOR_MARGIN_NS
