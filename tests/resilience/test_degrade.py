"""The degradation ladder: greedy rung, level ordering, flow integration."""

from __future__ import annotations

import pytest

from repro.aging.stress import compute_stress_map
from repro.resilience import (
    DEGRADATION_LEVELS,
    fault_scope,
    greedy_stress_level_remap,
    worse_level,
)
from repro.timing.sta import analyze


class TestLevels:
    def test_order_best_to_worst(self):
        assert DEGRADATION_LEVELS == ("none", "incumbent", "greedy", "original")

    def test_worse_level(self):
        assert worse_level("none", "greedy") == "greedy"
        assert worse_level("original", "incumbent") == "original"
        assert worse_level("none", "none") == "none"


class TestGreedyRemap:
    def test_result_is_cpd_preserving_and_levels_stress(
        self, synth_design, fabric4, synth_floorplan
    ):
        original_report = analyze(synth_design, synth_floorplan)
        original_stress = compute_stress_map(synth_design, synth_floorplan)
        result = greedy_stress_level_remap(
            synth_design, fabric4, synth_floorplan, frozen_positions={}
        )
        assert result is not None
        # Every accepted move was STA-verified, so the CPD cannot grow.
        assert (
            analyze(synth_design, result).cpd_ns
            <= original_report.cpd_ns + 1e-6
        )
        new_stress = compute_stress_map(synth_design, result)
        assert (
            new_stress.max_accumulated_ns
            < original_stress.max_accumulated_ns
        )

    def test_original_floorplan_untouched(
        self, synth_design, fabric4, synth_floorplan
    ):
        before = dict(synth_floorplan.pe_of)
        greedy_stress_level_remap(
            synth_design, fabric4, synth_floorplan, frozen_positions={}
        )
        assert dict(synth_floorplan.pe_of) == before

    def test_frozen_ops_never_move(
        self, synth_design, fabric4, synth_floorplan
    ):
        stress = compute_stress_map(synth_design, synth_floorplan)
        hottest = stress.accumulated_ns.argmax()
        pinned = {
            op: synth_floorplan.pe_of[op]
            for op in synth_floorplan.pe_of
            if synth_floorplan.pe_of[op] == int(hottest)
        }
        assert pinned, "hottest PE should host at least one op"
        result = greedy_stress_level_remap(
            synth_design, fabric4, synth_floorplan, frozen_positions=pinned
        )
        if result is not None:
            for op, pe in pinned.items():
                assert result.pe_of[op] == pe

    def test_zero_budget_returns_none(
        self, synth_design, fabric4, synth_floorplan
    ):
        assert (
            greedy_stress_level_remap(
                synth_design, fabric4, synth_floorplan, {}, max_moves=0
            )
            is None
        )

    def test_deterministic(self, synth_design, fabric4, synth_floorplan):
        first = greedy_stress_level_remap(
            synth_design, fabric4, synth_floorplan, {}
        )
        second = greedy_stress_level_remap(
            synth_design, fabric4, synth_floorplan, {}
        )
        assert first is not None and second is not None
        assert dict(first.pe_of) == dict(second.pe_of)


class TestLadderInAlgorithm1:
    def _run(self, design, fabric, floorplan):
        from repro.core.algorithm1 import Algorithm1Config, run_algorithm1
        from repro.core.remap import RemapConfig

        return run_algorithm1(
            design,
            fabric,
            floorplan,
            Algorithm1Config(
                max_iterations=4, remap=RemapConfig(time_limit_s=10.0)
            ),
        )

    def test_clean_run_reports_none(
        self, synth_design, fabric4, synth_floorplan
    ):
        result = self._run(synth_design, fabric4, synth_floorplan)
        assert result.degradation == "none"
        assert not result.fell_back

    def test_solver_crash_degrades_with_cpd_preserved(
        self, synth_design, fabric4, synth_floorplan
    ):
        with fault_scope("solver_crash"):
            result = self._run(synth_design, fabric4, synth_floorplan)
        assert result.degradation in ("greedy", "original")
        assert result.final_cpd_ns <= result.original_cpd_ns + 1e-6
        assert "degradation_reason" in result.stats
        result.floorplan.validate()

    def test_solver_crash_after_step1_degrades(self):
        # Only the first relax-loop solve crashes: Step 1 completes, and
        # the SolverError still lands on the ladder, not on the caller.
        from repro.benchgen import load_benchmark
        from repro.core.remap import RemapConfig
        from repro.core.targets import stress_target_lower_bound
        from repro.place import place_baseline

        design, fabric = load_benchmark("B1")
        original = place_baseline(design, fabric)
        stress = compute_stress_map(design, original)
        # A plan that never fires still counts the backend calls.
        with fault_scope("solver_crash@1000000") as plan:
            stress_target_lower_bound(
                design, fabric, original, stress,
                config=RemapConfig(time_limit_s=10.0),
            )
        step1_calls = plan.hits("solver_crash")
        with fault_scope(f"solver_crash@{step1_calls + 1}") as plan:
            result = self._run(design, fabric, original)
        assert plan.fired("solver_crash") == 1
        assert "skipped" not in result.step1.stats
        reason = result.stats["degradation_reason"]
        assert "SolverError" in reason
        assert "'remap." in reason  # the relax loop's model, not Step 1's
        assert result.degradation in ("greedy", "original")
        assert result.final_cpd_ns <= result.original_cpd_ns + 1e-6
        result.floorplan.validate()

    def test_solver_timeout_degrades(
        self, synth_design, fabric4, synth_floorplan
    ):
        with fault_scope("solver_timeout"):
            result = self._run(synth_design, fabric4, synth_floorplan)
        assert result.degradation in ("greedy", "original")
        assert result.final_cpd_ns <= result.original_cpd_ns + 1e-6

    def test_infeasible_model_falls_back_to_original(
        self, synth_design, fabric4, synth_floorplan
    ):
        # Proven infeasibility exhausts the relax loop: the paper's
        # unconditional fallback, not a solver failure.
        with fault_scope("infeasible_model"):
            result = self._run(synth_design, fabric4, synth_floorplan)
        assert result.fell_back
        assert result.degradation == "original"
        assert result.floorplan.pe_of == synth_floorplan.pe_of


class TestLadderInFlow:
    @pytest.fixture(scope="class")
    def flow(self):
        from repro.core.algorithm1 import Algorithm1Config
        from repro.core.flow import AgingAwareFlow, FlowConfig
        from repro.core.remap import RemapConfig

        return AgingAwareFlow(
            FlowConfig(
                algorithm1=Algorithm1Config(
                    max_iterations=4, remap=RemapConfig(time_limit_s=10.0)
                )
            )
        )

    def test_summary_reports_degradation(self, flow, synth_design, fabric4):
        result = flow.run(synth_design, fabric4)
        summary = result.summary()
        assert summary["degradation"] in DEGRADATION_LEVELS

    def test_every_fault_yields_valid_result(
        self, flow, synth_design, fabric4
    ):
        for fault in (
            "solver_crash",
            "solver_timeout",
            "infeasible_model",
            "thermal_divergence@2",
            "annealing_nan",
        ):
            with fault_scope(fault):
                result = flow.run(synth_design, fabric4)
            assert result.mttf_increase >= 1.0, fault
            assert result.cpd_preserved, fault
            assert result.remap.degradation in DEGRADATION_LEVELS, fault
            result.remapped.floorplan.validate()

    def test_phase2_reeval_thermal_failure_keeps_original(
        self, flow, synth_design, fabric4
    ):
        # Hit 1 is the Phase 1 baseline evaluation (shielded from faults?
        # no — spared by @2), hit 2 is the Phase 2 re-evaluation.
        with fault_scope("thermal_divergence@2"):
            result = flow.run(synth_design, fabric4)
        assert result.remap.degradation == "original"
        assert result.remap.fell_back
        assert result.mttf_increase == 1.0
