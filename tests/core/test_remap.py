"""Re-mapping model assembly and solve-strategy tests."""

from __future__ import annotations

import pytest

from repro.aging import compute_stress_map
from repro.arch import Fabric
from repro.core import (
    FrozenPlan,
    RemapConfig,
    build_remap_model,
    default_candidates,
    frozen_stress_by_pe,
    solve_remap,
)
from repro.errors import ModelError
from repro.timing import analyze, filter_paths


def empty_frozen():
    return FrozenPlan(positions={}, orientation_of_context={})


class TestCandidates:
    def test_full_window_gives_all_pes(self, synth_design, synth_floorplan, fabric4):
        candidates = default_candidates(
            synth_design, synth_floorplan, empty_frozen(), fabric4, None
        )
        assert all(len(c) == 16 for c in candidates.values())
        assert set(candidates) == set(synth_design.ops)

    def test_window_limits_but_includes_origin(
        self, synth_design, synth_floorplan, fabric4
    ):
        candidates = default_candidates(
            synth_design, synth_floorplan, empty_frozen(), fabric4, 6
        )
        for op, cands in candidates.items():
            assert synth_floorplan.pe_of[op] in cands
            assert len(cands) <= 16

    def test_frozen_ops_excluded(self, synth_design, synth_floorplan, fabric4):
        some_op = next(iter(synth_design.ops))
        frozen = FrozenPlan(
            positions={some_op: synth_floorplan.pe_of[some_op]},
            orientation_of_context={},
        )
        candidates = default_candidates(
            synth_design, synth_floorplan, frozen, fabric4, None
        )
        assert some_op not in candidates
        context = synth_design.ops[some_op].context
        blocked_pe = synth_floorplan.pe_of[some_op]
        for op, cands in candidates.items():
            if synth_design.ops[op].context == context:
                assert blocked_pe not in cands

    def test_frozen_stress_by_pe(self, synth_design):
        op_a, op_b = sorted(synth_design.ops)[:2]
        frozen = FrozenPlan(
            positions={op_a: 3, op_b: 3}, orientation_of_context={}
        )
        stress = frozen_stress_by_pe(synth_design, frozen)
        expected = (
            synth_design.ops[op_a].stress_ns + synth_design.ops[op_b].stress_ns
        )
        assert stress[3] == pytest.approx(expected)


@pytest.fixture
def remap_inputs(synth_design, synth_floorplan, fabric4):
    report = analyze(synth_design, synth_floorplan)
    stress = compute_stress_map(synth_design, synth_floorplan)
    monitored = filter_paths(synth_design, synth_floorplan).non_critical
    candidates = default_candidates(
        synth_design, synth_floorplan, empty_frozen(), fabric4, None
    )
    return {
        "design": synth_design,
        "fabric": fabric4,
        "floorplan": synth_floorplan,
        "cpd": report.cpd_ns,
        "stress": stress,
        "monitored": monitored,
        "candidates": candidates,
    }


class TestBuildModel:
    def test_model_dimensions(self, remap_inputs):
        model, variables, stats = build_remap_model(
            remap_inputs["design"],
            remap_inputs["fabric"],
            empty_frozen(),
            remap_inputs["candidates"],
            remap_inputs["monitored"],
            remap_inputs["cpd"],
            st_target_ns=remap_inputs["stress"].max_accumulated_ns,
        )
        ops = remap_inputs["design"].num_ops
        assert stats["binaries"] == ops * 16
        assert len(variables.assign) == ops
        assert not model.has_objective()  # the paper's ObjFunc: Null

    def test_null_objective_mode(self, remap_inputs):
        model, _, _ = build_remap_model(
            remap_inputs["design"],
            remap_inputs["fabric"],
            empty_frozen(),
            remap_inputs["candidates"],
            remap_inputs["monitored"],
            remap_inputs["cpd"],
            st_target_ns=remap_inputs["stress"].max_accumulated_ns,
            objective="null",
        )
        assert not model.has_objective()

    def test_wirelength_objective_for_the_verifier_oracle(self, remap_inputs):
        model, _, _ = build_remap_model(
            remap_inputs["design"],
            remap_inputs["fabric"],
            empty_frozen(),
            remap_inputs["candidates"],
            remap_inputs["monitored"],
            remap_inputs["cpd"],
            st_target_ns=remap_inputs["stress"].max_accumulated_ns,
            objective="wirelength",
        )
        assert model.has_objective()

    def test_unknown_objective_rejected(self, remap_inputs):
        with pytest.raises(ModelError):
            build_remap_model(
                remap_inputs["design"],
                remap_inputs["fabric"],
                empty_frozen(),
                remap_inputs["candidates"],
                remap_inputs["monitored"],
                remap_inputs["cpd"],
                st_target_ns=10.0,
                objective="banana",
            )


class TestSolveStrategies:
    def run(self, remap_inputs, st_target, **config_kw):
        config = RemapConfig(time_limit_s=30, **config_kw)
        model, variables, _ = build_remap_model(
            remap_inputs["design"],
            remap_inputs["fabric"],
            empty_frozen(),
            remap_inputs["candidates"],
            remap_inputs["monitored"],
            remap_inputs["cpd"],
            st_target_ns=st_target,
        )
        return solve_remap(model, variables, config)

    def test_two_step_feasible_at_original_max(self, remap_inputs):
        outcome = self.run(
            remap_inputs, remap_inputs["stress"].max_accumulated_ns
        )
        assert outcome.feasible
        assert set(outcome.assignment) == set(remap_inputs["design"].ops)
        assert outcome.stats["strategy"] == "two-step"

    def test_infeasible_below_mean(self, remap_inputs):
        outcome = self.run(
            remap_inputs, remap_inputs["stress"].mean_accumulated_ns * 0.5
        )
        assert not outcome.feasible

    def test_monolithic_agrees_on_feasibility(self, remap_inputs):
        outcome = self.run(
            remap_inputs,
            remap_inputs["stress"].max_accumulated_ns,
            strategy="monolithic",
        )
        assert outcome.feasible
        assert outcome.stats["strategy"] == "monolithic"

    def test_randomized_rounding_strategy(self, remap_inputs):
        """Randomized rounding runs, but may pre-map itself into a corner
        (two same-context ops rounded onto one PE) — exactly the weakness
        the paper reports ("did not work as well")."""
        outcome = self.run(
            remap_inputs,
            remap_inputs["stress"].max_accumulated_ns,
            rounding="randomized",
        )
        assert outcome.stats["rounding"] == "randomized"
        if outcome.feasible:
            assert set(outcome.assignment) == set(remap_inputs["design"].ops)

    def test_unknown_strategy_rejected(self, remap_inputs):
        with pytest.raises(ModelError):
            self.run(remap_inputs, 10.0, strategy="quantum")

    def test_outcome_floorplan_respects_budget(self, remap_inputs):
        target = remap_inputs["stress"].max_accumulated_ns * 0.9
        outcome = self.run(remap_inputs, target)
        if outcome.feasible:
            floorplan = outcome.floorplan(
                remap_inputs["floorplan"], empty_frozen()
            )
            new_stress = compute_stress_map(remap_inputs["design"], floorplan)
            assert new_stress.max_accumulated_ns <= target + 1e-6

    def test_infeasible_outcome_has_no_floorplan(self, remap_inputs):
        outcome = self.run(remap_inputs, 0.01)
        with pytest.raises(ModelError):
            outcome.floorplan(remap_inputs["floorplan"], empty_frozen())

