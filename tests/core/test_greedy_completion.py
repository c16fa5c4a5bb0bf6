"""LP-guided greedy completion tests (the large-model completion path)."""

from __future__ import annotations

import pytest

import repro.core.remap as remap_module
from repro.aging import compute_stress_map
from repro.core import (
    FrozenPlan,
    RemapConfig,
    build_remap_model,
    default_candidates,
    solve_remap,
)
from repro.core.remap import GreedyContext
from repro.timing import analyze, filter_paths


def empty_frozen():
    return FrozenPlan(positions={}, orientation_of_context={})


@pytest.fixture
def problem(synth_design, synth_floorplan, fabric4):
    report = analyze(synth_design, synth_floorplan)
    stress = compute_stress_map(synth_design, synth_floorplan)
    monitored = filter_paths(synth_design, synth_floorplan).non_critical
    candidates = default_candidates(
        synth_design, synth_floorplan, empty_frozen(), fabric4, None
    )
    return synth_design, fabric4, synth_floorplan, report.cpd_ns, stress, monitored, candidates


def solve_with_completion(problem, st_target, completion):
    """Solve with the greedy completion ("greedy": every model counts as
    large), the residual ILP ("ilp": no greedy context) or the choice a
    relax-loop solve makes by model size ("auto")."""
    design, fabric, floorplan, cpd, stress, monitored, candidates = problem
    config = RemapConfig(time_limit_s=30)
    model, variables, _ = build_remap_model(
        design, fabric, empty_frozen(), candidates, monitored, cpd, st_target
    )
    ctx = None if completion == "ilp" else GreedyContext(
        design=design,
        fabric=fabric,
        frozen_positions={},
        st_target_ns=st_target,
        frozen_stress_ns={},
    )
    with pytest.MonkeyPatch.context() as patch:
        if completion == "greedy":
            patch.setattr(remap_module, "GREEDY_THRESHOLD", 0)
        return solve_remap(model, variables, config, greedy_context=ctx)


class TestGreedyCompletion:
    def test_respects_stress_budget(self, problem):
        design, fabric, floorplan, cpd, stress, *_ = problem
        target = 0.8 * stress.max_accumulated_ns
        outcome = solve_with_completion(problem, target, "greedy")
        assert outcome.feasible
        assert outcome.stats["completion"] == "greedy"
        new = outcome.floorplan(floorplan, empty_frozen())
        new_stress = compute_stress_map(design, new)
        assert new_stress.max_accumulated_ns <= target + 1e-9

    def test_produces_legal_floorplan(self, problem):
        design, fabric, floorplan, cpd, stress, *_ = problem
        outcome = solve_with_completion(
            problem, stress.max_accumulated_ns, "greedy"
        )
        assert outcome.feasible
        new = outcome.floorplan(floorplan, empty_frozen())
        new.validate()
        assert set(new.ops) == set(floorplan.ops)

    def test_greedy_matches_ilp_feasibility(self, problem):
        """At a comfortably feasible target both completions succeed."""
        *_, stress, _, _ = problem[:7]
        target = problem[4].max_accumulated_ns * 0.9
        greedy = solve_with_completion(problem, target, "greedy")
        ilp = solve_with_completion(problem, target, "ilp")
        assert greedy.feasible == ilp.feasible is True

    def test_auto_uses_ilp_on_small_models(self, problem):
        *_, stress, _, _ = problem[:7]
        outcome = solve_with_completion(
            problem, problem[4].max_accumulated_ns, "auto"
        )
        # 28 ops x 16 PEs = 448 binaries < greedy threshold -> ILP path.
        assert outcome.feasible
        assert "completion" not in outcome.stats

    def test_infeasible_budget_fails_cleanly(self, problem):
        outcome = solve_with_completion(problem, 0.5, "greedy")
        # Greedy dead-ends, ILP confirms infeasibility.
        assert not outcome.feasible

    def test_greedy_wire_quality_reasonable(self, problem):
        """The wire-guided greedy should not produce wildly longer wires
        than the LP-optimal ILP result."""
        from repro.core.constraints import design_wire_endpoints

        design, fabric, floorplan, cpd, stress, *_ = problem
        target = stress.max_accumulated_ns

        def total_wirelength(fp):
            total = 0.0
            for a, b in design_wire_endpoints(design):
                pa, pb = a.position(fp), b.position(fp)
                total += abs(pa[0] - pb[0]) + abs(pa[1] - pb[1])
            return total

        greedy = solve_with_completion(problem, target, "greedy")
        ilp = solve_with_completion(problem, target, "ilp")
        wl_greedy = total_wirelength(greedy.floorplan(floorplan, empty_frozen()))
        wl_ilp = total_wirelength(ilp.floorplan(floorplan, empty_frozen()))
        assert wl_greedy <= 2.0 * wl_ilp
