"""Fault-injection harness: plan parsing, determinism, injection sites."""

from __future__ import annotations

import pytest

from repro.errors import SolverError
from repro.milp.model import Model
from repro.milp.scipy_backend import ScipyBackend
from repro.milp.branch_bound import BranchBoundBackend
from repro.milp.status import SolveStatus
from repro.resilience import (
    ENV_VAR,
    FAULT_POINTS,
    FaultConfigError,
    FaultPlan,
    fault_scope,
    should_inject,
)
from repro.resilience.faults import active_plan


class TestPlanParsing:
    def test_single_point(self):
        plan = FaultPlan.parse("solver_crash")
        assert plan.should_fire("solver_crash")
        assert not plan.should_fire("annealing_nan")

    def test_multiple_points(self):
        plan = FaultPlan.parse("solver_crash, annealing_nan")
        assert plan.should_fire("solver_crash")
        assert plan.should_fire("annealing_nan")

    def test_at_index_fires_only_on_that_hit(self):
        plan = FaultPlan.parse("thermal_divergence@2")
        assert not plan.should_fire("thermal_divergence")  # hit 1
        assert plan.should_fire("thermal_divergence")  # hit 2
        assert not plan.should_fire("thermal_divergence")  # hit 3
        assert plan.hits("thermal_divergence") == 3
        assert plan.fired("thermal_divergence") == 1

    def test_unknown_point_rejected(self):
        with pytest.raises(FaultConfigError, match="unknown fault point"):
            FaultPlan.parse("warp_core_breach")

    def test_bad_index_rejected(self):
        with pytest.raises(FaultConfigError):
            FaultPlan.parse("solver_crash@x")
        with pytest.raises(FaultConfigError):
            FaultPlan.parse("solver_crash@0")

    def test_empty_plan(self):
        plan = FaultPlan.parse("")
        assert not plan.specs

    def test_catalogue_is_stable(self):
        # docs/robustness.md and the CI matrix enumerate these names.
        assert FAULT_POINTS == (
            "solver_crash",
            "solver_timeout",
            "infeasible_model",
            "thermal_divergence",
            "annealing_nan",
            "worker_crash",
            "worker_hang",
            "service_worker_crash",
            "service_cache_corrupt",
            "service_slow_client",
        )


class TestActivation:
    def test_no_plan_by_default(self, monkeypatch):
        monkeypatch.delenv(ENV_VAR, raising=False)
        assert active_plan() is None
        assert not should_inject("solver_crash")

    def test_env_var_arms_plan(self, monkeypatch):
        monkeypatch.setenv(ENV_VAR, "solver_crash")
        plan = active_plan()
        assert plan is not None
        assert should_inject("solver_crash")

    def test_env_hit_counters_persist_across_calls(self, monkeypatch):
        monkeypatch.setenv(ENV_VAR, "solver_crash@2")
        assert not should_inject("solver_crash")  # hit 1
        assert should_inject("solver_crash")  # hit 2 — same cached plan

    def test_scope_overrides_env(self, monkeypatch):
        monkeypatch.setenv(ENV_VAR, "solver_crash")
        with fault_scope("annealing_nan") as plan:
            assert active_plan() is plan
            assert not should_inject("solver_crash")
        assert should_inject("solver_crash")

    def test_scope_restores_on_exit(self):
        with fault_scope("solver_crash"):
            pass
        assert not should_inject("solver_crash")


def _tiny_model() -> Model:
    model = Model("tiny")
    x = model.add_binary("x")
    model.add_constraint(x >= 0)
    model.set_objective(x)
    return model


@pytest.mark.parametrize(
    "backend_factory", [ScipyBackend, BranchBoundBackend],
    ids=["highs", "branch_bound"],
)
class TestSolverInjectionSites:
    def test_solver_crash_raises(self, backend_factory):
        with fault_scope("solver_crash"):
            with pytest.raises(SolverError, match="fault injection"):
                _tiny_model().solve(backend_factory())

    def test_solver_timeout_returns_error_solution(self, backend_factory):
        with fault_scope("solver_timeout"):
            solution = _tiny_model().solve(backend_factory())
        assert solution.status is SolveStatus.ERROR
        assert not solution.status.has_solution

    def test_infeasible_model_returns_infeasible(self, backend_factory):
        with fault_scope("infeasible_model"):
            solution = _tiny_model().solve(backend_factory())
        assert solution.status is SolveStatus.INFEASIBLE

    def test_unarmed_solve_is_clean(self, backend_factory):
        solution = _tiny_model().solve(backend_factory())
        assert solution.status is SolveStatus.OPTIMAL


class TestThermalInjection:
    def test_thermal_divergence_raises_thermal_error(self, fabric4):
        import numpy as np

        from repro.errors import ThermalError
        from repro.thermal.hotspot import ThermalSimulator

        simulator = ThermalSimulator(fabric4)
        duty = np.full((2, fabric4.num_pes), 0.5)
        with fault_scope("thermal_divergence"):
            with pytest.raises(ThermalError, match="diverged"):
                simulator.simulate(duty)
        # Unarmed, the same input is fine.
        report = simulator.simulate(duty)
        assert np.isfinite(report.accumulated_k).all()


class TestAnnealingInjection:
    def test_nan_cost_aborts_gracefully(self, synth_design, fabric4):
        from repro.place.annealing import AnnealingConfig, anneal_placement
        from repro.place.baseline import place_baseline

        floorplan = place_baseline(synth_design, fabric4)
        with fault_scope("annealing_nan"):
            result = anneal_placement(
                synth_design, floorplan, AnnealingConfig(moves_per_op=4)
            )
        result.validate()  # abort left a structurally valid floorplan
