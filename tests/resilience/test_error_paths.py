"""Typed error paths: budget infeasibility, solver infeasibility, fallbacks."""

from __future__ import annotations

import dataclasses
import math

import pytest

import repro.core.flow as flow_module
import repro.core.remap as remap_module
from repro.arch.checks import check_design_fits
from repro.core.algorithm1 import Algorithm1Config, run_algorithm1
from repro.core.flow import AgingAwareFlow, FlowConfig
from repro.core.remap import (
    RemapConfig,
    build_remap_model,
    default_candidates,
    resolved_window,
)
from repro.core.rotation import FrozenPlan
from repro.errors import (
    BudgetInfeasibleError,
    InfeasibleError,
    MappingError,
)
from repro.milp.branch_bound import BranchBoundBackend
from repro.milp.model import Model
from repro.milp.scipy_backend import ScipyBackend
from repro.milp.status import SolveStatus


class TestBudgetInfeasible:
    def test_frozen_stress_above_target_raises(
        self, synth_design, fabric4, synth_floorplan
    ):
        # Freeze one op, then demand a stress budget below what that op
        # alone deposits: the model builder must refuse with a typed error
        # naming the PE instead of emitting an unsatisfiable constraint.
        op_id = next(iter(synth_design.ops))
        frozen = FrozenPlan(
            positions={op_id: synth_floorplan.pe_of[op_id]},
            orientation_of_context={},
        )
        candidates = default_candidates(
            synth_design,
            synth_floorplan,
            frozen,
            fabric4,
            resolved_window(fabric4),
        )
        with pytest.raises(BudgetInfeasibleError, match="exceeds ST_target"):
            build_remap_model(
                synth_design,
                fabric4,
                frozen,
                candidates,
                monitored_paths=(),
                cpd_ns=math.inf,
                st_target_ns=synth_design.ops[op_id].stress_ns / 2.0,
            )

    def test_algorithm1_relaxes_through_budget_infeasibility(
        self, synth_design, fabric4, synth_floorplan, monkeypatch
    ):
        # If every iteration's frozen budget is infeasible, the relax loop
        # must walk ST_target up, exhaust, and fall back to the original
        # floorplan — never crash.  Step 1 (no frozen ops) still builds.
        real_build = remap_module.build_remap_model

        def always_infeasible(*args, **kwargs):
            if kwargs.get("name") == "step1":
                return real_build(*args, **kwargs)
            raise BudgetInfeasibleError("frozen stress exceeds ST_target")

        monkeypatch.setattr(
            remap_module, "build_remap_model", always_infeasible
        )
        result = run_algorithm1(
            synth_design,
            fabric4,
            synth_floorplan,
            Algorithm1Config(max_iterations=3),
        )
        assert result.fell_back
        assert result.degradation == "original"
        assert result.floorplan.pe_of == synth_floorplan.pe_of
        assert any(
            entry.get("result") == "frozen_budget_infeasible"
            for entry in result.stats["iterations"]
        )


@pytest.mark.parametrize(
    "backend_factory", [ScipyBackend, BranchBoundBackend],
    ids=["highs", "branch_bound"],
)
class TestInfeasibleFromBackends:
    def _contradictory_model(self) -> Model:
        model = Model("contradiction")
        x = model.add_binary("x")
        model.add_constraint(x >= 1)
        model.add_constraint(x <= 0)
        model.set_objective(x)
        return model

    def test_status_is_infeasible(self, backend_factory):
        solution = self._contradictory_model().solve(backend_factory())
        assert solution.status is SolveStatus.INFEASIBLE
        assert not solution.status.has_solution

    def test_require_raises_typed_error(self, backend_factory):
        solution = self._contradictory_model().solve(backend_factory())
        with pytest.raises(InfeasibleError, match="proven infeasible"):
            solution.require()


class TestFlowMttfFallback:
    def test_lost_lifetime_keeps_original_floorplan(
        self, synth_design, fabric4, monkeypatch
    ):
        # Force the Phase-2 verdict "re-map lost lifetime": the flow must
        # keep the original floorplan and report the fallback.
        monkeypatch.setattr(
            flow_module, "mttf_increase", lambda original, remapped: 0.5
        )
        flow = AgingAwareFlow(
            FlowConfig(
                algorithm1=Algorithm1Config(
                    max_iterations=3, remap=RemapConfig(time_limit_s=10.0)
                )
            )
        )
        result = flow.run(synth_design, fabric4)
        assert result.remap.fell_back
        assert result.remap.degradation == "original"
        assert result.remap.floorplan.pe_of == result.original.floorplan.pe_of
        assert result.summary()["fell_back"] is True
        assert result.summary()["degradation"] == "original"


class TestDesignFitsBoundary:
    def test_valid_pair_passes(self, synth_design, fabric4):
        check_design_fits(synth_design, fabric4)  # must not raise

    def test_zero_contexts_rejected(self, synth_design, fabric4):
        broken = dataclasses.replace(synth_design, num_contexts=0)
        with pytest.raises(MappingError, match="0 contexts"):
            check_design_fits(broken, fabric4)

    def test_out_of_range_context_rejected(self, synth_design, fabric4):
        op_id = next(iter(synth_design.ops))
        ops = dict(synth_design.ops)
        ops[op_id] = dataclasses.replace(
            ops[op_id], context=synth_design.num_contexts
        )
        broken = dataclasses.replace(synth_design, ops=ops)
        with pytest.raises(MappingError, match=f"op {op_id}"):
            check_design_fits(broken, fabric4)

    def test_overfull_context_rejected(self, synth_design, fabric4):
        ops = {
            op_id: dataclasses.replace(info, context=0)
            for op_id, info in synth_design.ops.items()
        }
        assert len(ops) > fabric4.num_pes
        broken = dataclasses.replace(synth_design, ops=ops)
        with pytest.raises(MappingError, match="has only"):
            check_design_fits(broken, fabric4)

    def test_dangling_edge_rejected(self, synth_design, fabric4):
        op_id = next(iter(synth_design.ops))
        broken = dataclasses.replace(
            synth_design, compute_edges=[(op_id, -1)]
        )
        with pytest.raises(MappingError, match="unknown op -1"):
            check_design_fits(broken, fabric4)

    def test_flow_run_rejects_unplaceable_design(
        self, synth_design, fabric4
    ):
        # The boundary check fires before any expensive phase: an
        # unplaceable design raises immediately at AgingAwareFlow.run.
        ops = {
            op_id: dataclasses.replace(info, context=0)
            for op_id, info in synth_design.ops.items()
        }
        broken = dataclasses.replace(synth_design, ops=ops)
        flow = AgingAwareFlow(FlowConfig())
        with pytest.raises(MappingError, match="needs"):
            flow.run(broken, fabric4)
