"""Re-mapping MILP constraint-builder tests."""

from __future__ import annotations

import pytest

from repro.arch import Fabric, OpKind, UnitKind
from repro.core import FrozenPlan
from repro.core.constraints import (
    add_assignment_variables,
    add_exclusivity_constraints,
    add_path_constraints,
    add_stress_constraints,
    add_wirelength_objective,
    build_coordinates,
    collect_endpoints,
    design_wire_endpoints,
)
from repro.errors import ModelError
from repro.hls import MappedDesign, OpInfo
from repro.milp import Model, ScipyBackend
from repro.timing import Endpoint, TimingPath
from repro.timing.kpaths import MonitoredPath


def simple_design(num_ops=3, contexts=None):
    design = MappedDesign(name="t", num_contexts=2)
    for op in range(num_ops):
        ctx = (contexts or {}).get(op, 0)
        design.ops[op] = OpInfo(op, OpKind.ADD, 32, ctx, UnitKind.ALU, 1.0, 1.0)
    return design


@pytest.fixture
def fabric():
    return Fabric(2, 2, unit_wire_delay_ns=1.0)


class TestAssignment:
    def test_one_hot_groups(self, fabric):
        design = simple_design(2)
        model = Model()
        variables = add_assignment_variables(
            model, {0: [0, 1], 1: [2, 3]}, design
        )
        assert model.num_binary == 4
        assert model.num_constraints == 2
        assert len(variables.groups) == 3  # offsets of two groups

    def test_empty_candidates_rejected(self, fabric):
        design = simple_design(1)
        model = Model()
        with pytest.raises(ModelError):
            add_assignment_variables(model, {0: []}, design)


class TestExclusivity:
    def test_slot_constraints_for_shared_candidates(self, fabric):
        design = simple_design(2)  # both ops in context 0
        model = Model()
        variables = add_assignment_variables(
            model, {0: [0, 1], 1: [0, 1]}, design
        )
        before = model.num_constraints
        add_exclusivity_constraints(variables, design, fabric.num_pes)
        assert model.num_constraints == before + 2  # PE0, PE1 shared

    def test_different_contexts_do_not_conflict(self, fabric):
        design = simple_design(2, contexts={0: 0, 1: 1})
        model = Model()
        variables = add_assignment_variables(
            model, {0: [0], 1: [0]}, design
        )
        before = model.num_constraints
        add_exclusivity_constraints(variables, design, fabric.num_pes)
        assert model.num_constraints == before  # singleton slots skipped

    def test_solver_enforces_exclusivity(self, fabric):
        design = simple_design(2)
        model = Model()
        variables = add_assignment_variables(
            model, {0: [0], 1: [0]}, design  # both want only PE 0
        )
        add_exclusivity_constraints(variables, design, fabric.num_pes)
        solution = model.solve(ScipyBackend())
        assert not solution.status.has_solution


class TestStress:
    def test_budget_enforced(self, fabric):
        design = simple_design(3)  # three 1.0 ns ops, context 0
        model = Model()
        variables = add_assignment_variables(
            model, {op: [0, 1, 2, 3] for op in range(3)}, design
        )
        add_exclusivity_constraints(variables, design, fabric.num_pes)
        add_stress_constraints(variables, design, 4, 1.0, {})
        solution = model.solve(ScipyBackend())
        assert solution.status.has_solution  # one op per PE fits 1.0 budget

        model2 = Model()
        variables2 = add_assignment_variables(
            model2, {op: [0, 1] for op in range(3)}, design
        )
        add_exclusivity_constraints(variables2, design, fabric.num_pes)
        add_stress_constraints(variables2, design, 4, 1.0, {})
        # Three ops on two PEs in one context: exclusivity alone kills it.
        assert not model2.solve(ScipyBackend()).status.has_solution

    def test_frozen_contribution_counts(self, fabric):
        design = simple_design(1)
        model = Model()
        variables = add_assignment_variables(model, {0: [0]}, design)
        add_stress_constraints(variables, design, 4, 1.5, {0: 1.0})
        # movable 1.0 + frozen 1.0 > 1.5 on PE 0 -> infeasible.
        assert not model.solve(ScipyBackend()).status.has_solution

    def test_frozen_overflow_detected_immediately(self, fabric):
        design = simple_design(1)
        model = Model()
        variables = add_assignment_variables(model, {0: [1]}, design)
        with pytest.raises(ModelError):
            add_stress_constraints(variables, design, 4, 0.5, {0: 1.0})


def monitored(chain, context=0):
    return MonitoredPath(
        path=TimingPath(context=context, chain=chain), delay_ns=0.0
    )


class TestPathConstraints:
    def build(self, fabric, candidates, frozen_positions, paths, cpd):
        design = simple_design(3)
        model = Model()
        variables = add_assignment_variables(model, candidates, design)
        endpoints = collect_endpoints(paths)
        build_coordinates(variables, design, fabric, frozen_positions, endpoints)
        added, violations = add_path_constraints(
            variables, design, fabric, paths, cpd
        )
        return design, model, variables, added, violations

    def test_constraint_limits_distance(self, fabric):
        # op0 frozen at PE0 (0,0); op1 choosable at PE1 (0,1) or PE3 (1,1).
        paths = [monitored((0, 1))]
        design, model, variables, added, violations = self.build(
            fabric, {1: [1, 3], 2: [2]}, {0: 0}, paths, cpd=3.0
        )
        # slack = (3.0 - 2.0)/1.0 = 1.0 -> only PE1 (distance 1) feasible...
        # PE3 is distance 2 -> must be excluded by the constraint.
        solution = model.solve(ScipyBackend())
        assert solution.status.has_solution
        chosen = [pe for j, pe in variables.candidates_of(1) if solution.x[j] > 0.5]
        assert chosen == [1]
        assert added == 1
        assert violations == 0

    def test_all_frozen_violation_skipped(self, fabric):
        # Both ops frozen 2 apart but slack only 1: recorded, not raised.
        paths = [monitored((0, 1))]
        design, model, variables, added, violations = self.build(
            fabric, {2: [2]}, {0: 0, 1: 3}, paths, cpd=3.0
        )
        assert added == 0
        assert violations == 1

    def test_pe_delay_above_cpd_rejected(self, fabric):
        paths = [monitored((0, 1))]
        with pytest.raises(ModelError):
            self.build(fabric, {0: [0], 1: [1], 2: [2]}, {}, paths, cpd=1.5)

    def test_distance_vars_shared_between_paths(self, fabric):
        paths = [monitored((0, 1)), monitored((0, 1))]
        design, model, variables, added, violations = self.build(
            fabric, {0: [0, 1], 1: [2, 3], 2: [2]}, {}, paths, cpd=5.0
        )
        assert len(variables.distance_vars) == 1


class TestWirelengthObjective:
    def test_objective_counts_all_wires(self, fabric):
        design = simple_design(2)
        design.compute_edges = [(0, 1)]
        design.input_edges = [(0, 0)]
        design.output_edges = [(1, 0)]
        assert len(design_wire_endpoints(design)) == 3
        model = Model()
        variables = add_assignment_variables(
            model, {0: [0, 1], 1: [2, 3]}, design
        )
        add_wirelength_objective(variables, design, fabric, {})
        assert model.has_objective()

    def test_solver_picks_shortest_layout(self, fabric):
        design = simple_design(2)
        design.compute_edges = [(0, 1)]
        model = Model()
        variables = add_assignment_variables(
            model, {0: [0], 1: [1, 3]}, design
        )
        add_exclusivity_constraints(variables, design, fabric.num_pes)
        add_wirelength_objective(variables, design, fabric, {})
        solution = model.solve(ScipyBackend())
        chosen = [pe for j, pe in variables.candidates_of(1) if solution.x[j] > 0.5]
        assert chosen == [1]  # adjacent beats diagonal
        assert solution.objective == pytest.approx(1.0)


class TestCoordinates:
    def test_unknown_endpoint_rejected(self, fabric):
        design = simple_design(1)
        model = Model()
        variables = add_assignment_variables(model, {0: [0]}, design)
        with pytest.raises(ModelError):
            build_coordinates(
                variables, design, fabric, {}, {Endpoint.op(42)}
            )

    def test_pad_coordinates_constant(self, fabric):
        design = simple_design(1)
        model = Model()
        variables = add_assignment_variables(model, {0: [0]}, design)
        build_coordinates(
            variables, design, fabric, {}, {Endpoint.in_pad(0)}
        )
        key = ("in", 0)
        assert variables.coords.x_of[key].is_constant()
        assert variables.coords.x_of[key].constant == -1.0
