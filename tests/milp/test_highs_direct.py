"""The HiGHS backend against scipy's front ends, and the array blocks of
Eq. (3) against a term-by-term build.

The backend hands HiGHS two layouts of one lowering: the LP relaxation in
``linprog``'s row order, the residual ILP in the model's own order.  Row
order steers HiGHS among degenerate optima, so each must match the front
end it replaces bit for bit; scipy's ``linprog`` and ``milp`` are the
references here and nowhere in the solve path.
"""

from __future__ import annotations

import numpy as np
import pytest
from scipy import sparse
from scipy.optimize import Bounds, LinearConstraint, linprog, milp

from repro.benchgen import load_benchmark
from repro.core import Algorithm1Config, RemapConfig
from repro.core.algorithm1 import prepare_phase2
from repro.core.constraints import (
    add_assignment_variables,
    add_exclusivity_constraints,
    add_stress_constraints,
)
from repro.core.remap import (
    RemapProblem,
    default_candidates,
    frozen_stress_by_pe,
    resolved_window,
)
from repro.core.rotation import FrozenPlan
from repro.milp import Model, ScipyBackend, linear_sum, threshold_fix
from repro.milp.scipy_backend import HIGHS_METHODS
from repro.obs import CollectorSink, attached
from repro.place import place_baseline
from repro.service import FloorplanRequest, run_request


def test_binding_has_every_method():
    """A scipy release that moves or renames the private binding fails
    here, not mid-solve."""
    from scipy.optimize._highspy import _core

    missing = [name for name in HIGHS_METHODS if not hasattr(_core._Highs, name)]
    assert missing == []
    for name in ("HighsLp", "MatrixFormat", "HighsModelStatus", "HighsStatus"):
        assert hasattr(_core, name)


def _inputs(name):
    design, fabric = load_benchmark(name)
    original = place_baseline(design, fabric)
    config = Algorithm1Config(mode="rotate", remap=RemapConfig(time_limit_s=None))
    return design, fabric, original, config


def _step1_problem(design, fabric, original):
    frozen = FrozenPlan(positions={}, orientation_of_context={})
    return RemapProblem(
        design, fabric, frozen,
        default_candidates(design, original, frozen, fabric, resolved_window(fabric)),
        monitored=(), cpd_ns=float("inf"), name="step1",
    )


def _built(name, phase):
    design, fabric, original, config = _inputs(name)
    if phase == "step1":
        problem = _step1_problem(design, fabric, original)
    else:
        problem = prepare_phase2(design, fabric, original, config).problem()
    stress = max(frozen_stress_by_pe(design, problem.frozen).values(), default=0.0)
    total = sum(op.stress_ns for op in design.ops.values())
    problem.build(max(stress, 1.2 * total / fabric.num_pes))
    return problem


def _linprog_x(form):
    equal = form.senses == "=="
    scale = np.where(form.senses == ">=", -1.0, 1.0)
    a_matrix = sparse.diags(scale) @ form.a_matrix
    result = linprog(
        form.objective, bounds=np.column_stack([form.lower, form.upper]),
        method="highs-ipm",
        A_ub=a_matrix[~equal], b_ub=(form.rhs * scale)[~equal],
        A_eq=a_matrix[equal], b_eq=form.rhs[equal],
    )
    return result.x


def _milp_x(form):
    lower = np.where(form.senses == "<=", -np.inf, form.rhs)
    upper = np.where(form.senses == ">=", np.inf, form.rhs)
    result = milp(
        form.objective, integrality=form.integrality,
        bounds=Bounds(form.lower, form.upper),
        constraints=[LinearConstraint(form.a_matrix, lower, upper)],
    )
    return result.x


def _assert_same_x(ours, reference):
    if reference is None:
        assert ours is None
    else:
        np.testing.assert_array_equal(ours, reference)


@pytest.mark.parametrize("phase", ["step1", "phase2"])
@pytest.mark.parametrize("name", ["B1", "B10"])
def test_layouts_match_scipy_front_ends(name, phase):
    problem = _built(name, phase)
    model, backend = problem.model, ScipyBackend()
    lp = model.solve(backend, relax=True)
    for premapped in (False, True):
        if premapped:
            report = threshold_fix(model, problem.variables.groups, lp)
            assert report.groups_fixed
            _assert_same_x(
                model.solve(backend, relax=True).x,
                _linprog_x(model.to_matrix_form(relax=True)),
            )
        else:
            _assert_same_x(lp.x, _linprog_x(model.to_matrix_form(relax=True)))
        _assert_same_x(model.solve(backend).x, _milp_x(model.to_matrix_form()))


def _reference_blocks(design, fabric, candidates, committed, st_target):
    """Eq. (3)'s three blocks built term by term from ``LinExpr`` rows,
    as the builders did before they emitted arrays."""
    model = Model("reference")
    assign, per_slot, per_pe = {}, {}, {}
    for op_id in sorted(candidates):
        context = design.ops[op_id].context
        members = [
            (model.add_binary(f"x[{op_id},c{context},pe{pe}]"), pe)
            for pe in candidates[op_id]
        ]
        assign[op_id] = members
        model.add_constraint(
            linear_sum(var for var, _ in members) == 1, name=f"assign[{op_id}]",
            tags={"family": "assignment", "op": op_id, "context": context},
        )
    for op_id, members in assign.items():
        op = design.ops[op_id]
        for var, pe in members:
            per_slot.setdefault((op.context, pe), []).append(var)
            per_pe.setdefault(pe, []).append(op.stress_ns * var)
    for (context, pe), slot_vars in sorted(per_slot.items()):
        if len(slot_vars) >= 2:
            model.add_constraint(
                linear_sum(slot_vars) <= 1, name=f"slot[c{context},pe{pe}]",
                tags={"family": "exclusivity", "context": context, "pe": pe},
            )
    model.declare_parameter("st_target", st_target)
    for pe in sorted(per_pe):
        frozen = committed.get(pe, 0.0)
        model.add_constraint(
            linear_sum(per_pe[pe]) <= st_target - frozen,
            name=f"stress[pe{pe}]", parameter="st_target",
            tags={
                "family": "stress", "pe": pe, "frozen_ns": round(frozen, 9),
                "row": int(fabric.row_of[pe]), "col": int(fabric.col_of[pe]),
            },
        )
    return model


@pytest.mark.parametrize("name", ["B1", "B5"])
def test_array_blocks_equal_term_by_term_build(name):
    design, fabric, original, config = _inputs(name)
    inputs = prepare_phase2(design, fabric, original, config)
    committed = frozen_stress_by_pe(design, inputs.frozen)
    st_target = inputs.original_stress.max_accumulated_ns
    model = Model("blocks")
    variables = add_assignment_variables(model, inputs.candidates, design)
    add_exclusivity_constraints(variables, design, fabric.num_pes)
    add_stress_constraints(
        variables, design, fabric.num_pes, st_target, committed, fabric=fabric
    )
    reference = _reference_blocks(
        design, fabric, inputs.candidates, committed, st_target
    )
    for target in (0.9 * st_target, 1.3 * st_target):
        model.set_parameter("st_target", target)
        reference.set_parameter("st_target", target)
    ours, theirs = model.to_matrix_form(), reference.to_matrix_form()
    for attr in ("data", "indices", "indptr"):
        np.testing.assert_array_equal(
            getattr(ours.a_matrix, attr), getattr(theirs.a_matrix, attr)
        )
    np.testing.assert_array_equal(ours.senses, theirs.senses)
    np.testing.assert_array_equal(ours.rhs, theirs.rhs)
    ours_rows, theirs_rows = model.row_metadata(), reference.row_metadata()
    assert [(r.name, dict(r.tags)) for r in ours_rows] == [
        (r.name, dict(r.tags)) for r in theirs_rows
    ]
    for row in ours_rows:
        assert all(type(v) in (int, float, str) for v in row.tags.values())


def test_solver_spans_carry_highs_counters():
    sink = CollectorSink()
    with attached(sink):
        run_request(FloorplanRequest(kernel="fir8", fabric="4x4"))
    spans = [
        r for r in sink.records
        if r.get("name") == "solver" and r["attrs"].get("backend") == "highs"
    ]
    assert spans
    for record in spans:
        attrs = record["attrs"]
        assert 0.0 <= attrs["highs_run_s"] <= record["duration_s"]
        for key in ("simplex_iterations", "ipm_iterations", "crossover_iterations"):
            assert attrs[key] >= 0
        if attrs["kind"] == "lp":
            assert attrs["ipm_iterations"] > 0
