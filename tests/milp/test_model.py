"""Model construction, compilation and transformation tests."""

from __future__ import annotations

import math

import numpy as np
import pytest

from repro.errors import ModelError
from repro.milp import Model, Sense, VarType, linear_sum


@pytest.fixture
def model():
    return Model("t")


class TestVariables:
    def test_indices_are_dense(self, model):
        names = [model.add_var(f"v{i}").index for i in range(5)]
        assert names == list(range(5))

    def test_binary_helper(self, model):
        b = model.add_binary("b")
        assert b.vtype is VarType.BINARY
        assert (b.lb, b.ub) == (0.0, 1.0)

    def test_counts(self, model):
        model.add_binary("b")
        model.add_continuous("c")
        assert model.num_variables == 2
        assert model.num_binary == 1

    def test_foreign_variable_rejected_in_constraint(self, model):
        other = Model("other")
        x = other.add_binary("x")
        with pytest.raises(ModelError):
            model.add_constraint(x <= 1)


class TestConstraints:
    def test_trivially_satisfied_not_stored(self, model):
        from repro.milp import LinExpr

        model.add_constraint(LinExpr.constant_expr(1.0) <= 2.0)
        assert model.num_constraints == 0

    def test_trivially_infeasible_raises(self, model):
        from repro.milp import LinExpr

        with pytest.raises(ModelError):
            model.add_constraint(LinExpr.constant_expr(3.0) <= 2.0)

    def test_non_constraint_rejected(self, model):
        with pytest.raises(ModelError):
            model.add_constraint(True)  # type: ignore[arg-type]

    def test_named_constraint(self, model):
        x = model.add_binary("x")
        constraint = model.add_constraint(x <= 1, name="cap")
        assert constraint.name == "cap"


class TestMatrixForm:
    def test_senses_and_rhs(self, model):
        x = model.add_continuous("x", 0, 10)
        y = model.add_continuous("y", 0, 10)
        model.add_constraint(x + y <= 5)
        model.add_constraint(x - y >= 1)
        model.add_constraint(linear_sum([x, y]) == 4)
        form = model.to_matrix_form()
        assert form.senses == [Sense.LE, Sense.GE, Sense.EQ]
        np.testing.assert_allclose(form.rhs, [5, 1, 4])
        assert form.a_matrix.shape == (3, 2)

    def test_integrality_markers(self, model):
        model.add_binary("b")
        model.add_continuous("c")
        model.add_var("i", 0, 5, VarType.INTEGER)
        form = model.to_matrix_form()
        np.testing.assert_array_equal(form.integrality, [1, 0, 1])

    def test_objective_vector_and_maximize(self, model):
        x = model.add_continuous("x", 0, 1)
        model.set_objective(3 * x, minimize=False)
        form = model.to_matrix_form()
        # Maximisation compiles to negated minimisation.
        assert form.objective[0] == pytest.approx(-3.0)


class TestTransformations:
    def test_fix_variable(self, model):
        x = model.add_binary("x")
        model.fix_variable(x, 1.0)
        assert (x.lb, x.ub) == (1.0, 1.0)
        assert model.fixed_variables == {x: 1.0}

    def test_fix_outside_bounds_rejected(self, model):
        x = model.add_binary("x")
        with pytest.raises(ModelError):
            model.fix_variable(x, 2.0)

    def test_fix_fractional_discrete_rejected(self, model):
        x = model.add_binary("x")
        with pytest.raises(ModelError):
            model.fix_variable(x, 0.5)

    def test_relaxed_and_restore(self, model):
        b = model.add_binary("b")
        relaxed = model.relaxed()
        assert b.vtype is VarType.CONTINUOUS
        relaxed.restore_types()
        assert b.vtype is VarType.BINARY

    def test_relaxed_shares_variables(self, model):
        b = model.add_binary("b")
        relaxed = model.relaxed()
        assert relaxed.variables[0] is b
        relaxed.restore_types()


class TestSolveIntegration:
    def test_default_backend_solves(self, model):
        x = model.add_continuous("x", 0, 10)
        model.add_constraint(x >= 3)
        model.set_objective(x)
        solution = model.solve()
        assert solution.objective == pytest.approx(3.0)

    def test_maximize_objective_sign(self, model):
        x = model.add_continuous("x", 0, 10)
        model.set_objective(x, minimize=False)
        solution = model.solve()
        assert solution.objective == pytest.approx(10.0)

    def test_empty_model_is_optimal(self, model):
        solution = model.solve()
        assert solution.status.has_solution
        assert not math.isnan(solution.objective)
