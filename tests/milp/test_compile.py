"""Incremental compilation tests: the cached lowering and parameterized
RHS re-stamping.

The contract under test (docs/performance.md): re-stamping a parameter
on a compiled model must be observationally identical to rebuilding the
model from scratch at the new value — bit-identical matrix form — while
performing exactly one expression-tree lowering across all solves.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.errors import ModelError
from repro.milp import Model, Sense
from repro.obs import counter


def param_model(limit: float, budget: float = 6.0) -> tuple[Model, list]:
    """A small MILP with two rows bound to the ``limit`` parameter.

    One row uses the default coefficient, one a scaled coefficient, and
    one row is parameter-free — re-stamping must move exactly the first
    two RHS entries.
    """
    model = Model("param")
    x = model.add_continuous("x", 0, 10)
    y = model.add_continuous("y", 0, 10)
    b = model.add_binary("b")
    model.declare_parameter("limit", limit)
    model.add_constraint(x + y <= limit, parameter="limit")
    model.add_constraint(
        x - y >= -2.0 * limit, parameter="limit", parameter_coeff=-2.0
    )
    model.add_constraint(x + 2 * y + b <= budget)
    model.set_objective(-x - 2 * y - b)
    return model, [x, y, b]


def assert_forms_identical(a, b):
    """Bit-identical MatrixForm comparison (no tolerances)."""
    am, bm = a.a_matrix.tocsr(), b.a_matrix.tocsr()
    np.testing.assert_array_equal(am.data, bm.data)
    np.testing.assert_array_equal(am.indices, bm.indices)
    np.testing.assert_array_equal(am.indptr, bm.indptr)
    np.testing.assert_array_equal(a.senses, b.senses)
    np.testing.assert_array_equal(a.rhs, b.rhs)
    np.testing.assert_array_equal(a.lower, b.lower)
    np.testing.assert_array_equal(a.upper, b.upper)
    np.testing.assert_array_equal(a.integrality, b.integrality)
    np.testing.assert_array_equal(a.objective, b.objective)


class TestCompileCache:
    def test_lowering_happens_once(self):
        model, _ = param_model(5.0)
        lowerings = counter("milp.lowerings")
        hits = counter("milp.lowering_cache_hits")
        before = (lowerings.value, hits.value)
        model.to_matrix_form()
        model.to_matrix_form()
        model.to_matrix_form()
        assert lowerings.value == before[0] + 1
        assert hits.value == before[1] + 2

    def test_structure_change_invalidates(self):
        model, (x, _, _) = param_model(5.0)
        lowerings = counter("milp.lowerings")
        model.to_matrix_form()
        before = lowerings.value
        model.add_constraint(x >= 1)
        form = model.to_matrix_form()
        assert lowerings.value == before + 1
        assert form.a_matrix.shape[0] == 4

    def test_relaxation_shares_cache(self):
        model, _ = param_model(5.0)
        lowerings = counter("milp.lowerings")
        before = lowerings.value
        model.to_matrix_form()
        form = model.to_matrix_form(relax=True)
        # The relaxation switches integrality off but reuses the lowering.
        assert lowerings.value == before + 1
        np.testing.assert_array_equal(form.integrality, [0, 0, 0])

    def test_fix_and_unfix_without_recompile(self):
        model, (_, _, b) = param_model(5.0)
        lowerings = counter("milp.lowerings")
        model.to_matrix_form()
        before = lowerings.value
        model.fix_variable(b, 1.0)
        fixed = model.to_matrix_form()
        assert (fixed.lower[2], fixed.upper[2]) == (1.0, 1.0)
        model.unfix_all()
        reopened = model.to_matrix_form()
        assert (reopened.lower[2], reopened.upper[2]) == (0.0, 1.0)
        assert model.fixed_variables == {}
        assert lowerings.value == before


class TestRestampVsRebuild:
    @pytest.mark.parametrize("new_limit", [2.0, 7.5, 0.0])
    def test_restamp_matches_fresh_build(self, new_limit):
        model, _ = param_model(5.0)
        model.to_matrix_form()  # populate the cache at the old value
        model.set_parameter("limit", new_limit)
        fresh, _ = param_model(new_limit)
        assert_forms_identical(model.to_matrix_form(), fresh.to_matrix_form())

    def test_restamp_moves_only_bound_rows(self):
        model, _ = param_model(5.0, budget=6.0)
        base = model.to_matrix_form()
        model.set_parameter("limit", 9.0)
        form = model.to_matrix_form()
        assert list(form.senses) == [Sense.LE.value, Sense.GE.value, Sense.LE.value]
        np.testing.assert_array_equal(form.rhs, [9.0, -18.0, 6.0])
        np.testing.assert_array_equal(base.rhs, [5.0, -10.0, 6.0])

    def test_restamp_reuses_lowering(self):
        model, _ = param_model(5.0)
        lowerings = counter("milp.lowerings")
        restamps = counter("milp.rhs_restamps")
        model.to_matrix_form()
        before = (lowerings.value, restamps.value)
        model.set_parameter("limit", 3.0)
        model.to_matrix_form()
        assert lowerings.value == before[0]
        assert restamps.value == before[1] + 1

    def test_solve_tracks_parameter(self):
        model, _ = param_model(5.0)
        loose = model.solve()
        model.set_parameter("limit", 1.0)
        tight = model.solve()
        assert tight.objective > loose.objective  # minimisation: worse
        model.set_parameter("limit", 5.0)
        again = model.solve()
        assert again.objective == pytest.approx(loose.objective)

    def test_undeclared_parameter_rejected(self):
        model, _ = param_model(5.0)
        with pytest.raises(ModelError):
            model.set_parameter("nope", 1.0)
        with pytest.raises(ModelError):
            model.parameter("nope")

    def test_redeclare_updates_value(self):
        model, _ = param_model(5.0)
        model.declare_parameter("limit", 4.0)
        assert model.parameter("limit") == 4.0
        assert model.parameters == {"limit": 4.0}
