"""Independent certifier: row-level and domain-level rejection classes."""

from __future__ import annotations

import pytest

from repro.errors import CertificationError
from repro.milp.model import Model
from repro.milp.status import Solution, SolveStatus
from repro.verify import (
    KIND_BOUNDS,
    KIND_INTEGRALITY,
    KIND_MISSING_VALUE,
    KIND_ROW,
    certify_solution,
)


def _toy_model():
    """x + y <= 1 over binaries, named row, maximize x + y."""
    model = Model("toy")
    x = model.add_binary("x")
    y = model.add_binary("y")
    model.add_constraint(x + y <= 1, name="pick_one")
    model.set_objective(x + y, minimize=False)
    return model, x, y


def _solution(values):
    return Solution(
        status=SolveStatus.OPTIMAL, objective=sum(values.values()),
        values=values,
    )


class TestRowCertification:
    def test_feasible_point_certifies(self):
        model, x, y = _toy_model()
        cert = certify_solution(model, _solution({x: 1.0, y: 0.0}))
        assert cert.ok
        assert cert.checks

    def test_row_violation_named(self):
        model, x, y = _toy_model()
        cert = certify_solution(model, _solution({x: 1.0, y: 1.0}))
        assert not cert.ok
        assert KIND_ROW in cert.kinds()
        assert any(
            v.kind == KIND_ROW and "pick_one" in v.subject
            for v in cert.violations
        )

    def test_bounds_violation(self):
        model, x, y = _toy_model()
        cert = certify_solution(model, _solution({x: 2.0, y: 0.0}))
        assert KIND_BOUNDS in cert.kinds()

    def test_integrality_violation(self):
        model, x, y = _toy_model()
        cert = certify_solution(model, _solution({x: 0.5, y: 0.5}))
        assert KIND_INTEGRALITY in cert.kinds()

    def test_missing_value(self):
        model, x, y = _toy_model()
        cert = certify_solution(model, _solution({x: 1.0}))
        assert KIND_MISSING_VALUE in cert.kinds()

    def test_absent_value_reads_as_zero_in_row_audit(self):
        model = Model("sparse")
        x = model.add_continuous("x", lb=0.0, ub=4.0)
        y = model.add_continuous("y", lb=0.0, ub=4.0)
        model.add_constraint(x + y >= 1, name="need_one")
        model.set_objective(x, minimize=True)
        # y has no value: the row sees 2 + 0 >= 1 and holds...
        cert = certify_solution(model, _solution({x: 2.0}))
        assert cert.kinds() == {KIND_MISSING_VALUE}
        # ...and 0.5 + 0 >= 1 fails by exactly 0.5.
        cert = certify_solution(model, _solution({x: 0.5}))
        assert cert.kinds() == {KIND_MISSING_VALUE, KIND_ROW}
        (row,) = [v for v in cert.violations if v.kind == KIND_ROW]
        assert row.subject == "need_one"
        assert row.magnitude == 0.5

    def test_restamp_flips_verdict(self):
        model = Model("stamped")
        x = model.add_continuous("x", lb=0.0, ub=10.0)
        model.declare_parameter("cap", 5.0)
        model.add_constraint(x <= 5.0, name="cap_row", parameter="cap")
        model.set_objective(x, minimize=False)
        solution = _solution({x: 4.0})
        assert certify_solution(model, solution).ok
        model.set_parameter("cap", 3.0)  # 4.0 now violates the row
        cert = certify_solution(model, solution)
        assert cert.kinds() == {KIND_ROW}
        assert cert.violations[0].subject == "cap_row"
        assert cert.violations[0].magnitude == pytest.approx(1.0)

    def test_raise_if_failed_carries_violations(self):
        model, x, y = _toy_model()
        cert = certify_solution(model, _solution({x: 1.0, y: 1.0}))
        with pytest.raises(CertificationError) as excinfo:
            cert.raise_if_failed("toy acceptance")
        assert excinfo.value.violations
        assert "toy acceptance" in str(excinfo.value)

    def test_row_metadata_matches_constraints(self):
        model, _x, _y = _toy_model()
        (meta,) = model.row_metadata()
        assert meta.name == "pick_one"
        assert meta.sense == "<="


class TestSolverOutputCertifies:
    def test_both_backends_certify_on_toy_model(self):
        from repro.verify import differential_solve, make_backend

        pytest.importorskip("scipy")
        model, _x, _y = _toy_model()
        result = differential_solve(
            model,
            {
                "highs": make_backend("highs", 10.0),
                "branch-bound": make_backend("branch-bound", 10.0),
            },
        )
        assert result["ok"]
        assert result["agree"]
        assert all(c["ok"] for c in result["certificates"].values())

    def test_unknown_backend_rejected(self):
        from repro.verify import make_backend

        with pytest.raises(CertificationError):
            make_backend("gurobi")
