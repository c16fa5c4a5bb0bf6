"""Solution/SolveStatus tests."""

from __future__ import annotations

import math

import numpy as np
import pytest

from repro.errors import ModelError
from repro.milp import Solution, SolveStatus, Variable


class TestSolveStatus:
    def test_has_solution(self):
        assert SolveStatus.OPTIMAL.has_solution
        assert SolveStatus.FEASIBLE.has_solution
        assert not SolveStatus.INFEASIBLE.has_solution
        assert not SolveStatus.UNBOUNDED.has_solution
        assert not SolveStatus.ERROR.has_solution


class TestSolution:
    @pytest.fixture
    def solved(self):
        x = Variable("x")
        x.index = 0
        return x, Solution(
            status=SolveStatus.OPTIMAL, objective=1.0, x=np.array([0.9999999])
        )

    def test_getitem(self, solved):
        x, solution = solved
        assert solution[x] == pytest.approx(1.0, abs=1e-5)

    def test_getitem_missing_variable(self, solved):
        _, solution = solved
        with pytest.raises(ModelError):
            solution[Variable("other")]

    def test_getitem_without_solution(self):
        infeasible = Solution(status=SolveStatus.INFEASIBLE)
        with pytest.raises(ModelError):
            infeasible[Variable("x")]
        assert math.isnan(infeasible.objective)

    def test_value_with_default(self, solved):
        x, solution = solved
        assert solution.value(Variable("ghost"), 0.0) == 0.0
        assert solution.value(x) == pytest.approx(1.0, abs=1e-5)
        with pytest.raises(ModelError):
            solution.value(Variable("ghost"))

    def test_rounded_snaps_near_integers(self, solved):
        x, solution = solved
        assert solution.rounded(x) == 1

    def test_rounded_rejects_fractional(self):
        x = Variable("x")
        x.index = 0
        solution = Solution(
            status=SolveStatus.OPTIMAL, objective=0.0, x=np.array([0.5])
        )
        with pytest.raises(ModelError):
            solution.rounded(x)
