"""Tests for the LP-relaxation rounding strategies (paper Step 1)."""

from __future__ import annotations

import random

import numpy as np
import pytest

from repro.errors import ModelError
from repro.milp import (
    Model,
    ScipyBackend,
    Solution,
    SolveStatus,
    extract_assignment,
    linear_sum,
    randomized_round,
    threshold_fix,
)


def one_hot_model(num_groups=3, group_size=4):
    """A model of ``num_groups`` one-hot groups and their column offsets."""
    model = Model("onehot")
    for g in range(num_groups):
        group = [model.add_binary(f"x{g}_{k}") for k in range(group_size)]
        model.add_constraint(linear_sum(group) == 1)
    return model, np.arange(0, num_groups * group_size + 1, group_size)


def fake_lp_solution(groups, masses):
    x = np.concatenate([np.asarray(m, dtype=float) for m in masses])
    return Solution(status=SolveStatus.OPTIMAL, objective=0.0, x=x)


class TestThresholdFix:
    def test_fixes_above_threshold(self):
        model, groups = one_hot_model(2)
        lp = fake_lp_solution(
            groups, [[0.97, 0.01, 0.01, 0.01], [0.5, 0.5, 0.0, 0.0]]
        )
        report = threshold_fix(model, groups, lp)
        assert report.groups_fixed == 1
        assert report.variables_fixed_one == 1
        assert report.variables_fixed_zero == 3
        assert model.lower[0] == 1.0
        assert model.upper[1] == 0.0
        # Undecided group untouched.
        assert model.upper[4] == 1.0

    def test_paper_default_is_095(self):
        from repro.milp import DEFAULT_FIX_THRESHOLD

        assert DEFAULT_FIX_THRESHOLD == pytest.approx(0.95)

    def test_threshold_validation(self):
        model, groups = one_hot_model(1)
        lp = fake_lp_solution(groups, [[1, 0, 0, 0]])
        with pytest.raises(ModelError):
            threshold_fix(model, groups, lp, threshold=0.4)

    def test_fraction_fixed(self):
        model, groups = one_hot_model(4)
        masses = [[1, 0, 0, 0]] * 2 + [[0.5, 0.5, 0, 0]] * 2
        report = threshold_fix(model, groups, fake_lp_solution(groups, masses))
        assert report.fraction_fixed == pytest.approx(0.5)


class TestRandomizedRound:
    def test_samples_proportionally(self):
        model, groups = one_hot_model(1)
        lp = fake_lp_solution(groups, [[0.7, 0.3, 0.0, 0.0]])
        report = randomized_round(model, groups, lp, random.Random(1))
        assert report.groups_fixed == 1
        winners = np.flatnonzero(model.lower == 1.0)
        assert len(winners) == 1
        assert winners[0] in (0, 1)

    def test_skips_flat_groups(self):
        model, groups = one_hot_model(1)
        lp = fake_lp_solution(groups, [[0.25, 0.25, 0.25, 0.25]])
        report = randomized_round(model, groups, lp, random.Random(1))
        assert report.groups_fixed == 0

    def test_deterministic_under_seed(self):
        results = []
        for _ in range(2):
            model, groups = one_hot_model(3)
            lp = fake_lp_solution(
                groups,
                [[0.6, 0.4, 0, 0], [0.9, 0.1, 0, 0], [0.55, 0.45, 0, 0]],
            )
            randomized_round(model, groups, lp, random.Random(42))
            results.append(tuple(model.lower))
        assert results[0] == results[1]


class TestExtractAssignment:
    def test_decodes_one_hot(self):
        model, groups = one_hot_model(2)
        solution = fake_lp_solution(groups, [[0, 1, 0, 0], [0, 0, 0, 1]])
        np.testing.assert_array_equal(extract_assignment(groups, solution), [1, 7])

    def test_non_integral_rejected(self):
        model, groups = one_hot_model(1)
        solution = fake_lp_solution(groups, [[0.5, 0.5, 0, 0]])
        with pytest.raises(ModelError, match="'op0' decoded to 0 winners"):
            extract_assignment(groups, solution, keys=["op0"])


class TestEndToEndTwoStep:
    def test_lp_then_fix_then_ilp(self):
        """The paper's pipeline on a small assignment problem."""
        model, groups = one_hot_model(3, 3)
        # Stress-style budget: at most one winner per 'pe' column.
        for k in range(3):
            model.add_constraint(
                linear_sum(model.column(g * 3 + k) for g in range(3)) <= 1
            )
        lp = model.solve(ScipyBackend(), relax=True)
        assert lp.status.has_solution
        threshold_fix(model, groups, lp)
        final = model.solve(ScipyBackend())
        assert final.status.has_solution
        winners = extract_assignment(groups, final)
        assert sorted((winners - groups[:-1]).tolist()) == [0, 1, 2]
