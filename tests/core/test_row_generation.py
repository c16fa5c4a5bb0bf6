"""Lazy violated-path rows and the unfixed residual-ILP retry.

Algorithm 1 solves the paper's feasibility model (ObjFunc: Null).  A
floorplan that breaks the CPD through an unmonitored path turns every
path over the original CPD into an Eq. (5) row of the live model, and
the loop re-solves at the same ``ST_target``.  On small models, a
residual ILP that the LP pre-mapping left infeasible is re-solved once
with the fixes reopened.
"""

from __future__ import annotations

import pytest

from repro.benchgen import load_benchmark
from repro.core import Algorithm1Config, RemapConfig, run_algorithm1
from repro.milp import ScipyBackend, SolveStatus
from repro.milp.status import Solution
from repro.obs import counter
from repro.obs.solverstats import SolveStats
from repro.place import place_baseline
from repro.timing import analyze


def table1(name):
    design, fabric = load_benchmark(name)
    return design, fabric, place_baseline(design, fabric)


def lazy_rows(model):
    return [c for c in model.constraints if (c.tags or {}).get("lazy")]


@pytest.fixture(scope="module")
def b13():
    return table1("B13")


@pytest.fixture(scope="module")
def b10():
    return table1("B10")


def config():
    return Algorithm1Config(mode="rotate", remap=RemapConfig(time_limit_s=30))


class TestRowGeneration:
    @pytest.fixture(scope="class")
    def traced(self, b13):
        """B13 run, with the model seen at each re-stamp and the models
        certified (the cold rebuild's among them)."""
        import repro.core.remap as remap_mod
        import repro.verify.certifier as certifier

        seen = {"restamped": [], "certified": []}
        real_solve = remap_mod.RemapProblem.solve
        real_certify = certifier.certify_remap
        calls = {"n": 0}

        def solve(problem, *args, **kwargs):
            if problem.name == "remap" and problem.model is not None:
                # A re-stamp of the relax loop's model (not Step 1's).
                model = problem.model
                seen["restamped"].append((model, len(lazy_rows(model))))
            return real_solve(problem, *args, **kwargs)

        def certify(*args, **kwargs):
            calls["n"] += 1
            seen["certified"].append(kwargs.get("model"))
            if calls["n"] == 1:
                # Fail the first certification: forces the cold rebuild.
                from repro.verify.certifier import Certificate, Violation

                cert = Certificate()
                cert.violations.append(Violation(
                    kind="row_infeasible", subject="row[0]",
                    detail="injected certification failure",
                ))
                return cert
            return real_certify(*args, **kwargs)

        patch = pytest.MonkeyPatch()
        patch.setattr(remap_mod.RemapProblem, "solve", solve)
        patch.setattr(certifier, "certify_remap", certify)
        rows_before = counter("algorithm1.lazy_path_rows").value
        try:
            design, fabric, original = b13
            result = run_algorithm1(design, fabric, original, config())
        finally:
            patch.undo()
        rows_counted = counter("algorithm1.lazy_path_rows").value - rows_before
        return result, seen, rows_counted

    def test_violation_then_accepted_at_same_target(self, traced):
        result, _, _ = traced
        log = result.stats["iterations"]
        assert [e["result"] for e in log] == ["cpd_violation", "accepted"]
        assert log[0]["rows_added"] > 0
        assert log[1]["st_target_ns"] == log[0]["st_target_ns"]
        assert result.alg1.relaxations == 0
        assert result.alg1.rows_added == [log[0]["rows_added"], 0]

    def test_rows_counted_and_in_stats(self, traced):
        result, _, rows_counted = traced
        added = result.stats["iterations"][0]["rows_added"]
        assert rows_counted == added
        assert result.alg1.to_dict()["lazy_path_rows"] == added

    def test_rows_survive_restamp(self, traced):
        result, seen, _ = traced
        added = result.stats["iterations"][0]["rows_added"]
        (model, lazy_after_restamp), = seen["restamped"]
        assert lazy_after_restamp == added
        for row in lazy_rows(model):
            assert row.tags["family"] == "path"
            assert row.tags["iteration"] == 1
            assert row.name.startswith("lazy_path[1.")

    def test_rows_present_in_cold_rebuild(self, traced):
        result, seen, _ = traced
        assert result.alg1.cert_cold_rebuilds == 1
        assert result.certified is True
        cached, cold = seen["certified"]
        assert cold is not cached and cold.name == "remap_cold"
        assert len(lazy_rows(cold)) == len(lazy_rows(cached)) > 0

    def test_accepted_floorplan_keeps_cpd(self, traced, b13):
        result, _, _ = traced
        design, _, _ = b13
        cpd = analyze(design, result.floorplan).cpd_ns
        assert cpd <= result.original_cpd_ns + 1e-6

    def test_explain_event_carries_rows(self, traced):
        result, _, _ = traced
        (cause,) = [
            e for e in result.stats["explanations"]
            if e["cause"] == "cpd_violation"
        ]
        assert cause["rows_added"] == result.stats["iterations"][0]["rows_added"]


class _RetryLimitBackend(ScipyBackend):
    """HiGHS, except that the unfixed retry (a binary model with nothing
    fixed) stops at its time limit without an incumbent."""

    def solve(self, model, **options):
        if model.num_binary and not model.fixed_variables:
            return Solution(
                status=SolveStatus.ERROR,
                message="limit reached without incumbent",
                stats=SolveStats(backend="highs", limit_reason="time_limit"),
            )
        return super().solve(model, **options)


class TestUnfixedRetry:
    def test_small_model_accepted_at_step1_target(self, b10):
        design, fabric, original = b10
        result = run_algorithm1(design, fabric, original, config())
        (entry,) = result.stats["iterations"]
        assert entry["result"] == "accepted"
        assert entry["ilp_status"] == "infeasible"
        assert entry["retry_status"] == "optimal"
        assert entry["st_target_ns"] == result.step1.st_target_ns
        assert result.degradation == "none"

    def test_limit_cut_retry_keeps_infeasible(self, b10):
        design, fabric, original = b10
        result = run_algorithm1(
            design, fabric, original, config(),
            backend=_RetryLimitBackend(time_limit=30),
        )
        first = result.stats["iterations"][0]
        assert first["result"] == "infeasible"
        assert first["retry_status"] == "error"
        assert "degradation_reason" not in result.stats  # no SolverError
        assert result.degradation in ("none", "original")

    def test_model_above_greedy_threshold_skips_retry(self, b10, monkeypatch):
        import repro.core.remap as remap_mod

        # B10 counts as a large model whose greedy completion dead-ends:
        # the residual ILP runs, and no unfixed retry follows it.
        monkeypatch.setattr(remap_mod, "GREEDY_THRESHOLD", 10)
        monkeypatch.setattr(remap_mod, "_greedy_complete", lambda *a: None)
        design, fabric, original = b10
        result = run_algorithm1(design, fabric, original, config())
        first = result.stats["iterations"][0]
        assert first["result"] == "infeasible"
        assert first["greedy_failed"] is True
        assert first["ilp_status"] == "infeasible"
        assert "retry_status" not in first


@pytest.mark.parametrize(
    "entry, same_target",
    [
        ({"result": "cpd_violation", "rows_added": 3}, True),
        # Every violated path ran between fixed endpoints: no row.
        ({"result": "cpd_violation", "rows_added": 0}, False),
        # The greedy completion does not read path rows.
        ({"result": "cpd_violation", "rows_added": 3,
          "completion": "greedy"}, False),
        ({"result": "cpd_violation", "rows_added": 3,
          "completion": "greedy", "greedy_failed": True}, True),
        ({"result": "infeasible", "rows_added": 0}, False),
    ],
)
def test_which_verdicts_resolve_at_same_target(entry, same_target):
    from repro.core.algorithm1 import _resolve_at_same_target

    assert _resolve_at_same_target(entry) is same_target
