"""Solve-explanation tests: domain tags, IIS extraction, attribution.

Covers the diagnostics contract end to end at the unit level:

* RowMeta domain tags round-trip through lowering, parameter restamps
  and warm re-solves bit-identically;
* deletion-filtering IIS extraction finds the minimal conflicting core,
  excludes redundant rows, reports fault-injected "infeasible" verdicts
  honestly, and survives zero-variable (all-frozen) models;
* binding/slack attribution names saturated PEs and tight families;
* the forced-infeasible stress probe is genuinely infeasible and its
  IIS reads in stress/assignment domain terms.
"""

from __future__ import annotations

import numpy as np
import pytest
from scipy.sparse import csr_matrix

from repro.explain import (
    IISMember,
    IISResult,
    attribute_solution,
    attribution_brief,
    find_iis,
    verify_iis,
)
from repro.explain.iis import _Prober
from repro.explain.probe import build_infeasible_stress_model
from repro.milp import Model, ScipyBackend, SolveStatus, linear_sum


# -- domain-tag round-trips ----------------------------------------------------


class TestDomainTags:
    def test_tags_surface_in_row_metadata(self):
        model = Model("t")
        x = model.add_binary("x")
        model.add_constraint(
            x <= 1, name="cap", tags={"family": "stress", "pe": 3}
        )
        (meta,) = model.row_metadata()
        assert meta.name == "cap"
        assert meta.tags == {"family": "stress", "pe": 3}

    def test_tags_survive_lowering(self):
        model = Model("t")
        x, y = model.add_binary("x"), model.add_binary("y")
        model.add_constraint(
            x + y <= 1, name="excl", tags={"family": "exclusivity", "pe": 0}
        )
        model.add_constraint(
            x + y >= 1, name="assign", tags={"family": "assignment", "op": 7}
        )
        form = model.to_matrix_form()
        metas = model.row_metadata()
        assert form.a_matrix.shape[0] == len(metas) == 2
        assert [m.tags["family"] for m in metas] == ["exclusivity", "assignment"]

    def test_tags_survive_parameter_restamp(self):
        model = Model("t")
        x = model.add_continuous("x", 0, 10)
        model.declare_parameter("st", 5.0)
        tags = {"family": "stress", "pe": 1, "row": 0, "col": 1}
        model.add_constraint(
            1.0 * x <= 5.0, name="budget", parameter="st", tags=tags
        )
        model.set_parameter("st", 7.0)
        (meta,) = model.row_metadata()
        assert meta.rhs == 7.0
        assert meta.tags == tags

    def test_restamp_matches_fresh_build_bit_identically(self):
        def build(value):
            model = Model("t")
            x = model.add_continuous("x", 0, 10)
            model.declare_parameter("st", value)
            model.add_constraint(
                1.0 * x <= value, name="budget", parameter="st",
                tags={"family": "stress", "pe": 0},
            )
            return model

        fresh = build(7.25)
        restamped = build(5.0)
        restamped.set_parameter("st", 6.0)
        restamped.set_parameter("st", 7.25)
        for a, b in zip(fresh.row_metadata(), restamped.row_metadata()):
            assert a.rhs == b.rhs  # exact float equality, not approx
            assert a.tags == b.tags
        assert np.array_equal(
            fresh.to_matrix_form().rhs, restamped.to_matrix_form().rhs
        )

    def test_tags_stable_across_warm_resolves(self):
        model = Model("t")
        x, y = model.add_binary("x"), model.add_binary("y")
        model.add_constraint(
            linear_sum([x, y]) <= 1, name="excl",
            tags={"family": "exclusivity", "context": 0, "pe": 2},
        )
        model.set_objective(2 * x + y, minimize=False)
        backend = ScipyBackend()
        snapshot = [
            (m.index, m.name, m.sense, m.rhs, dict(m.tags))
            for m in model.row_metadata()
        ]
        for _ in range(3):
            assert model.solve(backend).status is SolveStatus.OPTIMAL
            after = [
                (m.index, m.name, m.sense, m.rhs, dict(m.tags))
                for m in model.row_metadata()
            ]
            assert after == snapshot

    def test_certifier_violation_carries_tags(self):
        from repro.verify.certifier import Violation

        violation = Violation(
            kind="row",
            subject="stress[3]",
            detail="stress budget exceeded",
            magnitude=0.5,
            tags={"family": "stress", "pe": 3},
        )
        assert violation.to_dict()["tags"] == {"family": "stress", "pe": 3}


# -- IIS extraction ------------------------------------------------------------


def conflict_model(redundant_rows: int = 0) -> Model:
    """``x >= 1`` and ``x <= 0`` conflict; everything else is satisfiable."""
    model = Model("conflict")
    x = model.add_binary("x")
    model.add_constraint(x >= 1, name="need_x", tags={"family": "assignment"})
    model.add_constraint(x <= 0, name="deny_x", tags={"family": "exclusivity"})
    for i in range(redundant_rows):
        slack_var = model.add_continuous(f"s{i}", 0, 10)
        model.add_constraint(
            1.0 * slack_var <= 9.0, name=f"loose[{i}]", tags={"family": "stress"}
        )
    return model


class TestIIS:
    def test_finds_minimal_verified_core(self):
        iis = find_iis(conflict_model())
        assert iis.status == "iis"
        assert iis.minimal and iis.verified
        assert {m.name for m in iis.members} == {"need_x", "deny_x"}

    def test_redundant_rows_excluded(self):
        model = conflict_model(redundant_rows=6)
        iis = find_iis(model)
        assert {m.name for m in iis.members} == {"need_x", "deny_x"}
        assert iis.families == {"assignment": 1, "exclusivity": 1}
        assert verify_iis(model, iis)

    def test_minimality_every_member_necessary(self):
        # Three-way conflict: x+y >= 3 cannot hold with x <= 1, y <= 1.
        model = Model("three")
        x = model.add_continuous("x", 0, 10)
        y = model.add_continuous("y", 0, 10)
        model.add_constraint(x + y >= 3, name="demand")
        model.add_constraint(1.0 * x <= 1, name="cap_x")
        model.add_constraint(1.0 * y <= 1, name="cap_y")
        iis = find_iis(model)
        assert iis.status == "iis" and iis.minimal and iis.verified
        assert {m.name for m in iis.members} == {"demand", "cap_x", "cap_y"}
        assert verify_iis(model, iis)

    def test_verify_rejects_non_minimal_superset(self):
        model = conflict_model(redundant_rows=2)
        iis = find_iis(model)
        metas = model.row_metadata()
        padded = IISResult(
            status="iis",
            members=iis.members + (
                IISMember(
                    index=2, name=metas[2].name, sense=metas[2].sense,
                    rhs=float(metas[2].rhs), tags=dict(metas[2].tags),
                ),
            ),
            minimal=True,
            verified=True,
        )
        assert not verify_iis(model, padded)

    def test_feasible_model_reported_honestly(self):
        # The fault-injection scenario: verdict said infeasible, model is not.
        model = Model("fine")
        x = model.add_binary("x")
        model.add_constraint(x <= 1, name="cap")
        iis = find_iis(model)
        assert iis.status == "feasible"
        assert not iis.members
        assert "feasible" in iis.describe()

    def test_result_to_dict_is_json_safe(self):
        import json

        iis = find_iis(conflict_model())
        payload = iis.to_dict()
        json.dumps(payload)
        assert payload["status"] == "iis"
        assert len(payload["members"]) == 2
        assert payload["members"][0]["tags"]

    def test_zero_variable_rows_probed_directly(self):
        # An all-frozen remap model lowers to rows over zero columns; the
        # prober must decide them by direct bound checks (scipy rejects an
        # empty cost vector).
        class FakeForm:
            a_matrix = csr_matrix((2, 0))
            senses = ["<=", "<="]
            rhs = np.array([-1.0, 1.0])
            lower = np.zeros(0)
            upper = np.zeros(0)
            integrality = np.zeros(0)

        prober = _Prober(FakeForm(), time_limit_s=5.0, probe_limit_s=1.0)
        assert prober.infeasible(np.array([0, 1])) is True  # 0 <= -1 violated
        assert prober.infeasible(np.array([1])) is False
        assert prober.infeasible(np.arange(0)) is False


# -- attribution ---------------------------------------------------------------


def tagged_model():
    model = Model("attr")
    x, y = model.add_binary("x"), model.add_binary("y")
    model.add_constraint(
        x + y <= 2, name="stress[3]", tags={"family": "stress", "pe": 3}
    )
    model.add_constraint(
        1.0 * x <= 5, name="loose", tags={"family": "distance", "segment": 0}
    )
    model.set_objective(x + y, minimize=False)
    return model


class TestAttribution:
    def test_binding_rows_named_in_domain_terms(self):
        model = tagged_model()
        form = model.to_matrix_form()
        attribution = attribute_solution(
            form, np.array([1.0, 1.0]), model.row_metadata()
        )
        assert attribution["rows"] == 2
        assert attribution["binding"] == 1
        assert attribution["families"]["stress"]["binding"] == 1
        assert attribution["families"]["distance"]["binding"] == 0
        assert attribution["saturated_pes"] == [3]
        (top,) = attribution["top_binding"]
        assert top["name"] == "stress[3]" and top["tags"]["pe"] == 3

    def test_brief_compacts_for_span_attrs(self):
        model = tagged_model()
        attribution = attribute_solution(
            model.to_matrix_form(), np.array([1.0, 1.0]), model.row_metadata()
        )
        brief = attribution_brief(attribution)
        assert brief["binding"] == 1
        assert brief["families"] == {"stress": 1, "distance": 0}
        assert brief["top"] == ["stress[3]"]
        assert attribution_brief(None) is None

    def test_attribution_attached_on_feasible_solve(self):
        solution = tagged_model().solve(ScipyBackend())
        assert solution.status is SolveStatus.OPTIMAL
        attribution = solution.stats.attribution
        assert attribution is not None and attribution["binding"] >= 1
        assert "attribution" in solution.stats.span_attrs()



# -- forced-infeasible probe ---------------------------------------------------


class TestProbe:
    def test_probe_is_infeasible_with_stress_core(self, small_design, fabric4):
        model, st_target = build_infeasible_stress_model(
            small_design, fabric4, factor=0.9
        )
        assert st_target > 0
        iis = find_iis(model, time_limit_s=60.0)
        assert iis.status == "iis"
        assert "stress" in iis.families
        assert iis.involves["pes"]  # names concrete PEs
        assert verify_iis(model, iis)

    def test_probe_rejects_bad_factor(self, small_design, fabric4):
        from repro.errors import ModelError

        with pytest.raises(ModelError):
            build_infeasible_stress_model(small_design, fabric4, factor=1.5)
