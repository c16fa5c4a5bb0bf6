"""Algorithm 1 (the outer re-mapping loop) tests."""

from __future__ import annotations

import pytest

from repro.aging import compute_stress_map
from repro.arch import check_frozen_ops, check_same_schedule
from repro.core import Algorithm1Config, RemapConfig, run_algorithm1
from repro.errors import FlowError
from repro.timing import analyze


def config(mode="rotate", **kw):
    return Algorithm1Config(
        mode=mode, remap=RemapConfig(time_limit_s=30), **kw
    )


class TestInvariants:
    @pytest.fixture(scope="class")
    def result(self, synth_design, synth_floorplan, fabric4):
        return run_algorithm1(
            synth_design, fabric4, synth_floorplan, config()
        )

    def test_cpd_never_increases(self, result, synth_design, fabric4):
        """The paper's headline guarantee."""
        report = analyze(synth_design, result.floorplan)
        assert report.cpd_ns <= result.original_cpd_ns + 1e-6
        assert result.final_cpd_ns <= result.original_cpd_ns + 1e-6

    def test_schedule_unchanged(self, result, synth_floorplan):
        check_same_schedule(synth_floorplan, result.floorplan)

    def test_frozen_ops_respected(self, result, synth_floorplan):
        if not result.fell_back:
            check_frozen_ops(
                synth_floorplan, result.floorplan, result.frozen.positions
            )

    def test_stress_reduced_or_equal(
        self, result, synth_design, synth_floorplan
    ):
        before = compute_stress_map(synth_design, synth_floorplan)
        after = compute_stress_map(synth_design, result.floorplan)
        assert after.max_accumulated_ns <= before.max_accumulated_ns + 1e-9
        assert after.total_ns == pytest.approx(before.total_ns)

    def test_converged(self, result):
        assert not result.fell_back
        assert result.iterations >= 1

    def test_frozen_set_covers_critical_paths(
        self, result, synth_design, synth_floorplan
    ):
        from repro.timing import all_critical_paths

        critical = all_critical_paths(synth_design, synth_floorplan)
        critical_ops = {op for p in critical for op in p.chain}
        assert critical_ops == result.frozen.frozen_ops


class TestModes:
    def test_freeze_keeps_critical_ops_in_place(
        self, synth_design, synth_floorplan, fabric4
    ):
        result = run_algorithm1(
            synth_design, fabric4, synth_floorplan, config("freeze")
        )
        for op, pe in result.frozen.positions.items():
            assert pe == synth_floorplan.pe_of[op]
        assert set(result.frozen.orientation_of_context.values()) <= {0}

    def test_rotate_at_least_as_good_as_freeze(
        self, synth_design, synth_floorplan, fabric4
    ):
        from repro.aging import compute_stress_map

        freeze = run_algorithm1(
            synth_design, fabric4, synth_floorplan, config("freeze")
        )
        rotate = run_algorithm1(
            synth_design, fabric4, synth_floorplan, config("rotate")
        )
        st_freeze = compute_stress_map(synth_design, freeze.floorplan)
        st_rotate = compute_stress_map(synth_design, rotate.floorplan)
        # Rotation frees pinned hot PEs; levelled max should not be worse
        # beyond one stress quantum.
        assert (
            st_rotate.max_accumulated_ns
            <= st_freeze.max_accumulated_ns + 3.14 + 1e-9
        )

    def test_stats_event_names_the_mode(
        self, synth_design, synth_floorplan, fabric4
    ):
        from repro.obs import CollectorSink, attached

        collector = CollectorSink()
        with attached(collector):
            run_algorithm1(
                synth_design, fabric4, synth_floorplan, config("freeze")
            )
        (stats,) = [
            r for r in collector.records
            if r["type"] == "event" and r["name"] == "algorithm1.stats"
        ]
        assert stats["attrs"]["mode"] == "freeze"

    def test_unknown_mode_rejected(self, synth_design, synth_floorplan, fabric4):
        with pytest.raises(FlowError):
            run_algorithm1(
                synth_design,
                fabric4,
                synth_floorplan,
                Algorithm1Config(mode="wiggle"),
            )


class TestFallback:
    def test_impossible_budget_falls_back(
        self, synth_design, synth_floorplan, fabric4
    ):
        """With zero iterations allowed the flow returns the original."""
        tight = config()
        tight.max_iterations = 0
        result = run_algorithm1(
            synth_design, fabric4, synth_floorplan, tight
        )
        assert result.fell_back
        assert result.floorplan == synth_floorplan
        assert result.final_cpd_ns == pytest.approx(result.original_cpd_ns)

    def test_iteration_log_recorded(self, synth_design, synth_floorplan, fabric4):
        result = run_algorithm1(
            synth_design, fabric4, synth_floorplan, config()
        )
        log = result.stats["iterations"]
        assert len(log) == result.iterations
        assert log[-1]["result"] == "accepted"


class TestDeterminism:
    def test_same_seed_same_floorplan(self, synth_design, synth_floorplan, fabric4):
        a = run_algorithm1(synth_design, fabric4, synth_floorplan, config())
        b = run_algorithm1(synth_design, fabric4, synth_floorplan, config())
        assert a.floorplan == b.floorplan


class TestCertification:
    """Trust-but-verify wiring: accepted MILP results are independently
    certified by default; a certification failure triggers exactly one
    cold-rebuild re-solve before the degradation ladder takes over."""

    def _bad_certificate(self):
        from repro.verify.certifier import Certificate, Violation

        cert = Certificate()
        cert.violations.append(
            Violation(
                kind="row_infeasible", subject="row[0]",
                detail="injected certification failure",
            )
        )
        return cert

    def test_accepted_result_is_certified_by_default(
        self, synth_design, synth_floorplan, fabric4
    ):
        result = run_algorithm1(
            synth_design, fabric4, synth_floorplan, config()
        )
        assert result.certified is True
        assert result.alg1.certifications >= 1
        assert result.alg1.cert_failures == 0

    def test_cert_failure_triggers_one_cold_rebuild(
        self, monkeypatch, synth_design, synth_floorplan, fabric4
    ):
        import repro.verify.certifier as certifier

        real = certifier.certify_remap
        calls = {"n": 0}

        def flaky(*args, **kwargs):
            calls["n"] += 1
            if calls["n"] == 1:
                return self._bad_certificate()
            return real(*args, **kwargs)

        monkeypatch.setattr(certifier, "certify_remap", flaky)
        result = run_algorithm1(
            synth_design, fabric4, synth_floorplan, config()
        )
        assert result.certified is True
        assert result.alg1.cert_cold_rebuilds == 1
        assert result.alg1.cert_failures >= 1
        assert result.alg1.certifications >= 2

    def test_persistent_cert_failure_degrades(
        self, monkeypatch, synth_design, synth_floorplan, fabric4
    ):
        import repro.verify.certifier as certifier

        monkeypatch.setattr(
            certifier, "certify_remap",
            lambda *args, **kwargs: self._bad_certificate(),
        )
        result = run_algorithm1(
            synth_design, fabric4, synth_floorplan, config()
        )
        # The MILP result is never trusted; the ladder serves a
        # non-certified floorplan instead of a corrupt "optimal" one.
        assert result.certified is not True
        assert result.degradation != "none"
        assert result.alg1.cert_failures >= 1
