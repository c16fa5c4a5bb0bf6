"""End-to-end flow tests (Phase 1 + Phase 2)."""

from __future__ import annotations

from dataclasses import replace

import pytest

from repro.core import AgingAwareFlow, Algorithm1Config, FlowConfig, RemapConfig


@pytest.fixture(scope="module")
def flow():
    return AgingAwareFlow(
        FlowConfig(
            algorithm1=Algorithm1Config(remap=RemapConfig(time_limit_s=30))
        )
    )


@pytest.fixture(scope="module")
def result(flow, synth_design, fabric4):
    return flow.run(synth_design, fabric4)


class TestFlowResult:
    def test_mttf_increases(self, result):
        assert result.mttf_increase > 1.0

    def test_cpd_preserved(self, result):
        assert result.cpd_preserved

    def test_stress_levelled(self, result):
        assert (
            result.remapped.stress.max_accumulated_ns
            < result.original.stress.max_accumulated_ns
        )

    def test_temperature_not_worse(self, result):
        assert result.remapped.thermal.peak_k <= result.original.thermal.peak_k + 0.5

    def test_summary_keys(self, result):
        summary = result.summary()
        for key in (
            "benchmark", "contexts", "fabric", "pe_count", "utilization",
            "mttf_increase", "original_cpd_ns", "final_cpd_ns", "fell_back",
        ):
            assert key in summary
        assert summary["fabric"] == "4x4"
        assert summary["fell_back"] is False

    def test_mttf_consistent_with_reports(self, result):
        expected = result.remapped.mttf.mttf_s / result.original.mttf.mttf_s
        assert result.mttf_increase == pytest.approx(expected)


class TestPhases:
    def test_phase1_is_deterministic(self, flow, synth_design, fabric4):
        a = flow.phase1(synth_design, fabric4)
        b = flow.phase1(synth_design, fabric4)
        assert a.floorplan == b.floorplan
        assert a.mttf.mttf_s == pytest.approx(b.mttf.mttf_s)

    def test_evaluate_any_floorplan(self, flow, synth_design, fabric4):
        from repro.place import greedy_place

        floorplan = greedy_place(synth_design, fabric4)
        evaluation = flow.evaluate(synth_design, fabric4, floorplan)
        assert evaluation.stress.num_pes == 16
        assert evaluation.mttf.mttf_s > 0
        assert evaluation.thermal.accumulated_k.shape == (16,)

    def test_run_flow_wrapper(self, synth_design, fabric4):
        from repro.core import run_flow

        result = run_flow(
            synth_design,
            fabric4,
            FlowConfig(
                algorithm1=Algorithm1Config(remap=RemapConfig(time_limit_s=30))
            ),
        )
        assert result.mttf_increase >= 1.0


class TestMiniCKernelThroughFlow:
    def test_small_kernel(self, flow, small_design, fabric4):
        result = flow.run(small_design, fabric4)
        assert result.cpd_preserved
        assert result.mttf_increase >= 1.0
        # The re-mapped floorplan still computes the same design: same ops,
        # same contexts.
        assert set(result.remapped.floorplan.ops) == set(small_design.ops)


def lower_reevaluated_mttf(monkeypatch):
    """Make every evaluation after the first (Phase 1's baseline) report a
    thousandth of its MTTF, so any re-map lowers MTTF."""
    real = AgingAwareFlow.evaluate
    calls = []

    def evaluate(self, design, fabric, floorplan):
        evaluation = real(self, design, fabric, floorplan)
        calls.append(floorplan)
        if len(calls) == 1:
            return evaluation
        mttf = replace(evaluation.mttf, mttf_s=evaluation.mttf.mttf_s / 1e3)
        return replace(evaluation, mttf=mttf)

    monkeypatch.setattr(AgingAwareFlow, "evaluate", evaluate)
    return calls


class TestLowerMttfKeepsOriginal:
    """Phase 2 itself keeps the original floorplan when a re-map lowers
    MTTF, so runners that call it directly agree with :meth:`run`."""

    def test_phase2_returns_the_original_evaluation(
        self, monkeypatch, flow, synth_design, fabric4
    ):
        calls = lower_reevaluated_mttf(monkeypatch)
        original = flow.phase1(synth_design, fabric4)
        evaluation, remap = flow.phase2(synth_design, fabric4, original)
        assert len(calls) == 2  # the re-map was re-evaluated
        assert evaluation is original
        assert remap.degradation == "original"
        assert remap.fell_back
        assert remap.floorplan is original.floorplan
        assert remap.final_cpd_ns == remap.original_cpd_ns

    def test_table1_measurement_reports_no_gain(self, monkeypatch):
        from repro.benchgen.suite import entry
        from repro.report.experiments import (
            ExperimentConfig,
            measure_benchmark,
        )

        calls = lower_reevaluated_mttf(monkeypatch)
        measurement = measure_benchmark(
            entry("B1"), ExperimentConfig(time_limit_s=30.0)
        )
        assert len(calls) == 3  # one Phase 1, one re-map per mode
        assert measurement.freeze_increase == 1.0
        assert measurement.rotate_increase == 1.0
