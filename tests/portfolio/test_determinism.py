"""Portfolio determinism: a healthy raced run equals the serial run.

The hedging contract (docs/robustness.md): with no faults injected and a
hedge window the leader finishes inside, backup lanes never start, so the
raced Algorithm 1 run is certified-identical to a serial run on the
leader backend — same floorplan, same CPD, same MTTF — while the trace
names the winning lane of every raced solve.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.aging import compute_mttf, compute_stress_map
from repro.core import Algorithm1Config, RemapConfig, run_algorithm1
from repro.obs import CollectorSink, attached

pytest.importorskip("scipy")


def config(**remap_kw) -> Algorithm1Config:
    return Algorithm1Config(
        remap=RemapConfig(time_limit_s=30, **remap_kw)
    )


@pytest.fixture(scope="module")
def serial(synth_design, synth_floorplan, fabric4):
    return run_algorithm1(synth_design, fabric4, synth_floorplan, config())


@pytest.fixture(scope="module")
def raced(synth_design, synth_floorplan, fabric4):
    """One traced portfolio run shared by every assertion."""
    sink = CollectorSink()
    with attached(sink):
        result = run_algorithm1(
            synth_design,
            fabric4,
            synth_floorplan,
            config(portfolio=True, hedge_delay_s=30.0),
        )
    return result, sink


class TestRacedEqualsSerial:
    def test_identical_floorplan(self, serial, raced):
        result, _ = raced
        assert result.floorplan == serial.floorplan

    def test_identical_cpd(self, serial, raced):
        result, _ = raced
        assert result.final_cpd_ns == serial.final_cpd_ns
        assert result.original_cpd_ns == serial.original_cpd_ns

    def test_identical_mttf(self, serial, raced, synth_design):
        result, _ = raced
        stress_serial = compute_stress_map(synth_design, serial.floorplan)
        stress_raced = compute_stress_map(synth_design, result.floorplan)
        temperature = np.full(stress_serial.num_pes, 350.0)
        mttf_serial = compute_mttf(stress_serial, temperature)
        mttf_raced = compute_mttf(stress_raced, temperature)
        assert mttf_raced.mttf_s == mttf_serial.mttf_s

    def test_raced_run_is_certified(self, serial, raced):
        result, _ = raced
        assert result.certified is True
        assert serial.certified is True


class TestRaceAudit:
    def test_snapshot_persisted_on_stats(self, raced):
        result, _ = raced
        snapshot = result.alg1.portfolio
        assert snapshot is not None
        assert snapshot["solves"] >= 1
        # Healthy run: every raced solve was won, all by the leader.
        assert sum(snapshot["winners"].values()) == snapshot["solves"]
        assert set(snapshot["winners"]) == {"highs"}
        assert snapshot["breakers"]["highs"]["state"] == "closed"

    def test_winning_lane_named_in_trace(self, raced):
        _, sink = raced
        races = [
            record
            for record in sink.records
            if record.get("name") == "portfolio.race"
        ]
        assert races
        for record in races:
            attrs = record["attrs"]
            assert attrs["winner"] == "highs"
            lanes = {row["lane"]: row for row in attrs["lanes"]}
            # Step-1 bumps legitimately prove INFEASIBLE targets.
            assert lanes["highs"]["verdict"] in ("won", "infeasible")

    def test_no_lane_rejections_or_breaker_events(self, raced):
        _, sink = raced
        names = {record.get("name") for record in sink.records}
        assert "portfolio.lane_rejected" not in names
        assert "portfolio.breaker" not in names
        assert "certification.failed" not in names
