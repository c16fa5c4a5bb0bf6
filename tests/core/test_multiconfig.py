"""Multi-configuration rotation-set extension tests."""

from __future__ import annotations

import pytest

from repro.aging import compute_stress_map
from repro.benchgen import load_benchmark
from repro.core import (
    Algorithm1Config,
    RemapConfig,
    build_rotation_set,
    combined_stress_map,
    run_algorithm1,
)
from repro.errors import FlowError
from repro.obs import CollectorSink, attached
from repro.place import place_baseline
from repro.timing import analyze


def fast_config():
    return Algorithm1Config(remap=RemapConfig(time_limit_s=30))


def bench_config():
    """The extension bench's configuration."""
    return Algorithm1Config(
        max_iterations=10, remap=RemapConfig(time_limit_s=15)
    )


@pytest.fixture(scope="module")
def b19():
    """Canonical B19 (4x4): its Step-1 target is infeasible after the
    0.95 pre-mapping, so only the relax loop's unfixed retry accepts it."""
    design, fabric = load_benchmark("B19")
    return design, fabric, place_baseline(design, fabric)


@pytest.fixture(scope="module")
def rotation_set(synth_design, synth_floorplan, fabric4):
    return build_rotation_set(
        synth_design, fabric4, synth_floorplan, k=2, config=fast_config()
    )


class TestRotationSet:
    def test_size(self, rotation_set):
        assert rotation_set.size == 2
        assert len(rotation_set.per_config_max_ns) == 2

    def test_every_configuration_cpd_safe(
        self, rotation_set, synth_design, synth_floorplan
    ):
        original_cpd = analyze(synth_design, synth_floorplan).cpd_ns
        for floorplan in rotation_set.floorplans:
            assert analyze(synth_design, floorplan).cpd_ns <= original_cpd + 1e-6

    def test_every_configuration_legal(self, rotation_set, synth_floorplan):
        from repro.arch import check_same_schedule

        for floorplan in rotation_set.floorplans:
            floorplan.validate()
            check_same_schedule(synth_floorplan, floorplan)

    def test_combined_stress_is_mean(self, rotation_set, synth_design):
        recomputed = combined_stress_map(synth_design, rotation_set.floorplans)
        assert recomputed.total_ns == pytest.approx(
            rotation_set.combined_stress.total_ns
        )

    def test_combined_total_matches_single(self, rotation_set, synth_design):
        """Averaging conserves total stress per schedule iteration."""
        assert rotation_set.combined_stress.total_ns == pytest.approx(
            synth_design.total_stress_ns()
        )

    def test_set_improves_on_single_configuration(
        self, rotation_set, synth_design, synth_floorplan, fabric4
    ):
        """The time-averaged worst PE is bounded by the set budget and can
        never exceed the worst single configuration (the mean of per-PE
        values is at most their per-PE maximum)."""
        worst_single = max(rotation_set.per_config_max_ns)
        combined = rotation_set.combined_stress.max_accumulated_ns
        assert combined <= worst_single + 1e-9
        # Joint budget: cumulative stress <= final set target, so the
        # average is bounded by target / K.
        final_target = max(
            (c.get("set_target_ns", 0.0) for c in rotation_set.stats["configs"]),
            default=0.0,
        )
        if final_target:
            assert combined <= final_target / rotation_set.size + 1e-9

    def test_mttf_better_than_original(
        self, rotation_set, synth_design, synth_floorplan, fabric4
    ):
        from repro.aging import compute_mttf
        from repro.thermal import ThermalSimulator

        original_stress = compute_stress_map(synth_design, synth_floorplan)
        simulator = ThermalSimulator(fabric4)
        thermal = simulator.simulate(original_stress.duty_per_context())
        original = compute_mttf(original_stress, thermal.accumulated_k)
        assert rotation_set.mttf.mttf_s >= original.mttf_s


class TestValidation:
    def test_k_must_be_positive(self, synth_design, synth_floorplan, fabric4):
        with pytest.raises(FlowError):
            build_rotation_set(
                synth_design, fabric4, synth_floorplan, k=0,
                config=fast_config(),
            )

    def test_empty_combined_rejected(self, synth_design):
        with pytest.raises(FlowError):
            combined_stress_map(synth_design, [])

    def test_k1_reduces_to_single_flow(self, b19):
        """One configuration is Algorithm 1's floorplan: the same relax
        loop, lazy rows and unfixed retry included."""
        design, fabric, original = b19
        result = build_rotation_set(
            design, fabric, original, k=1, config=bench_config()
        )
        assert result.size == 1
        assert result.combined_stress.max_accumulated_ns == pytest.approx(
            result.per_config_max_ns[0]
        )
        single = run_algorithm1(design, fabric, original, bench_config())
        assert result.floorplans[0] == single.floorplan


class TestRelaxLoopPerConfiguration:
    """Each configuration runs Algorithm 1's relax loop on one model."""

    @pytest.fixture(scope="class")
    def traced_pair(self, b19):
        design, fabric, original = b19
        collector = CollectorSink()
        with attached(collector):
            result = build_rotation_set(
                design, fabric, original, k=2, config=bench_config()
            )
        return result, collector.records

    def test_second_configuration_adds_rows_at_its_base_target(
        self, traced_pair
    ):
        result, _ = traced_pair
        second = result.stats["configs"][1]
        assert not second["fell_back"]
        assert second["rows_added"] > 0
        assert second["set_target_ns"] == 2 * result.stats["st_single_ns"]

    def test_one_model_build_per_configuration(self, traced_pair):
        result, records = traced_pair
        builds = [
            r for r in records
            if r["type"] == "span" and r["name"] == "milp_build"
            and r["attrs"].get("model") == "remap"
        ]
        assert len(builds) == result.size
        assert sum(c["iterations"] for c in result.stats["configs"]) > len(
            builds
        )

    def test_every_accepted_configuration_certified(self, traced_pair):
        result, records = traced_pair
        checked = [
            r for r in records
            if r["type"] == "event" and r["name"] == "certification.checked"
        ]
        accepted = [c for c in result.stats["configs"] if not c["fell_back"]]
        assert len(checked) == len(accepted) == result.size
