"""Stress-map tests, including the conservation invariant."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.aging import StressMap, compute_stress_map, stress_summary
from repro.arch import Fabric, Floorplan, OpKind, UnitKind
from repro.errors import AgingError
from repro.hls import MappedDesign, OpInfo
from repro.obs import histogram


def tiny_design():
    design = MappedDesign(name="t", num_contexts=2)
    design.ops[0] = OpInfo(0, OpKind.MUL, 32, 0, UnitKind.DMU, 3.14, 3.14)
    design.ops[1] = OpInfo(1, OpKind.ADD, 32, 0, UnitKind.ALU, 0.87, 0.87)
    design.ops[2] = OpInfo(2, OpKind.ADD, 32, 1, UnitKind.ALU, 0.87, 0.87)
    return design


class TestComputeStressMap:
    def test_per_context_entries(self, fabric4):
        design = tiny_design()
        fp = Floorplan(fabric4, 2)
        fp.bind(0, 0, 0)
        fp.bind(1, 0, 1)
        fp.bind(2, 1, 0)
        stress = compute_stress_map(design, fp)
        assert stress.per_context_ns[0, 0] == pytest.approx(3.14)
        assert stress.per_context_ns[0, 1] == pytest.approx(0.87)
        assert stress.per_context_ns[1, 0] == pytest.approx(0.87)

    def test_accumulation_over_contexts(self, fabric4):
        design = tiny_design()
        fp = Floorplan(fabric4, 2)
        fp.bind(0, 0, 0)
        fp.bind(1, 0, 1)
        fp.bind(2, 1, 0)  # PE 0 reused
        stress = compute_stress_map(design, fp)
        assert stress.accumulated_ns[0] == pytest.approx(3.14 + 0.87)
        assert stress.max_accumulated_ns == pytest.approx(4.01)
        assert stress.argmax_pe() == 0

    def test_unplaced_op_rejected(self, fabric4):
        design = tiny_design()
        fp = Floorplan(fabric4, 2)
        fp.bind(0, 0, 0)
        with pytest.raises(AgingError):
            compute_stress_map(design, fp)

    def test_observes_stress_timer(self, fabric4):
        design = tiny_design()
        fp = Floorplan(fabric4, 2)
        for op, pe in ((0, 0), (1, 1), (2, 2)):
            fp.bind(op, design.ops[op].context, pe)
        stress_seconds = histogram("kernels.stress.seconds")
        before = stress_seconds.count
        compute_stress_map(design, fp)
        assert stress_seconds.count == before + 1

    def test_duty_cycles(self, fabric4):
        design = tiny_design()
        fp = Floorplan(fabric4, 2)
        fp.bind(0, 0, 0)
        fp.bind(1, 0, 1)
        fp.bind(2, 1, 2)
        stress = compute_stress_map(design, fp)
        assert stress.duty_per_context()[0, 0] == pytest.approx(3.14 / 5.0)
        assert stress.average_duty()[0] == pytest.approx(3.14 / 10.0)
        assert np.all(stress.average_duty() <= 1.0)

    def test_summary_fields(self, synth_design, synth_floorplan):
        stress = compute_stress_map(synth_design, synth_floorplan)
        summary = stress_summary(stress)
        assert summary["max_ns"] >= summary["mean_ns"]
        assert summary["used_pes"] <= synth_floorplan.fabric.num_pes
        assert summary["total_ns"] == pytest.approx(
            synth_design.total_stress_ns()
        )


class TestConservation:
    """Re-binding moves stress between PEs but never changes the total."""

    @settings(max_examples=20, deadline=None)
    @given(seed=st.integers(0, 10_000))
    def test_total_invariant_under_rebinding(self, seed, synth_design, fabric4):
        import random

        from repro.place import greedy_place

        rng = random.Random(seed)
        original = greedy_place(synth_design, fabric4)
        shuffled = original.copy()
        # Random legal rebinding per context.
        for context in range(shuffled.num_contexts):
            ops = shuffled.ops_in_context(context)
            pes = rng.sample(range(fabric4.num_pes), len(ops))
            # Move everyone to a parking slot impossible to collide with by
            # rebuilding from scratch.
            for op, pe in zip(ops, pes):
                shuffled._slots.pop((context, shuffled.pe_of[op]), None)
                shuffled.pe_of[op] = pe
                shuffled._slots[(context, pe)] = op
        shuffled.validate()
        before = compute_stress_map(synth_design, original)
        after = compute_stress_map(synth_design, shuffled)
        assert after.total_ns == pytest.approx(before.total_ns)
        assert after.mean_accumulated_ns == pytest.approx(
            before.mean_accumulated_ns
        )

    def test_levelling_cannot_beat_average(self, synth_design, synth_floorplan):
        stress = compute_stress_map(synth_design, synth_floorplan)
        # ST_low of the paper: no floorplan can push the max below the mean.
        assert stress.max_accumulated_ns >= stress.mean_accumulated_ns
