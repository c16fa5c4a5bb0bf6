"""STA tests including the paper's Fig. 4 worked example."""

from __future__ import annotations

import pytest

from repro.arch import Fabric, Floorplan, OpKind, UnitKind
from repro.errors import MappingError
from repro.hls import MappedDesign, OpInfo
from repro.obs import histogram
from repro.timing import (
    TimingPath,
    all_critical_paths,
    analyze,
    build_timing_graphs,
    critical_paths,
)
from repro.timing.sta import DELAY_EPS


def make_design(num_ops, edges, num_contexts=1, contexts=None, delay=1.0):
    """Design with uniform op delay (easy arithmetic)."""
    design = MappedDesign(name="t", num_contexts=num_contexts)
    design.clock_period_ns = 100.0  # irrelevant to STA
    for op in range(num_ops):
        design.ops[op] = OpInfo(
            op, OpKind.ADD, 32, (contexts or {}).get(op, 0),
            UnitKind.ALU, delay, delay,
        )
    design.compute_edges = list(edges)
    return design


def unit_wire_fabric(rows=4, cols=4):
    """Fabric with unit wire delay 1.0 ns per grid step (Fig. 4 arithmetic)."""
    return Fabric(rows, cols, unit_wire_delay_ns=1.0)


class TestArrivalTimes:
    def test_chain_delay(self):
        design = make_design(3, [(0, 1), (1, 2)], delay=2.0)
        fabric = unit_wire_fabric()
        fp = Floorplan(fabric, 1)
        fp.bind(0, 0, 0)  # (0,0)
        fp.bind(1, 0, 1)  # (0,1): wire 1
        fp.bind(2, 0, 5)  # (1,1): wire 1
        report = analyze(design, fp)
        # 3 PEs x 2ns + 2 wires x 1ns = 8
        assert report.cpd_ns == pytest.approx(8.0)

    def test_unbound_op_raises(self):
        design = make_design(2, [(0, 1)])
        fp = Floorplan(unit_wire_fabric(), 1)
        fp.bind(0, 0, 0)
        with pytest.raises(MappingError, match="op 1 is not bound"):
            analyze(design, fp)

    def test_register_inputs_cost_nothing(self):
        design = make_design(
            2, [(0, 1)], num_contexts=2, contexts={0: 0, 1: 1}, delay=2.0
        )
        fabric = unit_wire_fabric()
        fp = Floorplan(fabric, 2)
        fp.bind(0, 0, 0)
        fp.bind(1, 1, 15)  # far away — but register read carries no delay
        report = analyze(design, fp)
        assert report.cpd_ns == pytest.approx(2.0)

    def test_cpd_is_max_over_contexts(self):
        design = make_design(
            3, [(0, 1)], num_contexts=2, contexts={0: 0, 1: 0, 2: 1}, delay=2.0
        )
        fabric = unit_wire_fabric()
        fp = Floorplan(fabric, 2)
        fp.bind(0, 0, 0)
        fp.bind(1, 0, 3)  # wire 3: ctx0 delay = 2+3+2 = 7
        fp.bind(2, 1, 0)  # ctx1 delay = 2
        report = analyze(design, fp)
        assert report.per_context[0].cpd_ns == pytest.approx(7.0)
        assert report.per_context[1].cpd_ns == pytest.approx(2.0)
        assert report.cpd_ns == pytest.approx(7.0)

    def test_reconvergent_max(self):
        # diamond: 0 -> 1,2 -> 3 with asymmetric wire lengths
        design = make_design(4, [(0, 1), (0, 2), (1, 3), (2, 3)], delay=1.0)
        fabric = unit_wire_fabric()
        fp = Floorplan(fabric, 1)
        fp.bind(0, 0, 0)   # (0,0)
        fp.bind(1, 0, 1)   # (0,1)
        fp.bind(2, 0, 12)  # (3,0) — wire 3 from op0
        fp.bind(3, 0, 5)   # (1,1)
        report = analyze(design, fp)
        # path 0-2-3: 1 + 3 + 1 + (|3-1|+|0-1|=3) + 1 = 9
        assert report.cpd_ns == pytest.approx(9.0)


class TestCriticalPathExtraction:
    def test_single_chain(self):
        design = make_design(3, [(0, 1), (1, 2)], delay=2.0)
        fabric = unit_wire_fabric()
        fp = Floorplan(fabric, 1)
        for op, pe in ((0, 0), (1, 1), (2, 2)):
            fp.bind(op, 0, pe)
        paths = all_critical_paths(design, fp)
        assert len(paths) == 1
        assert paths[0].chain == (0, 1, 2)
        assert paths[0].delay_ns(design, fp) == pytest.approx(8.0)

    def test_multiple_tight_paths(self):
        design = make_design(4, [(0, 2), (1, 2), (2, 3)], delay=1.0)
        fabric = unit_wire_fabric()
        fp = Floorplan(fabric, 1)
        fp.bind(0, 0, 0)  # (0,0)
        fp.bind(1, 0, 8)  # (2,0)
        fp.bind(2, 0, 4)  # (1,0): both producers 1 away -> two tight paths
        fp.bind(3, 0, 5)
        paths = all_critical_paths(design, fp)
        chains = {p.chain for p in paths}
        assert chains == {(0, 2, 3), (1, 2, 3)}

    def test_per_context_criticals_included(self):
        design = make_design(
            2, [], num_contexts=2, contexts={0: 0, 1: 1}, delay=2.0
        )
        fabric = unit_wire_fabric()
        fp = Floorplan(fabric, 2)
        fp.bind(0, 0, 0)
        fp.bind(1, 1, 0)
        paths = all_critical_paths(design, fp)
        assert {p.context for p in paths} == {0, 1}


class TestTimingPath:
    def test_wire_segments(self):
        path = TimingPath(context=0, chain=(3, 5, 7))
        segments = path.wire_segments()
        assert len(segments) == 2
        assert segments[0][0].ident == 3

    def test_single_op_path_has_no_wires(self):
        path = TimingPath(context=0, chain=(3,))
        assert path.wire_segments() == []

    def test_pe_delay_invariant_under_rebinding(self, fabric4):
        design = make_design(2, [(0, 1)], delay=2.5)
        fp = Floorplan(fabric4, 1)
        fp.bind(0, 0, 0)
        fp.bind(1, 0, 1)
        path = TimingPath(context=0, chain=(0, 1))
        before = path.pe_delay_ns(design)
        moved = fp.with_bindings({1: 15})
        assert path.pe_delay_ns(design) == before
        assert path.wire_length(moved) > path.wire_length(fp)


class TestFig4WorkedExample:
    """The paper's Fig. 4(b) arithmetic, verbatim.

    Normalized PE delay 2, unit wire delay 1, adjacent wire length 1.
    path1 (3 PEs, wires 1+1): delay = 2x3 + 1x1x2 = 8.
    path3 (6 PEs, 5 unit wires): delay = 2x6 + 1x1x5 = 17 (critical).
    Wire-length bound for path1: (17 - 2x3)/1 = 11, slack = 11 - 2 = 9.
    """

    def build(self):
        # PEs indexed row-major on 4x4; path1 = PE1->PE5->PE9 (column),
        # path3 = PE2->PE6->PE10->PE14->PE15->PE16 in Fig. 4's 1-based
        # numbering; we use 0-based equivalents.
        design = make_design(
            9,
            [(0, 1), (1, 2),                       # path1 chain
             (3, 4), (4, 5), (5, 6), (6, 7), (7, 8)],  # path3 chain
            delay=2.0,
        )
        fabric = unit_wire_fabric()
        fp = Floorplan(fabric, 1)
        # path1 down column 0: (0,0) (1,0) (2,0)
        fp.bind(0, 0, 0)
        fp.bind(1, 0, 4)
        fp.bind(2, 0, 8)
        # path3 snake of 6 PEs with unit steps: (0,1)(1,1)(2,1)(3,1)(3,2)(3,3)
        for op, pe in zip(range(3, 9), (1, 5, 9, 13, 14, 15)):
            fp.bind(op, 0, pe)
        return design, fabric, fp

    def test_path_delays(self):
        design, fabric, fp = self.build()
        report = analyze(design, fp)
        assert report.cpd_ns == pytest.approx(17.0)
        path1 = TimingPath(context=0, chain=(0, 1, 2))
        assert path1.delay_ns(design, fp) == pytest.approx(8.0)

    def test_path1_wire_length_slack(self):
        design, fabric, fp = self.build()
        report = analyze(design, fp)
        path1 = TimingPath(context=0, chain=(0, 1, 2))
        bound = (report.cpd_ns - path1.pe_delay_ns(design)) / fabric.unit_wire_delay_ns
        assert bound == pytest.approx(11.0)
        slack = bound - path1.wire_length(fp)
        assert slack == pytest.approx(9.0)

    def test_critical_path_is_path3(self):
        design, fabric, fp = self.build()
        paths = all_critical_paths(design, fp)
        assert len(paths) == 1
        assert paths[0].chain == (3, 4, 5, 6, 7, 8)


def independent_ops(delays):
    """One context of unconnected ops: each op's completion is its delay."""
    design = make_design(len(delays), [])
    for op, delay in enumerate(delays):
        design.ops[op] = OpInfo(op, OpKind.ADD, 32, 0, UnitKind.ALU, delay, delay)
    fp = Floorplan(Fabric(6, 6, unit_wire_delay_ns=1.0), 1)
    for op in design.ops:
        fp.bind(op, 0, op)
    return analyze(design, fp)


class TestDelayEpsTies:
    """The CPD scan visits ops in order: a completion more than DELAY_EPS
    past the running CPD replaces the critical set, one within DELAY_EPS
    of it joins the set.  Spacings of exactly DELAY_EPS sit on the guard
    and pin the order-dependent outcome."""

    def test_tie_within_eps_keeps_both_endpoints(self):
        report = independent_ops([2.0, 2.0 + 0.5 * DELAY_EPS, 1.0])
        assert report.per_context[0].critical_ops == [0, 1]
        assert report.cpd_ns == 2.0

    def test_late_small_riser_advances_cpd(self):
        report = independent_ops([2.0, 2.0, 2.0 + 2 * DELAY_EPS])
        assert report.per_context[0].critical_ops == [2]
        assert report.cpd_ns == 2.0 + 2 * DELAY_EPS

    def test_ascending_eps_spacing(self):
        # 1+eps ties 1 (not past the guard), 1+2eps advances the CPD and
        # 1+3eps ties it again, so the CPD stays at 1+2eps.
        delays = [1.0 + k * DELAY_EPS for k in range(4)]
        report = independent_ops(delays)
        assert report.per_context[0].critical_ops == [2, 3]
        assert report.cpd_ns == 1.0 + 2 * DELAY_EPS

    def test_descending_eps_spacing(self):
        # 1+2eps sits exactly DELAY_EPS below the CPD: outside the set.
        delays = [1.0 + k * DELAY_EPS for k in (3, 2, 1, 0)]
        report = independent_ops(delays)
        assert report.per_context[0].critical_ops == [0]
        assert report.cpd_ns == 1.0 + 3 * DELAY_EPS


class TestStaTimer:
    def test_analyze_observes_one_sta_timing_per_context(self):
        design = make_design(
            4, [(0, 1), (2, 3)], num_contexts=2, contexts={2: 1, 3: 1}
        )
        fp = Floorplan(unit_wire_fabric(), 2)
        for op in range(4):
            fp.bind(op, design.ops[op].context, op)
        sta_seconds = histogram("kernels.sta.seconds")
        before = sta_seconds.count
        analyze(design, fp)
        assert sta_seconds.count == before + design.num_contexts
