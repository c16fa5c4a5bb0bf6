"""Static timing analysis over placed multi-context designs.

Implements the paper's Eq. (4):

``path delay = sum(PE delays) + sum(wire delays)``

with wire delay = unit wire delay x Manhattan distance between the driver
and load of each *on-path* segment.  Following the paper's worked example
(Fig. 4b: "the delay of path1 is given by 2x3 (PE delay) + 1x1x2 (the wire
delay from PE1 to PE9)" — three PEs, two wires), a path consists only of
the operations chained combinationally within one context: wires from
registers or input pads into the first op, and from the last op to a pad,
are *not* charged to the path (operand registers latch at cycle
boundaries).  The design CPD is the maximum over all contexts (Section
V-B), and the critical paths are the chains achieving it — these are the
ops the re-mapper freezes (or rotates); because every wire of a path runs
between ops of the same context, freezing (or rigidly rotating) the chain
fixes the path delay exactly.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.arch.context import Floorplan
from repro.errors import TimingError
from repro.hls.allocate import MappedDesign
from repro.obs import timer
from repro.timing.graph import ContextTimingGraph, Endpoint, build_timing_graphs

#: Two delays within this many ns are considered equal (float guard).
DELAY_EPS = 1e-9


@dataclass(frozen=True)
class TimingPath:
    """One register-to-register combinational path (an op chain).

    Attributes
    ----------
    context:
        The context the chain executes in.
    chain:
        The op ids along the path, in order (length >= 1).  Per the
        paper's path model only the wires *between* these ops carry delay.
    """

    context: int
    chain: tuple[int, ...]

    def wire_segments(self) -> list[tuple[Endpoint, Endpoint]]:
        """(driver, load) endpoint pairs of every wire on the path."""
        return [
            (Endpoint.op(src), Endpoint.op(dst))
            for src, dst in zip(self.chain, self.chain[1:])
        ]

    def pe_delay_ns(self, design: MappedDesign) -> float:
        """Sum of PE delays along the chain (invariant under re-mapping)."""
        return sum(design.ops[op].delay_ns for op in self.chain)

    def wire_length(self, floorplan: Floorplan) -> float:
        """Total Manhattan wire length of the path under a floorplan."""
        total = 0.0
        for a, b in self.wire_segments():
            pa, pb = a.position(floorplan), b.position(floorplan)
            total += abs(pa[0] - pb[0]) + abs(pa[1] - pb[1])
        return total

    def delay_ns(self, design: MappedDesign, floorplan: Floorplan) -> float:
        """Full path delay under a floorplan (Eq. 4)."""
        return self.pe_delay_ns(design) + floorplan.fabric.wire_delay(
            self.wire_length(floorplan)
        )

    def __repr__(self) -> str:
        ops = "->".join(str(op) for op in self.chain)
        return f"TimingPath(ctx{self.context}: {ops})"


@dataclass
class ContextTiming:
    """STA results for one context."""

    context: int
    arrival_ns: dict[int, float]
    cpd_ns: float
    critical_ops: list[int]  # argmax completion ops (path endpoints)


@dataclass
class TimingReport:
    """STA results for a whole design under one floorplan."""

    per_context: list[ContextTiming]
    cpd_ns: float

    def context(self, index: int) -> ContextTiming:
        return self.per_context[index]


def _wire_ns(
    floorplan: Floorplan, a: Endpoint, b: Endpoint
) -> float:
    pa, pb = a.position(floorplan), b.position(floorplan)
    length = abs(pa[0] - pb[0]) + abs(pa[1] - pb[1])
    return floorplan.fabric.wire_delay(length)


def analyze_context(
    graph: ContextTimingGraph, floorplan: Floorplan
) -> ContextTiming:
    """Arrival times and CPD of one context under a floorplan.

    Chains start at time zero (operand registers latch at the cycle
    boundary; register/pad input wires carry no path delay — see module
    docstring) and accumulate PE + intra-context wire delays.  The CPD
    scan visits ``graph.ops`` in order: a completion more than
    ``DELAY_EPS`` past the running CPD replaces the critical set, one
    within ``DELAY_EPS`` of it joins the set.
    """
    # perfbench's timing.busy_s reads this histogram name; keep it.
    with timer("kernels.sta.seconds"):
        arrival: dict[int, float] = {}
        preds = graph.intra_preds()
        for op in graph.topological_ops():
            start = 0.0
            for pred in preds[op]:
                start = max(
                    start,
                    arrival[pred]
                    + _wire_ns(floorplan, Endpoint.op(pred), Endpoint.op(op)),
                )
            arrival[op] = start + graph.delay_of[op]

        cpd = 0.0
        critical: list[int] = []
        for op in graph.ops:
            completion = arrival[op]
            if completion > cpd + DELAY_EPS:
                cpd = completion
                critical = [op]
            elif completion > cpd - DELAY_EPS:
                critical.append(op)
    return ContextTiming(
        context=graph.context, arrival_ns=arrival, cpd_ns=cpd, critical_ops=critical
    )


def analyze(
    design: MappedDesign,
    floorplan: Floorplan,
    graphs: list[ContextTimingGraph] | None = None,
) -> TimingReport:
    """Full-design STA: per-context CPD and the global CPD."""
    graphs = graphs or build_timing_graphs(design)
    per_context = [analyze_context(g, floorplan) for g in graphs]
    cpd = max((ct.cpd_ns for ct in per_context), default=0.0)
    return TimingReport(per_context=per_context, cpd_ns=cpd)


def critical_paths(
    graph: ContextTimingGraph,
    floorplan: Floorplan,
    timing: ContextTiming | None = None,
    max_paths: int = 64,
) -> list[TimingPath]:
    """All maximal-delay paths of one context (up to ``max_paths``).

    Backtracks from each critical endpoint along tight edges.  Each
    distinct tight chain yields one :class:`TimingPath`, including the
    tight entry endpoint (register/pad) and exit pad when those wires are
    part of the maximal delay.
    """
    timing = timing or analyze_context(graph, floorplan)
    preds = graph.intra_preds()
    results: list[TimingPath] = []

    def backtrack(op: int, suffix: tuple[int, ...]) -> None:
        if len(results) >= max_paths:
            return
        chain = (op, *suffix)
        target = timing.arrival_ns[op] - graph.delay_of[op]
        if target <= DELAY_EPS:
            results.append(TimingPath(context=graph.context, chain=chain))
            return
        tight_found = False
        for pred in preds[op]:
            pred_arr = timing.arrival_ns[pred] + _wire_ns(
                floorplan, Endpoint.op(pred), Endpoint.op(op)
            )
            if abs(pred_arr - target) <= DELAY_EPS:
                tight_found = True
                backtrack(pred, chain)
        if not tight_found:
            raise TimingError(
                f"context {graph.context}: op {op} start {target:.3f}ns has "
                "no explaining edge"
            )

    for op in timing.critical_ops:
        if abs(timing.arrival_ns[op] - timing.cpd_ns) <= DELAY_EPS:
            backtrack(op, ())
    return results


def all_critical_paths(
    design: MappedDesign,
    floorplan: Floorplan,
    graphs: list[ContextTimingGraph] | None = None,
    report: TimingReport | None = None,
    max_paths_per_context: int = 64,
) -> list[TimingPath]:
    """Critical paths of every context whose CPD equals the global CPD.

    The paper freezes the critical paths *of each context* (Section V-B.1,
    "a set of N_i critical paths in context i"), i.e. each context's own
    longest chains, so re-mapping can never make any context exceed its
    original worst — we follow that definition.
    """
    graphs = graphs or build_timing_graphs(design)
    report = report or analyze(design, floorplan, graphs)
    paths: list[TimingPath] = []
    for graph, timing in zip(graphs, report.per_context):
        if not graph.ops:
            continue
        paths.extend(
            critical_paths(graph, floorplan, timing, max_paths_per_context)
        )
    return paths
