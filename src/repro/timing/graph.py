"""Per-context timing graphs.

A timing path in a multi-context CGRRA runs register-to-register inside one
context (paper Section V-B: "the critical path delay is the longest path
delay among all contexts").  Registers live at PE outputs: a value produced
in an earlier context is read from its producer PE's output register, so
the wire from that *physical location* to the consumer counts toward the
consumer context's path delay; likewise wires from input pads and to
output pads.

This module builds, for each context, the DAG of intra-context
combinational edges plus the set of fixed-at-cycle-start *entry* sources
(earlier-context producers, input pads) and *exit* sinks (output pads).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field

from repro.arch.context import Floorplan
from repro.errors import TimingError
from repro.hls.allocate import MappedDesign, topological_order


class EndpointKind(enum.Enum):
    """What a wire endpoint is anchored to."""

    OP = "op"       # a (re-mappable) operation's PE
    IN_PAD = "in"   # primary-input pad (fixed)
    OUT_PAD = "out"  # primary-output pad (fixed)


@dataclass(frozen=True)
class Endpoint:
    """One end of a wire segment: an op or an I/O pad."""

    kind: EndpointKind
    ident: int  # op id, or pad ordinal

    @classmethod
    def op(cls, op_id: int) -> "Endpoint":
        return cls(EndpointKind.OP, op_id)

    @classmethod
    def in_pad(cls, ordinal: int) -> "Endpoint":
        return cls(EndpointKind.IN_PAD, ordinal)

    @classmethod
    def out_pad(cls, ordinal: int) -> "Endpoint":
        return cls(EndpointKind.OUT_PAD, ordinal)

    def position(self, floorplan: Floorplan) -> tuple[float, float]:
        """Physical position of this endpoint under a floorplan."""
        if self.kind is EndpointKind.OP:
            row, col = floorplan.position_of(self.ident)
            return (float(row), float(col))
        if self.kind is EndpointKind.IN_PAD:
            pad = floorplan.fabric.input_pad(self.ident)
        else:
            pad = floorplan.fabric.output_pad(self.ident)
        return (pad.row, pad.col)

    def __repr__(self) -> str:
        return f"{self.kind.value}:{self.ident}"


@dataclass
class ContextTimingGraph:
    """The combinational timing structure of one context.

    Attributes
    ----------
    context:
        Context index.
    ops:
        Op ids executing in this context.
    intra_edges:
        ``(src, dst)`` pairs, both in this context (combinational chains).
    entries:
        ``{op_id: [Endpoint, ...]}`` — register/pad sources feeding each op
        at cycle start (earlier-context producers and input pads).
    exits:
        ``{op_id: [Endpoint, ...]}`` — output pads driven by each op.
    delay_of:
        ``{op_id: PE delay in ns}``.
    """

    context: int
    ops: list[int]
    intra_edges: list[tuple[int, int]] = field(default_factory=list)
    entries: dict[int, list[Endpoint]] = field(default_factory=dict)
    exits: dict[int, list[Endpoint]] = field(default_factory=dict)
    delay_of: dict[int, float] = field(default_factory=dict)

    def intra_preds(self) -> dict[int, list[int]]:
        preds: dict[int, list[int]] = {op: [] for op in self.ops}
        for src, dst in self.intra_edges:
            preds[dst].append(src)
        return preds

    def intra_succs(self) -> dict[int, list[int]]:
        succs: dict[int, list[int]] = {op: [] for op in self.ops}
        for src, dst in self.intra_edges:
            succs[src].append(dst)
        return succs

    def topological_ops(self) -> list[int]:
        """Ops in topological order of the intra-context DAG."""
        order = topological_order(self.ops, self.intra_edges)
        if len(order) != len(self.ops):
            raise TimingError(f"context {self.context} timing graph is cyclic")
        return order


def build_timing_graphs(design: MappedDesign) -> list[ContextTimingGraph]:
    """One :class:`ContextTimingGraph` per context of the design.

    Positions are *not* baked in: the same graphs serve the original and
    every re-mapped floorplan (paths change delay, not structure, because
    re-mapping never moves ops across contexts).
    """
    graphs = [
        ContextTimingGraph(
            context=c,
            ops=[op.op_id for op in design.ops_in_context(c)],
        )
        for c in range(design.num_contexts)
    ]
    for graph in graphs:
        for op_id in graph.ops:
            graph.entries[op_id] = []
            graph.exits[op_id] = []
            graph.delay_of[op_id] = design.ops[op_id].delay_ns

    for src, dst in design.compute_edges:
        src_ctx = design.ops[src].context
        dst_ctx = design.ops[dst].context
        if src_ctx == dst_ctx:
            graphs[dst_ctx].intra_edges.append((src, dst))
        else:
            # Register read: the wire runs from the producer's physical PE.
            graphs[dst_ctx].entries[dst].append(Endpoint.op(src))
    for ordinal, dst in design.input_edges:
        ctx = design.ops[dst].context
        graphs[ctx].entries[dst].append(Endpoint.in_pad(ordinal))
    for src, ordinal in design.output_edges:
        ctx = design.ops[src].context
        graphs[ctx].exits[src].append(Endpoint.out_pad(ordinal))
    return graphs
