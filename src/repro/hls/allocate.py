"""Technology mapping: scheduled DFG -> PE-level mapped design.

This is the last frontend step before placement, corresponding to the
"technology mapping onto the PEs" of the paper's Phase 1.  Every compute
node becomes a PE-level operation with its functional unit, delay and
per-execution stress time; dataflow edges are classified into

* **compute edges** (PE -> PE wires, possibly crossing contexts through the
  producer PE's output register),
* **input edges** (I/O pad -> PE), and
* **output edges** (PE -> I/O pad).

CONST producers impose no wires: immediates are baked into the consuming
PE's configuration word.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, field
from typing import Iterable

from repro.arch.opcodes import OpKind, UnitKind, op_delay_ns, unit_of
from repro.errors import HLSError
from repro.hls.dfg import DataflowGraph
from repro.hls.schedule import Schedule
from repro.units import CLOCK_PERIOD_NS


def topological_order(
    ops: Iterable[int], edges: Iterable[tuple[int, int]]
) -> list[int]:
    """``ops`` in Kahn's topological order of ``edges``, the smallest ready
    op id first; edges with an end outside ``ops`` are ignored.

    Ops on a cycle are left out, so a caller detects one by comparing
    lengths and raises its own error.
    """
    remaining = dict.fromkeys(ops, 0)
    succs: dict[int, list[int]] = {op: [] for op in remaining}
    for src, dst in edges:
        if src in remaining and dst in remaining:
            remaining[dst] += 1
            succs[src].append(dst)
    ready = [op for op, count in remaining.items() if count == 0]
    heapq.heapify(ready)
    order: list[int] = []
    while ready:
        op = heapq.heappop(ready)
        order.append(op)
        for succ in succs[op]:
            remaining[succ] -= 1
            if remaining[succ] == 0:
                heapq.heappush(ready, succ)
    return order


@dataclass(frozen=True)
class OpInfo:
    """PE-level characterisation of one mapped operation.

    ``stress_ns`` is the stress time the op deposits on its PE per
    execution of its context: the active time of the engaged functional
    unit within the clock cycle (paper Section III).
    """

    op_id: int
    kind: OpKind
    width: int
    context: int
    unit: UnitKind
    delay_ns: float
    stress_ns: float


@dataclass
class MappedDesign:
    """A technology-mapped, scheduled design ready for placement.

    Attributes
    ----------
    name:
        Benchmark name.
    num_contexts:
        Latency in cycles.
    ops:
        ``{op_id: OpInfo}`` for every compute operation.
    compute_edges:
        ``(producer op_id, consumer op_id)`` wires between PEs.
    input_edges:
        ``(input ordinal, consumer op_id)`` pad-to-PE wires.
    output_edges:
        ``(producer op_id, output ordinal)`` PE-to-pad wires.
    clock_period_ns:
        The design clock.
    source_dfg:
        The originating dataflow graph (None for synthetic designs built
        directly at the mapped level).
    """

    name: str
    num_contexts: int
    ops: dict[int, OpInfo] = field(default_factory=dict)
    compute_edges: list[tuple[int, int]] = field(default_factory=list)
    input_edges: list[tuple[int, int]] = field(default_factory=list)
    output_edges: list[tuple[int, int]] = field(default_factory=list)
    clock_period_ns: float = CLOCK_PERIOD_NS
    source_dfg: DataflowGraph | None = None

    # -- queries ---------------------------------------------------------------
    @property
    def num_ops(self) -> int:
        return len(self.ops)

    def ops_in_context(self, context: int) -> list[OpInfo]:
        return sorted(
            (op for op in self.ops.values() if op.context == context),
            key=lambda op: op.op_id,
        )

    def context_sizes(self) -> list[int]:
        sizes = [0] * self.num_contexts
        for op in self.ops.values():
            sizes[op.context] += 1
        return sizes

    def max_context_size(self) -> int:
        return max(self.context_sizes(), default=0)

    def total_stress_ns(self) -> float:
        """Total stress deposited per schedule iteration — invariant under
        any re-mapping, since re-binding moves stress but never creates or
        destroys it."""
        return sum(op.stress_ns for op in self.ops.values())

    def consumers_of(self, op_id: int) -> list[int]:
        return [dst for src, dst in self.compute_edges if src == op_id]

    def producers_of(self, op_id: int) -> list[int]:
        return [src for src, dst in self.compute_edges if dst == op_id]

    def validate(self) -> None:
        """Structural checks; raises :class:`HLSError`."""
        for op in self.ops.values():
            if not 0 <= op.context < self.num_contexts:
                raise HLSError(f"op {op.op_id} in out-of-range context {op.context}")
            if op.delay_ns <= 0 or op.stress_ns <= 0:
                raise HLSError(f"op {op.op_id} has non-positive delay/stress")
        for src, dst in self.compute_edges:
            if src not in self.ops or dst not in self.ops:
                raise HLSError(f"edge ({src}, {dst}) references unknown ops")
            if self.ops[src].context > self.ops[dst].context:
                raise HLSError(
                    f"edge ({src}, {dst}) goes backwards in time: context "
                    f"{self.ops[src].context} -> {self.ops[dst].context}"
                )
        for _, dst in self.input_edges:
            if dst not in self.ops:
                raise HLSError(f"input edge consumer {dst} unknown")
        for src, _ in self.output_edges:
            if src not in self.ops:
                raise HLSError(f"output edge producer {src} unknown")


def tech_map(schedule: Schedule, name: str | None = None) -> MappedDesign:
    """Map a scheduled DFG onto PE operations.

    Op ids in the result are the DFG node ids of compute nodes, so results
    can be traced back to source.
    """
    dfg = schedule.dfg
    design = MappedDesign(
        name=name or dfg.name,
        num_contexts=schedule.num_contexts,
        source_dfg=dfg,
    )
    input_ordinal: dict[int, int] = {
        node.node_id: i for i, node in enumerate(dfg.input_nodes())
    }
    output_ordinal: dict[int, int] = {
        node.node_id: i for i, node in enumerate(dfg.output_nodes())
    }

    for node in dfg.compute_nodes():
        context = schedule.cycle_of.get(node.node_id)
        if context is None:
            raise HLSError(f"compute node {node.node_id} has no scheduled cycle")
        delay = op_delay_ns(node.kind, node.width)
        design.ops[node.node_id] = OpInfo(
            op_id=node.node_id,
            kind=node.kind,
            width=node.width,
            context=context,
            unit=unit_of(node.kind),
            delay_ns=delay,
            stress_ns=delay,
        )

    seen_compute: set[tuple[int, int]] = set()
    seen_input: set[tuple[int, int]] = set()
    for node in dfg.compute_nodes():
        for pred in node.inputs:
            pred_node = dfg.node(pred)
            if pred_node.kind is OpKind.CONST:
                continue  # immediate, no wire
            if pred_node.kind is OpKind.INPUT:
                edge = (input_ordinal[pred], node.node_id)
                if edge not in seen_input:
                    design.input_edges.append(edge)
                    seen_input.add(edge)
                continue
            edge = (pred, node.node_id)
            if edge not in seen_compute:
                design.compute_edges.append(edge)
                seen_compute.add(edge)
    for node in dfg.output_nodes():
        producer = node.inputs[0]
        producer_node = dfg.node(producer)
        if not producer_node.is_compute:
            continue  # constant/input wired straight to a pad: no PE involved
        design.output_edges.append((producer, output_ordinal[node.node_id]))

    design.validate()
    return design
