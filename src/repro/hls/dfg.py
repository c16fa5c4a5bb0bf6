"""Dataflow-graph intermediate representation of a benchmark.

The HLS frontend lowers mini-C into a :class:`DataflowGraph`: a DAG whose
nodes are operations (:class:`~repro.arch.opcodes.OpKind`) and whose edges
carry values.  Compute nodes (ALU/DMU) later occupy PEs; INPUT/OUTPUT/CONST
pseudo nodes become I/O pads or immediate fields and neither occupy nor
stress PEs.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterator, Sequence

from repro.arch.opcodes import OpKind, arity_of, is_compute
from repro.errors import HLSError


@dataclass(frozen=True)
class DfgNode:
    """One operation in the dataflow graph.

    Attributes
    ----------
    node_id:
        Dense integer id (stable across the whole flow — floorplans and
        stress maps key on it).
    kind:
        The operation kind.
    width:
        Operand bitwidth (8/16/32).
    inputs:
        Producer node ids in port order.
    name:
        Optional human-readable label (source variable for I/O nodes).
    value:
        Immediate value for CONST nodes.
    """

    node_id: int
    kind: OpKind
    width: int = 32
    inputs: tuple[int, ...] = ()
    name: str = ""
    value: int | None = None

    @property
    def is_compute(self) -> bool:
        return is_compute(self.kind)


class DataflowGraph:
    """A DAG of operations with dense node ids.

    Node ids are assigned in creation order, so a graph built in program
    order has ids consistent with a topological order of any *straight-line*
    program; :meth:`topological_order` is nevertheless computed properly.
    """

    def __init__(self, name: str = "dfg") -> None:
        self.name = name
        self._nodes: dict[int, DfgNode] = {}
        self._succs: dict[int, list[int]] = {}
        self._next_id = 0

    # -- construction -----------------------------------------------------------
    def add_node(
        self,
        kind: OpKind,
        inputs: Sequence[int] = (),
        width: int = 32,
        name: str = "",
        value: int | None = None,
    ) -> int:
        """Create a node, wiring it to existing producers; returns its id."""
        expected = arity_of(kind)
        if kind not in (OpKind.INPUT, OpKind.CONST) and len(inputs) != expected:
            raise HLSError(
                f"{kind.value} expects {expected} inputs, got {len(inputs)}"
            )
        for producer in inputs:
            if producer not in self._nodes:
                raise HLSError(f"input node {producer} does not exist")
        node_id = self._next_id
        self._next_id += 1
        node = DfgNode(
            node_id=node_id,
            kind=kind,
            width=width,
            inputs=tuple(inputs),
            name=name,
            value=value,
        )
        self._nodes[node_id] = node
        self._succs[node_id] = []
        for producer in inputs:
            self._succs[producer].append(node_id)
        return node_id

    def add_input(self, name: str, width: int = 32) -> int:
        return self.add_node(OpKind.INPUT, (), width=width, name=name)

    def add_const(self, value: int, width: int = 32) -> int:
        return self.add_node(OpKind.CONST, (), width=width, value=value)

    def add_output(self, producer: int, name: str) -> int:
        width = self.node(producer).width
        return self.add_node(OpKind.OUTPUT, (producer,), width=width, name=name)

    # -- queries --------------------------------------------------------------
    def node(self, node_id: int) -> DfgNode:
        try:
            return self._nodes[node_id]
        except KeyError as exc:
            raise HLSError(f"node {node_id} does not exist") from exc

    @property
    def nodes(self) -> dict[int, DfgNode]:
        return dict(self._nodes)

    @property
    def num_nodes(self) -> int:
        return len(self._nodes)

    def successors(self, node_id: int) -> list[int]:
        """Consumer node ids of a node (in wiring order)."""
        self.node(node_id)
        return list(self._succs[node_id])

    def predecessors(self, node_id: int) -> tuple[int, ...]:
        """Producer node ids of a node (port order)."""
        return self.node(node_id).inputs

    def compute_nodes(self) -> list[DfgNode]:
        """Nodes that occupy PEs, in id order."""
        return [n for n in self._nodes.values() if n.is_compute]

    @property
    def num_compute(self) -> int:
        return sum(1 for n in self._nodes.values() if n.is_compute)

    def input_nodes(self) -> list[DfgNode]:
        return [n for n in self._nodes.values() if n.kind is OpKind.INPUT]

    def output_nodes(self) -> list[DfgNode]:
        return [n for n in self._nodes.values() if n.kind is OpKind.OUTPUT]

    def __iter__(self) -> Iterator[DfgNode]:
        return iter(self._nodes.values())

    # -- analysis -------------------------------------------------------------
    def topological_order(self) -> list[int]:
        """Node ids in a deterministic topological order.

        Construction guarantees acyclicity (inputs must pre-exist), but this
        re-verifies and provides the canonical processing order for
        scheduling and evaluation.
        """
        in_degree = {nid: len(n.inputs) for nid, n in self._nodes.items()}
        ready = sorted(nid for nid, deg in in_degree.items() if deg == 0)
        order: list[int] = []
        import heapq

        heapq.heapify(ready)
        while ready:
            nid = heapq.heappop(ready)
            order.append(nid)
            for succ in self._succs[nid]:
                in_degree[succ] -= 1
                if in_degree[succ] == 0:
                    heapq.heappush(ready, succ)
        if len(order) != len(self._nodes):
            raise HLSError("dataflow graph contains a cycle")
        return order

    def evaluate(self, input_values: dict[str, int]) -> dict[str, int]:
        """Execute the DFG on concrete integers (reference semantics).

        Used by tests to prove the frontend's lowering preserves program
        meaning.  Arithmetic wraps to the node width, matching fixed-width
        hardware.
        """
        values: dict[int, int] = {}
        for nid in self.topological_order():
            node = self._nodes[nid]
            args = [values[p] for p in node.inputs]
            values[nid] = _evaluate_node(node, args, input_values)
        return {
            node.name: values[node.node_id]
            for node in self.output_nodes()
        }

    def validate(self) -> None:
        """Structural checks: arities, dangling edges, acyclicity."""
        for node in self._nodes.values():
            if node.kind not in (OpKind.INPUT, OpKind.CONST):
                expected = arity_of(node.kind)
                if len(node.inputs) != expected:
                    raise HLSError(
                        f"node {node.node_id} ({node.kind.value}) has "
                        f"{len(node.inputs)} inputs, expected {expected}"
                    )
            for producer in node.inputs:
                if producer not in self._nodes:
                    raise HLSError(
                        f"node {node.node_id} references missing node {producer}"
                    )
        self.topological_order()

    def __repr__(self) -> str:
        return (
            f"DataflowGraph({self.name!r}, nodes={self.num_nodes}, "
            f"compute={self.num_compute})"
        )


def _truncate(value: int, width: int) -> int:
    """Wrap a Python int to a signed two's-complement value of ``width`` bits."""
    mask = (1 << width) - 1
    value &= mask
    if value >= 1 << (width - 1):
        value -= 1 << width
    return value


def _evaluate_node(node: DfgNode, args: list[int], inputs: dict[str, int]) -> int:
    """Reference semantics for one node (signed, width-wrapped)."""
    kind = node.kind
    if kind is OpKind.INPUT:
        try:
            raw = inputs[node.name]
        except KeyError as exc:
            raise HLSError(f"missing value for input {node.name!r}") from exc
        return _truncate(raw, node.width)
    if kind is OpKind.CONST:
        return _truncate(int(node.value or 0), node.width)
    if kind is OpKind.OUTPUT:
        return args[0]

    a = args[0] if args else 0
    b = args[1] if len(args) > 1 else 0
    if kind is OpKind.ADD:
        result = a + b
    elif kind is OpKind.SUB:
        result = a - b
    elif kind is OpKind.MUL:
        result = a * b
    elif kind is OpKind.DIV:
        result = int(a / b) if b else 0  # C-style truncation; div-by-0 -> 0
    elif kind is OpKind.MOD:
        result = int(abs(a) % abs(b)) * (1 if a >= 0 else -1) if b else 0
    elif kind is OpKind.AND:
        result = a & b
    elif kind is OpKind.OR:
        result = a | b
    elif kind is OpKind.XOR:
        result = a ^ b
    elif kind is OpKind.SHL:
        result = a << (b % node.width)
    elif kind is OpKind.SHR:
        result = a >> (b % node.width)
    elif kind is OpKind.NEG:
        result = -a
    elif kind is OpKind.NOT:
        result = ~a
    elif kind is OpKind.LT:
        result = int(a < b)
    elif kind is OpKind.LE:
        result = int(a <= b)
    elif kind is OpKind.GT:
        result = int(a > b)
    elif kind is OpKind.GE:
        result = int(a >= b)
    elif kind is OpKind.EQ:
        result = int(a == b)
    elif kind is OpKind.NE:
        result = int(a != b)
    elif kind is OpKind.SELECT:
        result = args[1] if args[0] else args[2]
    elif kind is OpKind.LOAD:
        result = a  # register-file passthrough in the reference model
    elif kind is OpKind.STORE:
        result = b
    else:  # pragma: no cover - exhaustive over OpKind
        raise HLSError(f"no semantics for {kind.value}")
    return _truncate(result, node.width)
