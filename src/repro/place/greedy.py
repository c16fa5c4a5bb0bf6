"""Constructive aging-unaware placement.

Contexts are placed one after another, each packing greedily toward the
fabric's north-west corner: every op goes to the free PE minimising

``distance to the centroid of its placed producers  +  corner bias``.

The corner bias reproduces the bounding-box-minimising behaviour of the
commercial flow; because each context is packed independently against the
same corner, the same physical PEs are reused in every context — exactly
the accumulated-stress concentration of the paper's Fig. 2(a) top row.
"""

from __future__ import annotations

from repro.arch.context import Floorplan
from repro.arch.fabric import Fabric
from repro.errors import MappingError
from repro.hls.allocate import MappedDesign, topological_order


def _dependency_order(design: MappedDesign, context: int) -> list[int]:
    """Ops of one context in topological order of intra-context edges."""
    ops = [op.op_id for op in design.ops_in_context(context)]
    order = topological_order(ops, design.compute_edges)
    if len(order) != len(ops):
        raise MappingError(f"context {context} has a combinational cycle")
    return order


def greedy_place(
    design: MappedDesign,
    fabric: Fabric,
    corner_bias: float = 0.35,
) -> Floorplan:
    """Place ``design`` on ``fabric`` with the corner-packing heuristic.

    Parameters
    ----------
    corner_bias:
        Weight of the distance-to-corner term relative to the
        connectivity (centroid) term.  Larger values pack tighter and
        reuse fewer distinct PEs.
    """
    if design.max_context_size() > fabric.num_pes:
        raise MappingError(
            f"design needs {design.max_context_size()} PEs per context but the "
            f"fabric has only {fabric.num_pes}"
        )
    floorplan = Floorplan(fabric, design.num_contexts)
    producers: dict[int, list[int]] = {op: [] for op in design.ops}
    for src, dst in design.compute_edges:
        producers[dst].append(src)
    input_producers: dict[int, list[int]] = {op: [] for op in design.ops}
    for ordinal, dst in design.input_edges:
        input_producers[dst].append(ordinal)

    for context in range(design.num_contexts):
        free = set(range(fabric.num_pes))
        for op_id in _dependency_order(design, context):
            target = _preferred_position(
                op_id, floorplan, fabric, producers, input_producers
            )
            best_pe = None
            best_score = None
            for pe_index in free:
                pe = fabric.pe(pe_index)
                to_target = abs(pe.row - target[0]) + abs(pe.col - target[1])
                to_corner = pe.row + pe.col
                score = (to_target + corner_bias * to_corner, pe_index)
                if best_score is None or score < best_score:
                    best_score = score
                    best_pe = pe_index
            assert best_pe is not None  # capacity checked above
            floorplan.bind(op_id, context, best_pe)
            free.discard(best_pe)
    floorplan.validate()
    return floorplan


def _preferred_position(
    op_id: int,
    floorplan: Floorplan,
    fabric: Fabric,
    producers: dict[int, list[int]],
    input_producers: dict[int, list[int]],
) -> tuple[float, float]:
    """Centroid of the op's placed producers (PEs and input pads).

    Falls back to the corner when the op has no placed producers yet.
    """
    rows: list[float] = []
    cols: list[float] = []
    for producer in producers[op_id]:
        if producer in floorplan.pe_of:
            row, col = floorplan.position_of(producer)
            rows.append(float(row))
            cols.append(float(col))
    for ordinal in input_producers[op_id]:
        pad = fabric.input_pad(ordinal)
        rows.append(pad.row)
        cols.append(pad.col)
    if not rows:
        return (0.0, 0.0)
    return (sum(rows) / len(rows), sum(cols) / len(cols))
