"""Placement cost terms: bounding box and Manhattan wirelength.

The paper describes Musketeer's objective as "minimiz[ing] the bounding box
area of the used PEs while meeting the specified timing constraints"
(Phase 1).  These terms measure that objective; the annealer prices its
moves with the same formulas, incrementally.  The important emergent
behaviour is that *every context independently packs into the same compact
corner region*, concentrating stress on the same PEs — the pathology the
aging-aware re-mapper corrects.
"""

from __future__ import annotations

from typing import Iterable, Sequence


def bounding_box(positions: Iterable[tuple[float, float]]) -> tuple[float, float, float, float]:
    """(min_row, min_col, max_row, max_col) of a set of positions."""
    rows: list[float] = []
    cols: list[float] = []
    for row, col in positions:
        rows.append(row)
        cols.append(col)
    if not rows:
        return (0.0, 0.0, 0.0, 0.0)
    return (min(rows), min(cols), max(rows), max(cols))


def bounding_box_area(positions: Iterable[tuple[float, float]]) -> float:
    """Area (in PE cells) of the bounding box enclosing ``positions``.

    Empty input has zero area; a single PE occupies one cell.
    """
    positions = list(positions)
    if not positions:
        return 0.0
    min_r, min_c, max_r, max_c = bounding_box(positions)
    return (max_r - min_r + 1.0) * (max_c - min_c + 1.0)


def wirelength(
    edges: Sequence[tuple[tuple[float, float], tuple[float, float]]],
) -> float:
    """Total Manhattan wirelength over point-to-point edges."""
    return sum(
        abs(a[0] - b[0]) + abs(a[1] - b[1])
        for a, b in edges
    )
