"""The CGRRA fabric: a 2-D grid of PEs with buffered Manhattan interconnect.

The paper models inter-PE wires as buffered segments whose delay is linear
in wire length with a simulated proportionality constant, the *unit wire
delay* (Section V-B).  Wire length between PEs is the Manhattan distance
between their grid positions (Eq. 5).  Primary inputs and outputs attach at
pads just outside the west and east fabric edges.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, Sequence

import numpy as np

from repro.arch.pe import PECell
from repro.errors import ArchitectureError
from repro.units import UNIT_WIRE_DELAY_NS


@dataclass(frozen=True)
class Pad:
    """An I/O pad just outside the fabric edge.

    Pads have real-valued grid coordinates so Manhattan distances to PEs are
    well defined; they carry no delay or stress of their own.
    """

    name: str
    row: float
    col: float

    @property
    def position(self) -> tuple[float, float]:
        return (self.row, self.col)


class Fabric:
    """A ``rows x cols`` grid of PEs.

    Parameters
    ----------
    rows, cols:
        Grid dimensions.  The paper evaluates square fabrics 4x4, 8x8 and
        16x16; rectangular fabrics are supported everywhere except the
        critical-path *rotation* optimisation, which requires the 90-degree
        rotations to stay on-grid.
    unit_wire_delay_ns:
        Delay of one grid unit of buffered wire.
    """

    def __init__(
        self,
        rows: int,
        cols: int,
        unit_wire_delay_ns: float = UNIT_WIRE_DELAY_NS,
    ) -> None:
        if rows < 1 or cols < 1:
            raise ArchitectureError(f"fabric dimensions must be positive: {rows}x{cols}")
        self.rows = rows
        self.cols = cols
        self.unit_wire_delay_ns = unit_wire_delay_ns
        self._pes = tuple(
            PECell(index=r * cols + c, row=r, col=c)
            for r in range(rows)
            for c in range(cols)
        )
        #: Row/col coordinate arrays indexed by PE index (used to build the
        #: linear coordinate expressions of the MILP).
        self.row_of = np.array([pe.row for pe in self._pes], dtype=float)
        self.col_of = np.array([pe.col for pe in self._pes], dtype=float)

    # -- basic queries ---------------------------------------------------------
    @property
    def num_pes(self) -> int:
        return self.rows * self.cols

    @property
    def pes(self) -> Sequence[PECell]:
        return self._pes

    def pe(self, index: int) -> PECell:
        """PE by linear index."""
        if not 0 <= index < self.num_pes:
            raise ArchitectureError(f"PE index {index} out of range 0..{self.num_pes - 1}")
        return self._pes[index]

    def pe_at(self, row: int, col: int) -> PECell:
        """PE by grid coordinates."""
        if not (0 <= row < self.rows and 0 <= col < self.cols):
            raise ArchitectureError(
                f"coordinates ({row},{col}) outside {self.rows}x{self.cols} fabric"
            )
        return self._pes[row * self.cols + col]

    def index_at(self, row: int, col: int) -> int:
        """Linear index of the PE at grid coordinates."""
        return self.pe_at(row, col).index

    def __iter__(self) -> Iterator[PECell]:
        return iter(self._pes)

    def __contains__(self, position: tuple[int, int]) -> bool:
        row, col = position
        return 0 <= row < self.rows and 0 <= col < self.cols

    # -- geometry ----------------------------------------------------------------
    def manhattan(self, a: int, b: int) -> int:
        """Manhattan distance between two PEs by index, in grid units."""
        pa, pb = self.pe(a), self.pe(b)
        return abs(pa.row - pb.row) + abs(pa.col - pb.col)

    @staticmethod
    def manhattan_points(a: tuple[float, float], b: tuple[float, float]) -> float:
        """Manhattan distance between arbitrary points (PEs or pads)."""
        return abs(a[0] - b[0]) + abs(a[1] - b[1])

    def wire_delay(self, length: float) -> float:
        """Delay of a buffered wire of ``length`` grid units, in ns (Eq. 4/5)."""
        if length < 0:
            raise ArchitectureError(f"negative wire length {length}")
        return length * self.unit_wire_delay_ns

    def neighbors(self, index: int) -> list[int]:
        """Indices of the 4-connected neighbours of a PE."""
        pe = self.pe(index)
        result = []
        for dr, dc in ((-1, 0), (1, 0), (0, -1), (0, 1)):
            row, col = pe.row + dr, pe.col + dc
            if (row, col) in self:
                result.append(row * self.cols + col)
        return result

    def indices_by_distance(self, origin: int) -> list[int]:
        """All PE indices sorted by Manhattan distance from ``origin``.

        Ties are broken by linear index so the ordering is deterministic —
        important for the candidate-windowing used on large fabrics.
        """
        o = self.pe(origin)
        pes = self._pes
        return sorted(
            range(self.num_pes),
            key=lambda k: (abs(pes[k].row - o.row) + abs(pes[k].col - o.col), k),
        )

    # -- I/O pads ---------------------------------------------------------------
    def input_pad(self, ordinal: int) -> Pad:
        """Pad for the ``ordinal``-th primary input, on the west edge."""
        return Pad(f"in{ordinal}", row=float(ordinal % self.rows), col=-1.0)

    def output_pad(self, ordinal: int) -> Pad:
        """Pad for the ``ordinal``-th primary output, on the east edge."""
        return Pad(f"out{ordinal}", row=float(ordinal % self.rows), col=float(self.cols))

    # -- misc ----------------------------------------------------------------------
    def is_square(self) -> bool:
        return self.rows == self.cols

    def center(self) -> tuple[float, float]:
        """Geometric centre of the grid (used by the rotation transforms)."""
        return ((self.rows - 1) / 2.0, (self.cols - 1) / 2.0)

    def __repr__(self) -> str:
        return f"Fabric({self.rows}x{self.cols}, uwd={self.unit_wire_delay_ns}ns)"
