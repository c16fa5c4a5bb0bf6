"""Steady-state compact thermal model on the PE grid.

This is the HotSpot substitute: the same block-level abstraction HotSpot's
grid model uses — each PE is a thermal cell with lateral conduction to its
4-neighbours and a vertical conduction path (package + heat sink) to
ambient.  Steady state solves the linear system

``(G_lat_laplacian + G_vert I) T = P + G_vert T_amb``

with scipy sparse LU.  Transient behaviour is irrelevant here because the
aging model consumes long-term-average temperatures.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy import sparse
from scipy.sparse.linalg import splu

from repro.arch.fabric import Fabric
from repro.errors import ThermalError


@dataclass(frozen=True)
class ThermalGridConfig:
    """Conduction constants of the compact model.

    Attributes
    ----------
    g_lateral_w_per_k:
        Conductance between adjacent PE cells.
    g_vertical_w_per_k:
        Conductance from each cell through the package to ambient.
    ambient_k:
        Ambient (heat-sink) temperature in kelvin.
    """

    g_lateral_w_per_k: float = 0.020
    g_vertical_w_per_k: float = 0.008
    ambient_k: float = 318.15  # 45 C case temperature

    def validate(self) -> None:
        if self.g_lateral_w_per_k < 0 or self.g_vertical_w_per_k <= 0:
            raise ThermalError(
                "conductances must be positive (vertical strictly so)"
            )
        if self.ambient_k <= 0:
            raise ThermalError(f"ambient temperature {self.ambient_k} K invalid")


class ThermalGrid:
    """Pre-factorised steady-state solver for one fabric geometry.

    The conduction matrix is LU-factorised **once** at construction
    (SuperLU via :func:`scipy.sparse.linalg.splu`); every :meth:`solve`
    — one per context of a thermal simulation — is then a pair of
    triangular back-substitutions against that shared factorisation.
    """

    def __init__(self, fabric: Fabric, config: ThermalGridConfig | None = None):
        self.fabric = fabric
        self.config = config or ThermalGridConfig()
        self.config.validate()
        self._matrix = self._build_matrix()
        self._lu = splu(self._matrix)

    def _build_matrix(self) -> sparse.csc_matrix:
        n = self.fabric.num_pes
        g_lat = self.config.g_lateral_w_per_k
        g_vert = self.config.g_vertical_w_per_k
        rows: list[int] = []
        cols: list[int] = []
        data: list[float] = []
        for i in range(n):
            neighbors = self.fabric.neighbors(i)
            diagonal = g_vert + g_lat * len(neighbors)
            rows.append(i)
            cols.append(i)
            data.append(diagonal)
            for j in neighbors:
                rows.append(i)
                cols.append(j)
                data.append(-g_lat)
        return sparse.csc_matrix((data, (rows, cols)), shape=(n, n))

    def solve(self, power_w: np.ndarray) -> np.ndarray:
        """Steady-state temperature (K) per PE for a power map (W)."""
        power_w = np.asarray(power_w, dtype=float)
        n = self.fabric.num_pes
        if power_w.shape != (n,):
            raise ThermalError(f"power vector shape {power_w.shape} != ({n},)")
        if np.any(power_w < 0):
            raise ThermalError("negative PE power")
        rhs = power_w + self.config.g_vertical_w_per_k * self.config.ambient_k
        temperatures = self._lu.solve(rhs)
        return np.asarray(temperatures, dtype=float)

    def as_grid(self, per_pe: np.ndarray) -> np.ndarray:
        """Reshape a per-PE vector into the (rows, cols) grid layout."""
        return np.asarray(per_pe, dtype=float).reshape(
            self.fabric.rows, self.fabric.cols
        )
