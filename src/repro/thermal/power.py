"""Per-PE power models feeding the thermal solver.

Power of a PE in a given context is a leakage floor plus a dynamic term
proportional to its duty cycle in that context (the fraction of the clock
period its functional unit is switching — identical to the stress rate of
Section III).  Constants are calibrated so a fully-packed corner of active
PEs develops a hotspot a few kelvin above the fabric average, matching the
magnitude of thermal relief the paper attributes to spreading PE usage.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.arch.fabric import Fabric
from repro.errors import ThermalError


@dataclass(frozen=True)
class PowerModel:
    """Linear duty-to-power map: ``P = leakage + active * duty``.

    Attributes
    ----------
    active_w:
        Dynamic power of a PE at 100% duty, in watts.
    leakage_w:
        Static power of every PE, in watts.
    """

    active_w: float = 0.080
    leakage_w: float = 0.010

    def pe_power(self, duty: float) -> float:
        """Power of one PE at the given duty cycle, in watts."""
        if duty < -1e-9 or duty > 1.0 + 1e-9:
            raise ThermalError(f"duty cycle {duty} outside [0, 1]")
        return self.leakage_w + self.active_w * min(max(duty, 0.0), 1.0)

    def power_map(self, fabric: Fabric, duties: np.ndarray) -> np.ndarray:
        """Vector of per-PE power (W) from a vector of duty cycles."""
        duties = np.asarray(duties, dtype=float)
        if duties.shape != (fabric.num_pes,):
            raise ThermalError(
                f"duty vector shape {duties.shape} != ({fabric.num_pes},)"
            )
        if np.any(duties < -1e-9) or np.any(duties > 1.0 + 1e-9):
            raise ThermalError("duty cycles must lie in [0, 1]")
        return self.leakage_w + self.active_w * np.clip(duties, 0.0, 1.0)
