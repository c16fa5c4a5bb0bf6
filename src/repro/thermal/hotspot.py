"""HotSpot-style facade: floorplan + stress maps -> per-context thermal maps.

Mirrors the paper's use of HotSpot 6.0 (Section III): "The thermal
simulator inputs the stress time maps and floorplans generated in the
aging-unaware mapping generation phase and generates a thermal map for
each context.  The PE with the maximum accumulated temperature across all
contexts is, then, identified."
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.arch.fabric import Fabric
from repro.errors import ThermalError
from repro.obs import counter, span, timer
from repro.resilience.deadline import current_deadline
from repro.resilience.faults import should_inject
from repro.thermal.grid import ThermalGrid, ThermalGridConfig
from repro.thermal.power import PowerModel


def _require_finite(maps: np.ndarray, what: str) -> np.ndarray:
    """Fail loudly (typed) when a thermal solve diverged.

    An ill-conditioned grid (or an injected ``thermal_divergence`` fault)
    yields NaN/inf temperatures; letting those flow onward corrupts the
    NBTI model silently.  Divergence is a first-class, recoverable outcome:
    Phase 2 catches :class:`ThermalError` and keeps the original floorplan.
    """
    if should_inject("thermal_divergence"):
        maps = np.full_like(maps, np.nan)
    bad = int(np.count_nonzero(~np.isfinite(maps)))
    if bad:
        counter("thermal.divergences").inc()
        raise ThermalError(
            f"thermal solve diverged: {bad} non-finite temperature(s) in {what}"
        )
    return maps


@dataclass
class ThermalReport:
    """Thermal maps for one floorplan.

    Attributes
    ----------
    per_context_k:
        ``(contexts, num_pes)`` steady-state temperature per context.
    accumulated_k:
        Per-PE mean temperature over the schedule (the long-term operating
        temperature that drives NBTI).
    """

    per_context_k: np.ndarray
    accumulated_k: np.ndarray

    @property
    def hottest_pe(self) -> int:
        """PE index with the maximum accumulated temperature."""
        return int(np.argmax(self.accumulated_k))

    @property
    def peak_k(self) -> float:
        return float(np.max(self.accumulated_k))

    def temperature_of(self, pe_index: int) -> float:
        return float(self.accumulated_k[pe_index])


@dataclass
class ThermalSimulator:
    """Steady-state thermal simulation of a multi-context configuration."""

    fabric: Fabric
    grid_config: ThermalGridConfig = field(default_factory=ThermalGridConfig)
    power_model: PowerModel = field(default_factory=PowerModel)

    def __post_init__(self) -> None:
        self._grid = ThermalGrid(self.fabric, self.grid_config)

    def simulate(self, duty_per_context: np.ndarray) -> ThermalReport:
        """Thermal maps from per-context duty cycles.

        Parameters
        ----------
        duty_per_context:
            Array of shape ``(contexts, num_pes)``: the duty cycle of each
            PE while each context is resident (= stress time within the
            cycle / clock period).
        """
        duty_per_context = np.asarray(duty_per_context, dtype=float)
        if duty_per_context.ndim != 2 or duty_per_context.shape[1] != self.fabric.num_pes:
            raise ThermalError(
                f"duty array shape {duty_per_context.shape} incompatible with "
                f"fabric of {self.fabric.num_pes} PEs"
            )
        deadline = current_deadline()
        num_contexts = duty_per_context.shape[0]
        with span("thermal", contexts=num_contexts):
            maps = np.empty_like(duty_per_context)
            # perfbench's eval.busy_s reads this histogram name; keep it.
            with timer("kernels.thermal.seconds"):
                for context in range(num_contexts):
                    deadline.check(f"thermal:context{context}")
                    power = self.power_model.power_map(
                        self.fabric, duty_per_context[context]
                    )
                    maps[context] = self._grid.solve(power)
            counter("thermal.grid_solves").inc(num_contexts)
            maps = _require_finite(maps, "per-context thermal maps")
        return ThermalReport(
            per_context_k=maps,
            accumulated_k=maps.mean(axis=0),
        )

    def simulate_average(self, average_duty: np.ndarray) -> np.ndarray:
        """Single steady-state map from schedule-average duty cycles."""
        current_deadline().check("thermal:average")
        with span("thermal", contexts=1):
            power = self.power_model.power_map(self.fabric, average_duty)
            counter("thermal.grid_solves").inc()
            return _require_finite(self._grid.solve(power), "average thermal map")
