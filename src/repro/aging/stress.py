"""Stress-time maps: how much each PE works, per context and accumulated.

Section III of the paper: the stress time a PE accumulates in one context
equals the active time of its engaged functional unit within the clock
cycle (unit delay; e.g. ALU 0.87 ns, DMU 3.14 ns), i.e. stress rate x
clock period.  Summing over all contexts of one schedule iteration gives
the *accumulated stress time* — the quantity the MILP levels, and (divided
by the schedule duration) the long-term duty cycle that drives both the
thermal and the NBTI models.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.arch.context import Floorplan
from repro.errors import AgingError
from repro.hls.allocate import MappedDesign
from repro.obs import timer


@dataclass
class StressMap:
    """Per-PE stress times for one floorplan.

    Attributes
    ----------
    per_context_ns:
        ``(contexts, num_pes)`` stress time each PE accrues while each
        context is resident, in ns per schedule iteration.
    clock_period_ns:
        The design clock.
    """

    per_context_ns: np.ndarray
    clock_period_ns: float

    @property
    def num_contexts(self) -> int:
        return int(self.per_context_ns.shape[0])

    @property
    def num_pes(self) -> int:
        return int(self.per_context_ns.shape[1])

    @property
    def accumulated_ns(self) -> np.ndarray:
        """Accumulated stress time per PE over one schedule iteration."""
        return self.per_context_ns.sum(axis=0)

    @property
    def max_accumulated_ns(self) -> float:
        """The paper's headline quantity: the worst PE's accumulated stress."""
        return float(self.accumulated_ns.max(initial=0.0))

    @property
    def mean_accumulated_ns(self) -> float:
        """Average accumulated stress over all PEs (the paper's ST_low)."""
        return float(self.accumulated_ns.mean()) if self.num_pes else 0.0

    @property
    def total_ns(self) -> float:
        """Total stress deposited per schedule iteration (re-mapping invariant)."""
        return float(self.per_context_ns.sum())

    def duty_per_context(self) -> np.ndarray:
        """Per-context duty cycles: stress within the cycle / clock period."""
        return self.per_context_ns / self.clock_period_ns

    def average_duty(self) -> np.ndarray:
        """Long-term duty cycle of each PE over the whole schedule."""
        period = self.num_contexts * self.clock_period_ns
        return self.accumulated_ns / period

    def argmax_pe(self) -> int:
        """Index of the most-stressed PE."""
        return int(np.argmax(self.accumulated_ns))


def compute_stress_map(design: MappedDesign, floorplan: Floorplan) -> StressMap:
    """Build the stress map of a design under a floorplan.

    Raises :class:`AgingError` if any op's stress exceeds the clock period
    (a physically impossible duty > 1) or an op is not placed, naming the
    first such op in ``design.ops`` order.
    """
    # perfbench's eval.busy_s reads this histogram name; keep it.
    with timer("kernels.stress.seconds"):
        per_context = np.zeros((design.num_contexts, floorplan.fabric.num_pes))
        for op in design.ops.values():
            if op.stress_ns > design.clock_period_ns + 1e-9:
                raise AgingError(
                    f"op {op.op_id} stress {op.stress_ns}ns exceeds the clock "
                    f"period {design.clock_period_ns}ns"
                )
            pe_index = floorplan.pe_of.get(op.op_id)
            if pe_index is None:
                raise AgingError(f"op {op.op_id} is not placed")
            per_context[op.context, pe_index] += op.stress_ns
    return StressMap(
        per_context_ns=per_context, clock_period_ns=design.clock_period_ns
    )


def stress_summary(stress: StressMap) -> dict[str, float]:
    """Headline statistics used in reports and tests."""
    accumulated = stress.accumulated_ns
    used = accumulated[accumulated > 0]
    return {
        "max_ns": stress.max_accumulated_ns,
        "mean_ns": stress.mean_accumulated_ns,
        "total_ns": stress.total_ns,
        "used_pes": int((accumulated > 0).sum()),
        "max_over_mean": (
            stress.max_accumulated_ns / stress.mean_accumulated_ns
            if stress.mean_accumulated_ns
            else 0.0
        ),
        "used_mean_ns": float(used.mean()) if used.size else 0.0,
    }
