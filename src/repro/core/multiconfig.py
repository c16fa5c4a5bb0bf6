"""Extension: multi-configuration rotation sets.

The related work the paper builds on ([3], [4], [8]) mitigates aging by
*periodically swapping between several configurations*, each stressing
different resources.  The paper itself produces one aging-aware floorplan;
this module composes its machinery into that classic scheme: a set of K
floorplans, every one individually CPD-safe (same frozen critical paths,
same path constraints), whose *cumulative* stress across the rotation
period is levelled jointly.

Configuration ``i`` runs Algorithm 1's relax loop with the stress that
configurations ``0..i-1`` committed carried into each PE's budget
baseline, from the set budget ``(i+1) * ST_single`` up to ``i+1`` times
Algorithm 1's ceiling, so later configurations are pushed onto PEs the
earlier ones spared.  The time-averaged worst PE is bounded by that
budget over K, but nothing drives it below one configuration's: each
configuration accepts the first floorplan that fits, and ``ST_single``
(Step 1's bound) sits above what K = 1 reaches.  On B19 (4x4) the worst
PE reads 5.405 ns for K = 1, 5.469 ns for K = 2 and 5.485 ns for K = 3
(EXPERIMENTS.md, X1).

The deployment model matches [8]: the runtime swaps configurations slowly
(hours), so thermal steady state applies per configuration and the NBTI
stress accumulates as the time-average across the set.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.aging.mttf import MttfReport, compute_mttf
from repro.aging.stress import StressMap, compute_stress_map
from repro.arch.context import Floorplan
from repro.arch.fabric import Fabric
from repro.core.algorithm1 import Algorithm1Config, RelaxLoop, prepare_phase2
from repro.errors import (
    CertificationError,
    DeadlineExceededError,
    FlowError,
    SolverError,
)
from repro.hls.allocate import MappedDesign
from repro.thermal.hotspot import ThermalSimulator


@dataclass
class RotationSet:
    """K aging-aware floorplans plus their joint lifetime evaluation."""

    floorplans: list[Floorplan]
    combined_stress: StressMap            # time-averaged over the set
    mttf: MttfReport
    per_config_max_ns: list[float]
    cumulative_max_ns: float
    stats: dict = field(default_factory=dict)

    @property
    def size(self) -> int:
        return len(self.floorplans)


def combined_stress_map(
    design: MappedDesign, floorplans: list[Floorplan]
) -> StressMap:
    """Time-averaged stress map across a rotation set.

    Each configuration is resident for an equal share of the period, so
    the average per-context stress is the mean over configurations.
    """
    if not floorplans:
        raise FlowError("rotation set is empty")
    maps = [compute_stress_map(design, fp) for fp in floorplans]
    mean = np.mean([m.per_context_ns for m in maps], axis=0)
    return StressMap(per_context_ns=mean, clock_period_ns=design.clock_period_ns)


def build_rotation_set(
    design: MappedDesign,
    fabric: Fabric,
    original: Floorplan,
    k: int = 2,
    config: Algorithm1Config | None = None,
) -> RotationSet:
    """Generate K jointly-levelled, individually CPD-safe floorplans.

    Every configuration freezes the same critical paths as the single-
    floorplan flow (rotated in Rotate mode, in place in Freeze mode),
    monitors the same paths, and passes Algorithm 1's acceptance gate
    (full STA against the original CPD, then certification) before being
    admitted.  A configuration whose relax loop finds no floorplan repeats
    the previous one (the original floorplan for the first).
    """
    if k < 1:
        raise FlowError(f"rotation set size must be >= 1, got {k}")
    config = config or Algorithm1Config()
    backend = config.remap.make_backend()
    inputs = prepare_phase2(design, fabric, original, config)
    st_single = inputs.step1(config, backend).st_target_ns

    floorplans: list[Floorplan] = []
    per_config_max: list[float] = []
    carried = np.zeros(fabric.num_pes)
    stats: dict = {"configs": [], "st_single_ns": st_single}

    for index in range(k):
        # Configuration `index` starts from the stress that configurations
        # 0..index-1 committed, under a set budget of (index+1) * ST_single.
        loop = RelaxLoop(
            inputs, inputs.problem(dict(enumerate(carried.tolist()))),
            config, backend,
        )
        try:
            accepted = loop.run(
                st_single * (index + 1), inputs.st_ceiling_ns * (index + 1)
            )
        except (SolverError, DeadlineExceededError, CertificationError):
            accepted = None
        record = {
            "index": index,
            "fell_back": accepted is None,
            "iterations": loop.iterations,
            "rows_added": loop.stats.lazy_path_rows,
        }
        if accepted is None:
            accepted = floorplans[-1] if floorplans else original
        else:
            record["set_target_ns"] = loop.st_target_ns
        stats["configs"].append(record)
        floorplans.append(accepted)
        stress = compute_stress_map(design, accepted)
        carried += stress.accumulated_ns
        per_config_max.append(float(stress.max_accumulated_ns))

    combined = combined_stress_map(design, floorplans)
    simulator = ThermalSimulator(fabric)
    thermal = simulator.simulate(combined.duty_per_context())
    mttf = compute_mttf(combined, thermal.accumulated_k)
    return RotationSet(
        floorplans=floorplans,
        combined_stress=combined,
        mttf=mttf,
        per_config_max_ns=per_config_max,
        cumulative_max_ns=float(carried.max()),
        stats=stats,
    )
