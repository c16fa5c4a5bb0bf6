"""Extension: multi-configuration rotation sets.

The related work the paper builds on ([3], [4], [8]) mitigates aging by
*periodically swapping between several configurations*, each stressing
different resources.  The paper itself produces one aging-aware floorplan;
this module composes its machinery into that classic scheme: a set of K
floorplans, every one individually CPD-safe (same frozen critical paths,
same path constraints), whose *cumulative* stress across the rotation
period is levelled jointly.

Configuration ``i`` is solved with the stress already committed by
configurations ``0..i-1`` added to each PE's budget baseline, and the set
budget grows as ``(i+1) * ST_single`` — so later configurations are pushed
onto PEs the earlier ones spared.  With K configurations the worst PE's
*time-averaged* duty approaches the fabric mean, which is the best any
levelling scheme can do; the marginal gain therefore shrinks with K
(the ablation benchmark measures this saturation).

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
from repro.core.algorithm1 import Algorithm1Config, CPD_EPS
from repro.core.remap import (
    GreedyContext,
    default_candidates,
    frozen_stress_by_pe,
    solve_remap,
)
from repro.core.rotation import freeze_plan, rotate_plan
from repro.core.targets import (
    default_delta_ns,
    relaxed_target,
    stress_target_lower_bound,
)
from repro.errors import BudgetInfeasibleError, FlowError
from repro.hls.allocate import MappedDesign
from repro.thermal.hotspot import ThermalSimulator
from repro.timing.graph import build_timing_graphs
from repro.timing.kpaths import filter_paths
from repro.timing.sta import all_critical_paths, analyze


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
    floorplan flow (in Freeze positions — rotation of frozen paths across
    *configurations* is redundant here, because the movable mass already
    migrates), monitors the same paths, and is verified against the
    original CPD before being admitted.
    """
    if k < 1:
        raise FlowError(f"rotation set size must be >= 1, got {k}")
    config = config or Algorithm1Config()
    backend = config.remap.make_backend()
    import random

    rng = random.Random(config.seed)

    graphs = build_timing_graphs(design)
    report = analyze(design, original, graphs)
    cpd = report.cpd_ns

    critical_by_context: dict[int, list[int]] = {}
    for path in all_critical_paths(design, original, graphs, report):
        bucket = critical_by_context.setdefault(path.context, [])
        for op in path.chain:
            if op not in bucket:
                bucket.append(op)
    if config.mode == "rotate" and fabric.is_square():
        stress_of = {op: info.stress_ns for op, info in design.ops.items()}
        frozen = rotate_plan(
            original, critical_by_context, stress_of, rng,
            samples=config.rotation_samples,
        )
    else:
        frozen = freeze_plan(original, critical_by_context)

    monitored = filter_paths(
        design, original,
        retention=config.retention, max_paths=config.max_paths,
        graphs=graphs, report=report,
    ).non_critical

    original_stress = compute_stress_map(design, original)
    step1 = stress_target_lower_bound(
        design, fabric, original, original_stress,
        config=config.remap, delta_ns=config.delta_ns, backend=backend,
    )
    st_single = step1.st_target_ns
    delta = (
        config.delta_ns if config.delta_ns is not None
        else default_delta_ns(original_stress)
    )
    candidates = default_candidates(
        design, original, frozen, fabric, config.remap.resolved_window(fabric)
    )

    floorplans: list[Floorplan] = []
    per_config_max: list[float] = []
    carryover = np.zeros(fabric.num_pes)
    stats: dict = {"configs": [], "st_single_ns": st_single}

    for index in range(k):
        accepted: Floorplan | None = None
        attempts = 0
        while accepted is None and attempts < config.max_iterations:
            target = relaxed_target(st_single * (index + 1), delta, attempts)
            attempts += 1
            # The budget baseline of configuration `index` is the stress
            # committed by configurations 0..index-1 (carryover) plus this
            # configuration's own frozen ops (added inside the builder).
            try:
                model, variables, _ = _build_with_baseline(
                    design, fabric, frozen, candidates, monitored, cpd,
                    target, carryover, config,
                )
            except BudgetInfeasibleError:
                continue
            baseline = frozen_stress_by_pe(design, frozen)
            for pe in range(fabric.num_pes):
                baseline[pe] = baseline.get(pe, 0.0) + float(carryover[pe])
            greedy_ctx = GreedyContext(
                design=design,
                fabric=fabric,
                frozen_positions=frozen.positions,
                st_target_ns=target,
                frozen_stress_ns=baseline,
            )
            outcome = solve_remap(
                model, variables, config.remap, backend, greedy_ctx
            )
            if not outcome.feasible:
                continue
            candidate = outcome.floorplan(original, frozen)
            if analyze(design, candidate, graphs).cpd_ns <= cpd + CPD_EPS:
                accepted = candidate
        if accepted is None:
            # Could not extend the set; fall back to repeating the last
            # configuration (or the original when none exists yet).
            accepted = floorplans[-1] if floorplans else original
            stats["configs"].append({"index": index, "fell_back": True})
        else:
            stats["configs"].append(
                {"index": index, "fell_back": False, "attempts": attempts,
                 "set_target_ns": target}
            )
        floorplans.append(accepted)
        carryover += compute_stress_map(design, accepted).accumulated_ns
        per_config_max.append(
            float(compute_stress_map(design, accepted).max_accumulated_ns)
        )

    combined = combined_stress_map(design, floorplans)
    simulator = ThermalSimulator(fabric)
    thermal = simulator.simulate(combined.duty_per_context())
    mttf = compute_mttf(combined, thermal.accumulated_k)
    return RotationSet(
        floorplans=floorplans,
        combined_stress=combined,
        mttf=mttf,
        per_config_max_ns=per_config_max,
        cumulative_max_ns=float(carryover.max()),
        stats=stats,
    )


def _build_with_baseline(
    design, fabric, frozen, candidates, monitored, cpd,
    target, carryover, config,
):
    """build_remap_model with an extra per-PE committed-stress baseline."""
    from repro.core.constraints import (
        add_assignment_variables,
        add_exclusivity_constraints,
        add_path_constraints,
        add_stress_constraints,
        build_coordinates,
        collect_endpoints,
    )
    from repro.milp.model import Model

    model = Model("rotation_set")
    variables = add_assignment_variables(model, candidates, design)
    add_exclusivity_constraints(variables, design, fabric.num_pes)
    baseline = frozen_stress_by_pe(design, frozen)
    for pe in range(fabric.num_pes):
        baseline[pe] = baseline.get(pe, 0.0) + float(carryover[pe])
    add_stress_constraints(
        variables, design, fabric.num_pes, target, baseline, fabric=fabric
    )
    endpoints = collect_endpoints(monitored)
    build_coordinates(variables, design, fabric, frozen.positions, endpoints)
    add_path_constraints(variables, design, fabric, monitored, cpd)
    return model, variables, {}
