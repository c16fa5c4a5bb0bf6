"""Step 1: delay-unaware determination of the ST_target lower bound.

The accumulated-stress budget ``ST_target`` of Eq. (3) needs a starting
value that lower-bounds any feasible delay-aware solution.  The paper
obtains it by executing Eq. (3) **without** the critical-path and
path-delay constraints — making it delay-unaware, hence optimistic — and
looking for "the smallest value of ST_target that yields a valid (albeit
delay-unaware) floorplan solution" between

* ``ST_low`` — the *average* accumulated stress over all PEs of the
  original floorplan (no levelling can beat the average), and
* ``ST_up``  — the *maximum* accumulated stress of the original floorplan
  (the original binding itself is feasible there).

The paper binary-searches that range.  Here the Δ grid
``ST_low + k·Δ`` is scanned upwards with the paper's two-step LP->ILP
solve instead, because the two-step verdict is not monotone in the
target.  The scan starts at the integrality floor: every op sits whole on
one PE, so no integral binding has a lower peak than the heaviest op's
stress, and the grid points below it are skipped unsolved.  ``k`` keeps
counting from ``ST_low``, so the target and ``ilp_bumps`` are those of a
scan from ``k = 0``.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.aging.stress import StressMap
from repro.arch.context import Floorplan
from repro.arch.fabric import Fabric
from repro.core.remap import (
    RemapConfig,
    RemapProblem,
    default_candidates,
    resolved_window,
)
from repro.core.rotation import FrozenPlan
from repro.errors import ModelError
from repro.hls.allocate import MappedDesign
from repro.milp.scipy_backend import ScipyBackend
from repro.obs import counter, get_logger, span

_log = get_logger("core.targets")

#: How far below the integrality floor the Δ-scan still solves: above the
#: tolerances at which HiGHS (primal 1e-7, integrality 1e-6) or the greedy
#: completion (1e-9) could accept the heaviest op on a PE, far below any Δ.
FLOOR_MARGIN_NS = 1e-4


@dataclass
class StressTargetResult:
    """Outcome of the Step-1 search."""

    st_target_ns: float
    st_low_ns: float
    st_up_ns: float
    #: The integrality floor: the heaviest op's stress.
    floor_ns: float = 0.0
    #: Grid points below the floor, skipped without a solve.
    floor_skips: int = 0
    #: Δ grid points passed over from ``ST_low``, skipped ones included.
    ilp_bumps: int = 0
    stats: dict = field(default_factory=dict)


def integrality_floor_ns(design: MappedDesign) -> float:
    """The largest ``stress_ns`` of any op: a lower bound on the peak
    per-PE stress of every integral binding, and never above ``ST_up``,
    since the original floorplan is itself integral."""
    return max(op.stress_ns for op in design.ops.values())


def stress_target_lower_bound(
    design: MappedDesign,
    fabric: Fabric,
    original: Floorplan,
    original_stress: StressMap,
    config: RemapConfig | None = None,
    backend: ScipyBackend | None = None,
) -> StressTargetResult:
    """Scan the delay-unaware ST_target lower bound (Algorithm 1, line 2)."""
    config = config or RemapConfig()
    backend = backend or config.make_backend()
    st_low = original_stress.mean_accumulated_ns
    st_up = original_stress.max_accumulated_ns
    delta_ns = default_delta_ns(original_stress)
    with span("binary_search") as search_span:
        if st_up <= 0:
            raise ModelError(
                "original floorplan carries no stress; nothing to level"
            )
        floor = integrality_floor_ns(design)
        bumps = 0
        # A non-positive Δ never reaches the floor: scan it from ST_low.
        while (
            delta_ns > 0
            and relaxed_target(st_low, delta_ns, bumps)
            < floor - FLOOR_MARGIN_NS
        ):
            bumps += 1
        skips = bumps

        frozen = FrozenPlan(positions={}, orientation_of_context={})
        problem = RemapProblem(
            design,
            fabric,
            frozen,
            default_candidates(
                design, original, frozen, fabric, resolved_window(fabric)
            ),
            monitored=(),  # delay-unaware: no path constraints
            cpd_ns=float("inf"),
            name="step1",
        )
        # One delay-unaware Eq. (3) model serves every bump: each target is
        # an O(stress rows) re-stamp of the ``st_target`` parameter on the
        # cached lowering, not a rebuild.
        build_stats = problem.build(st_up)

        # Find an integral delay-unaware floorplan with the paper's two-step
        # solve, bumping by delta until one exists.
        target = relaxed_target(st_low, delta_ns, bumps)
        while True:
            # The paper's cold two-step pipeline, as in every relax-loop
            # solve; only the relax loop adds the unfixed residual-ILP retry.
            outcome = problem.solve(target, config, backend)
            if outcome.feasible:
                break
            bumps += 1
            target = relaxed_target(st_low, delta_ns, bumps)
            if target > st_up + delta_ns:
                # The original binding is integral and feasible at st_up.
                target = st_up
                break
        result = StressTargetResult(
            st_target_ns=target,
            st_low_ns=st_low,
            st_up_ns=st_up,
            floor_ns=floor,
            floor_skips=skips,
            ilp_bumps=bumps,
            stats={**build_stats, **outcome.stats},
        )
        search_span.set(
            floor_ns=result.floor_ns,
            floor_skips=result.floor_skips,
            ilp_bumps=result.ilp_bumps,
            st_target_ns=result.st_target_ns,
        )
    counter("algorithm1.st_target_floor_skips").inc(result.floor_skips)
    counter("algorithm1.st_target_grid_bumps").inc(result.ilp_bumps)
    _log.debug(
        "ST_target lower bound %.3f ns in [%.3f, %.3f] "
        "(floor %.3f ns, %d of %d grid bumps skipped)",
        result.st_target_ns, result.st_low_ns, result.st_up_ns,
        result.floor_ns, result.floor_skips, result.ilp_bumps,
    )
    return result


def relaxed_target(base_ns: float, delta_ns: float, k: int) -> float:
    """``ST_target`` after ``k`` Delta-relaxations of ``base_ns``, in one
    rounding: accumulating ``+= Delta`` drifts by an ulp per step, and the
    two-step verdict reacts to the last bit."""
    return base_ns + k * delta_ns


def default_delta_ns(original_stress: StressMap) -> float:
    """The relaxation stepsize Delta of Algorithm 1.

    One twentieth of the [ST_low, ST_up] span, floored at a small fraction
    of the clock period so the loop always makes progress.
    """
    span = original_stress.max_accumulated_ns - original_stress.mean_accumulated_ns
    floor = original_stress.clock_period_ns * 0.02
    return max(span / 20.0, floor)
