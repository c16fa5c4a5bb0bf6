"""Step 1: delay-unaware determination of the ST_target lower bound.

The accumulated-stress budget ``ST_target`` of Eq. (3) needs a starting
value that lower-bounds any feasible delay-aware solution.  The paper
obtains it by executing Eq. (3) **without** the critical-path and
path-delay constraints — making it delay-unaware, hence optimistic — and
binary-searching ``ST_target`` between

* ``ST_low`` — the *average* accumulated stress over all PEs of the
  original floorplan (no levelling can beat the average), and
* ``ST_up``  — the *maximum* accumulated stress of the original floorplan
  (the original binding itself is feasible there).

The bisection tests feasibility on the LP relaxation (cheap and optimistic,
hence still a lower bound); the returned target is then verified with the
paper's two-step LP->ILP solve and nudged up by ``delta`` until an integral
delay-unaware floorplan exists — "the smallest value of ST_target that
yields a valid (albeit delay-unaware) floorplan solution".
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.aging.stress import StressMap
from repro.arch.context import Floorplan
from repro.arch.fabric import Fabric
from repro.core.remap import (
    GreedyContext,
    RemapConfig,
    build_remap_model,
    default_candidates,
    require_not_error,
    restamp_remap_model,
    solve_remap,
)
from repro.core.rotation import FrozenPlan
from repro.errors import ModelError
from repro.hls.allocate import MappedDesign
from repro.milp.scipy_backend import ScipyBackend
from repro.obs import counter, get_logger, span

_log = get_logger("core.targets")


@dataclass
class StressTargetResult:
    """Outcome of the Step-1 search."""

    st_target_ns: float
    st_low_ns: float
    st_up_ns: float
    bisection_steps: int = 0
    ilp_bumps: int = 0
    #: Every LP feasibility probe of the bisection, in order:
    #: ``[{"st_target_ns": ..., "feasible": ...}, ...]``.
    probes: list[dict] = field(default_factory=list)
    stats: dict = field(default_factory=dict)


def _empty_frozen() -> FrozenPlan:
    return FrozenPlan(positions={}, orientation_of_context={})


def stress_target_lower_bound(
    design: MappedDesign,
    fabric: Fabric,
    original: Floorplan,
    original_stress: StressMap,
    config: RemapConfig | None = None,
    delta_ns: float | None = None,
    tolerance_ns: float | None = None,
    backend: ScipyBackend | None = None,
) -> StressTargetResult:
    """Binary-search the delay-unaware ST_target lower bound (Algorithm 1, line 2)."""
    with span("binary_search") as search_span:
        result = _stress_target_lower_bound(
            design, fabric, original, original_stress, config,
            delta_ns, tolerance_ns, backend,
        )
        search_span.set(
            bisection_steps=result.bisection_steps,
            ilp_bumps=result.ilp_bumps,
            st_target_ns=result.st_target_ns,
        )
    counter("algorithm1.bisection_steps").inc(result.bisection_steps)
    counter("algorithm1.st_target_ilp_bumps").inc(result.ilp_bumps)
    _log.debug(
        "ST_target lower bound %.3f ns in [%.3f, %.3f] "
        "(%d bisection steps, %d ILP bumps)",
        result.st_target_ns, result.st_low_ns, result.st_up_ns,
        result.bisection_steps, result.ilp_bumps,
    )
    return result


def _stress_target_lower_bound(
    design: MappedDesign,
    fabric: Fabric,
    original: Floorplan,
    original_stress: StressMap,
    config: RemapConfig | None = None,
    delta_ns: float | None = None,
    tolerance_ns: float | None = None,
    backend: ScipyBackend | None = None,
) -> StressTargetResult:
    config = config or RemapConfig()
    backend = backend or config.make_backend()
    st_low = original_stress.mean_accumulated_ns
    st_up = original_stress.max_accumulated_ns
    if st_up <= 0:
        raise ModelError("original floorplan carries no stress; nothing to level")
    if delta_ns is None:
        delta_ns = default_delta_ns(original_stress)
    if tolerance_ns is None:
        tolerance_ns = max(delta_ns / 2.0, 1e-3)

    frozen = _empty_frozen()
    candidates = default_candidates(
        design, original, frozen, fabric, config.resolved_window(fabric)
    )
    probes: list[dict] = []

    # One delay-unaware Eq. (3) model serves every bisection probe and
    # every ILP bump: each target is an O(stress rows) re-stamp of the
    # ``st_target`` parameter on the cached lowering, not a rebuild.
    model, variables, build_stats = build_remap_model(
        design,
        fabric,
        frozen,
        candidates,
        monitored_paths=(),  # delay-unaware: no path constraints
        cpd_ns=float("inf"),
        st_target_ns=st_up,
        name="step1",
    )

    def lp_feasible(target: float) -> bool:
        with span("lp_probe", st_target_ns=target) as probe_span:
            restamp_remap_model(model, target)
            relaxation = model.relaxed()
            solution = relaxation.solve(backend)
            relaxation.restore_types()
            # ERROR/UNBOUNDED is a solver failure, not infeasibility —
            # raise so the ladder engages instead of biasing the bisection.
            require_not_error(solution)
            probe_span.set(feasible=solution.status.has_solution)
        probes.append(
            {"st_target_ns": target, "feasible": solution.status.has_solution}
        )
        return solution.status.has_solution

    low, high = st_low, st_up
    steps = 0
    # The original binding is feasible at st_up, so `high` is always a
    # certified-feasible upper end; `low` may or may not be feasible.
    if lp_feasible(low):
        high = low
    else:
        while high - low > tolerance_ns:
            steps += 1
            mid = (low + high) / 2.0
            if lp_feasible(mid):
                high = mid
            else:
                low = mid

    # Verify integrality with the paper's two-step solve, nudging up by
    # delta until a valid delay-unaware floorplan exists.
    bumps = 0
    target = relaxed_target(high, delta_ns, bumps)
    stats: dict = {}
    while True:
        restamp_remap_model(model, target)
        greedy_ctx = GreedyContext(
            design=design,
            fabric=fabric,
            frozen_positions={},
            st_target_ns=target,
            frozen_stress_ns={},
        )
        # Deliberately no warm hints here: a warm-fixing trial can certify
        # targets the cold two-step pipeline rejects, and a tighter
        # ST_target makes the *downstream* Eq. (3) model harder — Step 1's
        # verdict must keep the cold pipeline's semantics.  Warm fixing is
        # confined to Algorithm 1's relax loop, where a hit accepts a
        # floorplan outright (gated by full STA) and is pure upside.
        outcome = solve_remap(model, variables, config, backend, greedy_ctx)
        stats = {**build_stats, **outcome.stats}
        if outcome.feasible:
            break
        bumps += 1
        target = relaxed_target(high, delta_ns, bumps)
        if target > st_up + delta_ns:
            # The original binding is integral and feasible at st_up; use it.
            target = st_up
            break
    return StressTargetResult(
        st_target_ns=target,
        st_low_ns=st_low,
        st_up_ns=st_up,
        bisection_steps=steps,
        ilp_bumps=bumps,
        probes=probes,
        stats=stats,
    )


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
