"""Algorithm 1: the aging-aware re-mapping design flow.

The outer loop of the paper:

1. **Step 1** — delay-unaware binary search for the ST_target lower bound
   (:mod:`repro.core.targets`);
2. **Step 2.1** — critical-path constraint generation: freeze each
   context's critical paths, optionally rotating them among the 8 fabric
   symmetries to minimise overlap (:mod:`repro.core.rotation`);
3. **Step 2.2** — path-delay constraint generation: the within-20%-of-CPD
   filter (:mod:`repro.timing.kpaths`);
4. **Step 2.3** — repeat: solve Eq. (3), the paper's feasibility model,
   two-step LP->ILP; on infeasibility relax ``ST_target`` by ``Delta``.
   When the floorplan's *measured* CPD exceeds the original (an
   unmonitored path grew), add every path over the original CPD to the
   live model as an Eq. (5) row and re-solve at the same ``ST_target``:
   the path filter made lazy.  Such a row never cuts off a valid answer.

If no valid floorplan is found within the iteration budget the flow falls
back to the original floorplan (MTTF increase 1.0x) and reports it — the
paper's guarantee of *no delay degradation* is therefore unconditional.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field

from repro.aging.stress import StressMap, compute_stress_map
from repro.arch.checks import check_frozen_ops
from repro.arch.context import Floorplan
from repro.arch.fabric import Fabric
from repro.core.remap import (
    GreedyContext,
    RemapConfig,
    WarmStart,
    add_lazy_path_rows,
    build_remap_model,
    default_candidates,
    frozen_stress_by_pe,
    restamp_remap_model,
    solve_remap,
)
from repro.core.rotation import FrozenPlan, freeze_plan, rotate_plan
from repro.core.targets import (
    StressTargetResult,
    default_delta_ns,
    relaxed_target,
    stress_target_lower_bound,
)
from repro.errors import (
    BudgetInfeasibleError,
    CertificationError,
    DeadlineExceededError,
    FlowError,
    SolverError,
)
from repro.explain import explain_enabled
from repro.hls.allocate import MappedDesign
from repro.milp.scipy_backend import ScipyBackend
from repro.milp.status import SolveStatus
from repro.obs import counter, event, get_logger, span
from repro.obs.solverstats import Algorithm1Stats
from repro.resilience.deadline import Deadline, current_deadline, deadline_scope
from repro.resilience.degrade import greedy_stress_level_remap
from repro.timing.graph import build_timing_graphs
from repro.timing.kpaths import (
    DEFAULT_MAX_PATHS,
    DEFAULT_RETENTION,
    MonitoredPath,
    enumerate_context_paths,
    filter_paths,
)
from repro.timing.sta import all_critical_paths, analyze

#: CPD comparisons use this guard band (ns) against float noise.
CPD_EPS = 1e-6

_log = get_logger("core.algorithm1")


@dataclass
class Algorithm1Config:
    """All knobs of the aging-aware re-mapping flow."""

    #: "rotate" (full method) or "freeze" (Table I's ablation column).
    mode: str = "rotate"
    #: Path filter: retain paths within this fraction of the CPD.
    retention: float = DEFAULT_RETENTION
    #: Cap on the filter's monitored paths, and on the violated paths one
    #: CPD-violation round adds as lazy rows.
    max_paths: int = DEFAULT_MAX_PATHS
    #: ST_target relaxation stepsize; None derives the default from the
    #: original stress map (span / 20).
    delta_ns: float | None = None
    #: Relax-loop iterations, row-generation rounds included.
    max_iterations: int = 25
    #: Random draws of the rotation rule evaluated for minimum overlap
    #: (1 = the paper's single constrained-random draw).
    rotation_samples: int = 8
    seed: int = 2020
    remap: RemapConfig = field(default_factory=RemapConfig)
    #: Allow ST_target to exceed ST_up by this factor before giving up.
    st_ceiling_factor: float = 1.5
    #: Independently certify every accepted floorplan (:mod:`repro.verify`):
    #: row-by-row feasibility against the uncompiled model plus
    #: first-principles stress/slot/frozen/CPD re-checks.  A failure
    #: triggers one cold-rebuild re-solve (catching silent restamp or
    #: warm-start corruption) before the degradation ladder engages.
    certify: bool = True


@dataclass
class RemapResult:
    """Everything Algorithm 1 produced."""

    floorplan: Floorplan
    st_target_ns: float
    original_cpd_ns: float
    final_cpd_ns: float
    iterations: int
    fell_back: bool
    frozen: FrozenPlan
    step1: StressTargetResult
    monitored_count: int
    critical_op_count: int
    stats: dict = field(default_factory=dict)
    elapsed_s: float = 0.0
    #: Degradation-ladder level that produced ``floorplan``: one of
    #: :data:`repro.resilience.DEGRADATION_LEVELS` ("none", "incumbent",
    #: "greedy", "original").
    degradation: str = "none"
    #: Outer-loop convergence record: Step-1 binary-search effort, the
    #: ST_target/Delta relaxation trajectory, per-iteration CPD verdicts
    #: and per-solve aggregates (also mirrored into ``stats["algorithm1"]``
    #: and the ``algorithm1.stats`` trace event).
    alg1: Algorithm1Stats = field(default_factory=Algorithm1Stats)
    #: Independent-certification verdict for ``floorplan``: ``True`` when
    #: the accepted MILP result passed :mod:`repro.verify`; ``None`` when
    #: certification was disabled or the floorplan came from a non-MILP
    #: ladder rung (greedy/original — nothing model-level to certify).  A
    #: certification failure never returns ``False``: it raises
    #: :class:`~repro.errors.CertificationError` internally and degrades,
    #: with the reason recorded in ``stats["degradation_reason"]``.
    certified: bool | None = None


def run_algorithm1(
    design: MappedDesign,
    fabric: Fabric,
    original: Floorplan,
    config: Algorithm1Config | None = None,
    original_stress: StressMap | None = None,
    backend: ScipyBackend | None = None,
    deadline: Deadline | None = None,
) -> RemapResult:
    """Execute the full aging-aware re-mapping flow on one design.

    Solver crashes, timeouts without an incumbent and an expiring
    ``deadline`` never propagate: the degradation ladder (incumbent →
    greedy stress-levelling → original floorplan) always returns a valid,
    CPD-preserving :class:`RemapResult`, with the level recorded on
    ``degradation``.
    """
    config = config or Algorithm1Config()
    if config.mode not in ("rotate", "freeze"):
        raise FlowError(f"unknown mode {config.mode!r}")
    backend = backend or config.remap.make_backend()
    with deadline_scope(deadline):
        with span("algorithm1", mode=config.mode) as alg_span:
            result = _run_algorithm1(
                design, fabric, original, config, original_stress, backend
            )
            result.elapsed_s = alg_span.duration_s
            alg_span.set(
                iterations=result.iterations,
                fell_back=result.fell_back,
                st_target_ns=result.st_target_ns,
                degradation=result.degradation,
            )
    _log.info(
        "%s: %d iteration(s), ST_target=%.3f ns, fell_back=%s, "
        "degradation=%s (%.2fs)",
        design.name,
        result.iterations,
        result.st_target_ns,
        result.fell_back,
        result.degradation,
        result.elapsed_s,
    )
    return result


def _run_algorithm1(
    design: MappedDesign,
    fabric: Fabric,
    original: Floorplan,
    config: Algorithm1Config,
    original_stress: StressMap | None,
    backend: ScipyBackend,
) -> RemapResult:
    rng = random.Random(config.seed)

    # Graph (and kernel-lowering) construction is structure work, not
    # timing analysis — keep it out of the sta span.
    graphs = build_timing_graphs(design)
    with span("sta"):
        report = analyze(design, original, graphs)
    cpd_orig = report.cpd_ns

    # -- Step 2.1: critical-path constraint generation -----------------------
    with span("critical_paths"):
        critical = all_critical_paths(design, original, graphs, report)
        critical_by_context: dict[int, list[int]] = {}
        for path in critical:
            bucket = critical_by_context.setdefault(path.context, [])
            for op in path.chain:
                if op not in bucket:
                    bucket.append(op)
        if config.mode == "freeze" or not fabric.is_square():
            frozen = freeze_plan(original, critical_by_context)
        else:
            stress_of = {op: info.stress_ns for op, info in design.ops.items()}
            frozen = rotate_plan(
                original,
                critical_by_context,
                stress_of,
                rng,
                samples=config.rotation_samples,
            )

    # -- Step 2.2: path-delay constraint generation ---------------------------
    with span("path_filter"):
        filtered = filter_paths(
            design,
            original,
            retention=config.retention,
            max_paths=config.max_paths,
            graphs=graphs,
            report=report,
        )
    monitored = filtered.non_critical

    # -- Step 1: ST_target lower bound -----------------------------------------
    original_stress = original_stress or compute_stress_map(design, original)
    delta = (
        config.delta_ns
        if config.delta_ns is not None
        else default_delta_ns(original_stress)
    )
    st_ceiling = original_stress.max_accumulated_ns * config.st_ceiling_factor

    # -- Step 2.3: solve / relax loop, wrapped by the degradation ladder ------
    deadline = current_deadline()
    relaxations = counter("algorithm1.st_target_relaxations")
    step1: StressTargetResult | None = None
    st_target = original_stress.max_accumulated_ns
    iterations = 0
    iteration_log: list[dict] = []
    explanations: list[dict] = []
    model = variables = None
    best: Floorplan | None = None
    final_cpd = cpd_orig
    degradation = "none"
    certified: bool | None = None
    failure: Exception | None = None
    alg1 = Algorithm1Stats(
        st_low_ns=original_stress.mean_accumulated_ns,
        st_up_ns=original_stress.max_accumulated_ns,
        delta_ns=delta,
    )
    try:
        step1 = stress_target_lower_bound(
            design,
            fabric,
            original,
            original_stress,
            config=config.remap,
            delta_ns=config.delta_ns,
            backend=backend,
        )
        alg1.bisection_steps = step1.bisection_steps
        alg1.ilp_bumps = step1.ilp_bumps
        _absorb_solve_stats(alg1, step1.stats)
        candidates = default_candidates(
            design, original, frozen, fabric, config.remap.resolved_window(fabric)
        )
        st_base = st_target = step1.st_target_ns
        relaxed = 0  # Delta-relaxations; a row round re-solves at the same count
        # The Eq. (3) model is assembled once and re-stamped with each
        # relaxed ST_target; warm hints (previous pre-mapping/solution)
        # ride along between iterations of the same model.
        warm: WarmStart | None = None
        # Violated paths added as lazy rows, per adding iteration: a cold
        # rebuild of the model re-adds them.
        lazy_rows: list[tuple[int, list[MonitoredPath]]] = []
        while iterations < config.max_iterations and st_target <= st_ceiling:
            deadline.check("algorithm1:iteration")
            iterations += 1
            counter("algorithm1.iterations").inc()
            with span(
                "iteration", index=iterations, st_target_ns=st_target
            ) as iter_span:
                entry, model, variables, warm = _run_iteration(
                    design, fabric, original, config, backend, frozen,
                    candidates, monitored, cpd_orig, st_target, iterations, graphs,
                    lazy_rows, model=model, variables=variables, warm=warm,
                )
                iteration_log.append(entry)
                iter_span.set(result=entry["result"])
            if warm is not None:
                warm.reason = entry["result"]
            alg1.record_iteration(
                st_target, entry["result"], entry.get("rows_added", 0)
            )
            alg1.certifications += entry.get("certifications", 0)
            alg1.cert_failures += entry.get("cert_failures", 0)
            alg1.cert_cold_rebuilds += int(entry.get("cert_cold_rebuild", False))
            _absorb_solve_stats(alg1, entry)
            if entry["result"] != "accepted" and explain_enabled():
                explanations.append(
                    _explain_iteration(design.name, entry, cpd_orig)
                )
            _log.debug(
                "%s: iteration %d at ST_target=%.3f ns -> %s",
                design.name, iterations, st_target, entry["result"],
            )
            if entry["result"] == "accepted":
                best = entry.pop("floorplan")
                final_cpd = entry["new_cpd_ns"]
                certified = entry.get("certified")
                if _used_incumbent(entry):
                    # Accepted, but a solver limit was hit on the way: the
                    # floorplan came from a best-so-far incumbent, not a
                    # proven/gap-certified solve.
                    degradation = "incumbent"
                break
            if _resolve_at_same_target(entry):
                alg1.row_rounds += 1
                continue
            relaxations.inc()
            relaxed += 1
            st_target = relaxed_target(st_base, delta, relaxed)
    except (SolverError, DeadlineExceededError, CertificationError) as exc:
        failure = exc
        if isinstance(exc, CertificationError):
            # The iteration's counters were lost with its entry; record the
            # terminal failure on the run-level aggregates directly.
            alg1.cert_failures += 1

    if best is None and explain_enabled():
        # The relax loop ended without an accepted floorplan: record the
        # terminal root cause (and, when the last verdict was infeasible,
        # extract an IIS from the still-stamped model) before the
        # degradation ladder overwrites the outcome.
        explanations.append(
            _explain_terminal(
                design.name, alg1, failure, iterations, config, st_target,
                st_ceiling, model,
            )
        )

    if failure is not None:
        # Ladder rung 2: solver path is gone (crash, timeout without
        # incumbent, or the budget expired) — try the solver-free greedy
        # stress-levelling re-map, gated by the same full-STA CPD check.
        counter("algorithm1.degradations").inc()
        _log.warning(
            "%s: solver path failed (%s: %s); trying greedy "
            "stress-levelling fallback",
            design.name, type(failure).__name__, failure,
        )
        # The greedy rung pins critical-path ops at their *original* PEs
        # (freeze semantics) regardless of mode: the descent starts from
        # the original floorplan, and rotation is meaningful only for the
        # MILP path that re-solves around the rotated pins.
        pinned = {op: original.pe_of[op] for op in frozen.positions}
        candidate = greedy_stress_level_remap(
            design, fabric, original, pinned, graphs=graphs
        )
        if candidate is not None:
            check_frozen_ops(original, candidate, pinned)
            with span("sta_verify"):
                fallback_report = analyze(design, candidate, graphs)
            if fallback_report.cpd_ns <= cpd_orig + CPD_EPS:
                best = candidate
                final_cpd = fallback_report.cpd_ns
                degradation = "greedy"
                st_target = compute_stress_map(
                    design, candidate
                ).max_accumulated_ns
        event(
            "algorithm1.degraded",
            benchmark=design.name,
            level=degradation if best is not None else "original",
            reason=type(failure).__name__,
            detail=str(failure),
        )

    fell_back = best is None
    if fell_back:
        # Ladder rung 3 (also the paper's unconditional fallback when the
        # relax loop exhausts its budget): keep the original floorplan.
        counter("algorithm1.fallbacks").inc()
        event("algorithm1.fallback", benchmark=design.name, iterations=iterations)
        best = original
        final_cpd = cpd_orig
        st_target = original_stress.max_accumulated_ns
        degradation = "original"
    if step1 is None:
        step1 = StressTargetResult(
            st_target_ns=st_target,
            st_low_ns=original_stress.mean_accumulated_ns,
            st_up_ns=original_stress.max_accumulated_ns,
            stats={"skipped": "degraded before Step 1 completed"},
        )
    snapshot = getattr(backend, "portfolio_snapshot", None)
    if snapshot is not None:
        # Racing backend: persist breaker states, per-lane win counts and
        # the race log onto the run's stats, so demotions survive into
        # saved records and `repro explain`.
        alg1.portfolio = snapshot()
    alg1.final_st_target_ns = st_target
    event(
        "algorithm1.stats",
        benchmark=design.name,
        degradation=degradation,
        **alg1.to_dict(),
    )
    stats = {
        "iterations": iteration_log,
        "path_filter_truncated": filtered.truncated,
        "algorithm1": alg1.to_dict(),
        "explanations": explanations,
    }
    if failure is not None:
        stats["degradation_reason"] = f"{type(failure).__name__}: {failure}"
    return RemapResult(
        floorplan=best,
        st_target_ns=st_target,
        original_cpd_ns=cpd_orig,
        final_cpd_ns=final_cpd,
        iterations=iterations,
        fell_back=fell_back,
        frozen=frozen,
        step1=step1,
        monitored_count=len(monitored),
        critical_op_count=len(frozen.positions),
        stats=stats,
        degradation=degradation,
        alg1=alg1,
        certified=certified,
    )


#: Per-solve :class:`SolveStats` keys of an iteration (or Step-1) entry.
_SOLVE_KEYS = ("lp_stats", "ilp_stats", "retry_stats", "solve_stats")


def _absorb_solve_stats(alg1: Algorithm1Stats, entry: dict) -> None:
    """Fold every per-solve :class:`SolveStats` dict found in an iteration
    (or Step-1) stats entry into the outer-loop aggregates."""
    for key in _SOLVE_KEYS:
        alg1.absorb_solve(entry.get(key))


def _used_incumbent(entry: dict) -> bool:
    """Whether an accepted iteration leaned on a limit-hit incumbent.

    ``SolveStatus.FEASIBLE`` means "incumbent exists, optimality unproven"
    (node/time limit) for both backends; an accepted floorplan built from
    one is sound (the STA gate passed) but flagged as degradation level
    ``incumbent`` so sweeps show *why* a result may be weaker.
    """
    return SolveStatus.FEASIBLE.value in (
        entry.get("status"), entry.get("ilp_status"), entry.get("retry_status")
    )


def _solve_limit_reasons(entry) -> dict[str, str]:
    """Every non-empty ``limit_reason`` across an iteration's solve stats."""
    reasons: dict[str, str] = {}
    for key in _SOLVE_KEYS:
        stats = entry.get(key)
        if stats and stats.get("limit_reason"):
            reasons[key] = stats["limit_reason"]
    return reasons


def _resolve_at_same_target(entry: dict) -> bool:
    """Whether the relax loop re-solves at the same ``ST_target``: after
    a CPD violation that added lazy path rows, unless the greedy
    completion (which does not read path rows) made the floorplan."""
    greedy = entry.get("completion") == "greedy" and not entry.get(
        "greedy_failed"
    )
    return (
        entry["result"] == "cpd_violation"
        and entry.get("rows_added", 0) > 0
        and not greedy
    )


def _violated_paths(
    floorplan: Floorplan, graphs, report, cpd_orig: float, max_paths: int
) -> list[MonitoredPath]:
    """Every path of ``floorplan`` whose delay exceeds the original CPD."""
    threshold = cpd_orig + CPD_EPS
    paths: list[MonitoredPath] = []
    for graph, timing in zip(graphs, report.per_context):
        if timing.cpd_ns < threshold:
            continue
        found, _truncated = enumerate_context_paths(
            graph, floorplan, threshold_ns=threshold,
            context_cpd_ns=timing.cpd_ns, max_paths=max_paths,
        )
        paths.extend(found)
    return paths


def _explain_iteration(benchmark: str, entry: dict, cpd_orig: float) -> dict:
    """Structured "why was this iteration rejected" record + trace event."""
    cause: dict = {
        "iteration": entry["iteration"],
        "st_target_ns": entry["st_target_ns"],
        "cause": entry["result"],
    }
    if entry["result"] == "infeasible":
        status = entry.get("status") or entry.get("ilp_status")
        if status:
            cause["status"] = status
        reasons = _solve_limit_reasons(entry)
        if reasons:
            cause["limit_reasons"] = reasons
    elif entry["result"] == "cpd_violation":
        cause["new_cpd_ns"] = entry.get("new_cpd_ns")
        cause["cpd_orig_ns"] = cpd_orig
        cause["rows_added"] = entry.get("rows_added", 0)
        if entry.get("culprit"):
            cause["culprit"] = entry["culprit"]
    elif entry["result"] == "frozen_budget_infeasible":
        for key in ("pe", "frozen_ns"):
            if entry.get(key) is not None:
                cause[key] = entry[key]
    event("algorithm1.explain", benchmark=benchmark, **cause)
    return cause


def _explain_terminal(
    benchmark: str,
    alg1: Algorithm1Stats,
    failure: Exception | None,
    iterations: int,
    config: Algorithm1Config,
    st_target: float,
    st_ceiling: float,
    model,
) -> dict:
    """Root cause of a run that ended with no accepted floorplan.

    When the final verdict was an infeasible solve and the Eq. (3) model
    is still in hand (stamped at the last tried ``ST_target``), an IIS is
    extracted so the trace names the conflicting constraints in domain
    terms.  A fault-injected "infeasible" comes out as ``status:
    feasible`` here — the model re-checks feasible — which is recorded
    honestly rather than papered over.
    """
    if failure is not None:
        terminal = {
            "DeadlineExceededError": "deadline",
            "CertificationError": "certification_failed",
        }.get(type(failure).__name__, "solver_error")
        detail = str(failure)
    elif iterations >= config.max_iterations:
        terminal = "iteration_budget_exhausted"
        detail = (
            f"max_iterations={config.max_iterations} reached without an "
            "accepted floorplan"
        )
    elif st_target > st_ceiling:
        terminal = "st_ceiling_exhausted"
        detail = (
            f"ST_target {st_target:.3f}ns exceeded the ceiling "
            f"{st_ceiling:.3f}ns (st_ceiling_factor="
            f"{config.st_ceiling_factor})"
        )
    else:
        terminal = "no_iterations"
        detail = "the relax loop never ran"
    cause: dict = {
        "cause": "terminal",
        "terminal_cause": terminal,
        "detail": detail,
        "iterations": iterations,
        "st_target_ns": st_target,
        "verdicts": list(alg1.verdicts),
    }
    last_verdict = alg1.verdicts[-1] if alg1.verdicts else ""
    if model is not None and last_verdict == "infeasible":
        from repro.explain import find_iis

        with span("explain_iis", model=model.name):
            iis = find_iis(model, time_limit_s=10.0)
        cause["iis"] = iis.to_dict()
    event("algorithm1.explain", benchmark=benchmark, **cause)
    return cause


def _run_iteration(
    design: MappedDesign,
    fabric: Fabric,
    original: Floorplan,
    config: Algorithm1Config,
    backend: ScipyBackend,
    frozen: FrozenPlan,
    candidates: dict[int, list[int]],
    monitored,
    cpd_orig: float,
    st_target: float,
    iteration: int,
    graphs,
    lazy_rows: list,
    model=None,
    variables=None,
    warm: WarmStart | None = None,
) -> tuple:
    """One solve attempt of the relax loop.

    The Eq. (3) model is built on the first call and threaded back in by
    the caller afterwards: later iterations only re-stamp the ``st_target``
    RHS parameter on the cached lowering (:func:`restamp_remap_model`).
    ``warm`` carries the previous iteration's hints (see
    :class:`~repro.core.remap.WarmStart`); the caller stamps its ``reason``
    with the iteration verdict before passing it back.

    On a CPD violation every path over the original CPD becomes an Eq. (5)
    row of the live model; the paths are appended to ``lazy_rows`` as
    ``(iteration, paths)`` so a cold rebuild can re-add them.

    Returns ``(entry, model, variables, warm_out)``; ``entry["result"]``
    is one of ``accepted``, ``infeasible``, ``cpd_violation`` or
    ``frozen_budget_infeasible``, ``entry["rows_added"]`` counts the lazy
    rows it added, and an accepted entry additionally carries the
    candidate ``floorplan``.
    """
    if model is None:
        # Built lazily (and re-tried each iteration while the frozen
        # stress alone busts the budget: a relaxed target can admit a
        # model that a tighter one could not).
        try:
            model, variables, build_stats = build_remap_model(
                design, fabric, frozen, candidates, monitored,
                cpd_orig, st_target, name="remap",
            )
        except BudgetInfeasibleError as exc:
            entry = {
                "iteration": iteration,
                "st_target_ns": st_target,
                "result": "frozen_budget_infeasible",
                "rows_added": 0,
                "pe": getattr(exc, "pe_index", None),
                "frozen_ns": getattr(exc, "frozen_ns", None),
            }
            return entry, None, None, None
    else:
        restamp_remap_model(model, st_target)
        build_stats = {"restamped": True}
    outcome = solve_remap(
        model, variables, config.remap, backend,
        _greedy_context(design, fabric, frozen, st_target), warm,
        retry_unfixed=True,
    )
    entry = {
        "iteration": iteration,
        "st_target_ns": st_target,
        "rows_added": 0,
        **build_stats,
        **outcome.stats,
    }
    warm_out = outcome.warm
    if not outcome.feasible:
        entry["result"] = "infeasible"
        return entry, model, variables, warm_out
    candidate_fp = outcome.floorplan(original, frozen)
    check_frozen_ops(original, candidate_fp, frozen.positions)
    with span("sta_verify"):
        new_report = analyze(design, candidate_fp, graphs)
    entry["new_cpd_ns"] = new_report.cpd_ns
    if new_report.cpd_ns <= cpd_orig + CPD_EPS:
        if config.certify:
            return _certify_accepted(
                design, fabric, original, config, backend, frozen,
                candidates, monitored, cpd_orig, st_target, iteration,
                graphs, lazy_rows, entry, candidate_fp, outcome, model,
                variables, warm_out,
            )
        entry["result"] = "accepted"
        entry["floorplan"] = candidate_fp
        return entry, model, variables, warm_out
    entry["result"] = "cpd_violation"
    paths = _violated_paths(
        candidate_fp, graphs, new_report, cpd_orig, config.max_paths
    )
    if paths:
        # A path between fixed endpoints only yields no row (the loop then
        # relaxes by Delta, which cannot repair it either).
        added, _frozen = add_lazy_path_rows(
            variables, design, fabric, frozen, paths, cpd_orig, iteration
        )
        lazy_rows.append((iteration, paths))
        counter("algorithm1.lazy_path_rows").inc(added)
        entry["rows_added"] = added
        if explain_enabled():
            culprit = max(paths, key=lambda monitored: monitored.delay_ns)
            entry["culprit"] = {
                "context": culprit.path.context,
                "ops": list(culprit.path.chain),
                "delay_ns": culprit.delay_ns,
            }
    return entry, model, variables, warm_out


def _greedy_context(design, fabric, frozen: FrozenPlan, st_target: float):
    return GreedyContext(
        design=design,
        fabric=fabric,
        frozen_positions=frozen.positions,
        st_target_ns=st_target,
        frozen_stress_ns=frozen_stress_by_pe(design, frozen),
    )


def _certify_accepted(
    design,
    fabric,
    original,
    config: Algorithm1Config,
    backend,
    frozen: FrozenPlan,
    candidates,
    monitored,
    cpd_orig: float,
    st_target: float,
    iteration: int,
    graphs,
    lazy_rows: list,
    entry: dict,
    candidate_fp: Floorplan,
    outcome,
    model,
    variables,
    warm_out,
) -> tuple:
    """Trust-but-verify gate on an accepted iteration.

    The floorplan (and, when a backend solution exists, the solution
    itself) is re-checked by :mod:`repro.verify` — an independent code
    path sharing nothing with the incremental compile/restamp/warm-start
    machinery.  On failure, the Eq. (3) model is rebuilt **cold** (fresh
    lowering, no warm start, the lazy path rows re-added) and re-solved
    once: if the cold result certifies, the stale model state was corrupt
    and the cold model replaces it for the remaining iterations.  If even
    the cold path fails, a :class:`CertificationError` propagates to the
    degradation ladder.
    """
    from repro.verify.certifier import certify_remap

    with span("certify", iteration=iteration):
        cert = certify_remap(
            design, candidate_fp, frozen.positions, st_target, cpd_orig,
            model=model,
            solution=outcome.solution,
            graphs=graphs,
        )
    entry["certifications"] = 1
    if cert.ok:
        entry["result"] = "accepted"
        entry["certified"] = True
        entry["floorplan"] = candidate_fp
        return entry, model, variables, warm_out
    entry["cert_failures"] = 1
    _log.warning(
        "%s: iteration %d failed certification; cold-rebuilding the model",
        design.name, iteration,
    )
    counter("verify.cold_rebuilds").inc()
    event(
        "certification.cold_rebuild",
        benchmark=design.name,
        iteration=iteration,
        violations=[v.kind for v in cert.violations[:8]],
    )
    entry["cert_cold_rebuild"] = True
    try:
        cold_model, cold_vars, _cold_stats = build_remap_model(
            design, fabric, frozen, candidates, monitored,
            cpd_orig, st_target, name="remap_cold",
        )
    except BudgetInfeasibleError:
        cert.raise_if_failed(f"{design.name} iteration {iteration}")
    for lazy_iteration, paths in lazy_rows:
        add_lazy_path_rows(
            cold_vars, design, fabric, frozen, paths, cpd_orig, lazy_iteration
        )
    cold_outcome = solve_remap(
        cold_model, cold_vars, config.remap, backend,
        _greedy_context(design, fabric, frozen, st_target), None,
        retry_unfixed=True,
    )
    if cold_outcome.feasible:
        cold_fp = cold_outcome.floorplan(original, frozen)
        check_frozen_ops(original, cold_fp, frozen.positions)
        with span("sta_verify"):
            cold_report = analyze(design, cold_fp, graphs)
        if cold_report.cpd_ns <= cpd_orig + CPD_EPS:
            with span("certify", iteration=iteration, cold_rebuild=True):
                cold_cert = certify_remap(
                    design, cold_fp, frozen.positions, st_target, cpd_orig,
                    model=cold_model,
                    solution=cold_outcome.solution,
                    graphs=graphs,
                )
            entry["certifications"] = 2
            if cold_cert.ok:
                entry["result"] = "accepted"
                entry["certified"] = True
                entry["new_cpd_ns"] = cold_report.cpd_ns
                entry["floorplan"] = cold_fp
                # The cold model supersedes the corrupt cached one for the
                # rest of the relax loop.
                return entry, cold_model, cold_vars, cold_outcome.warm
    cert.raise_if_failed(f"{design.name} iteration {iteration}")
    raise CertificationError(  # pragma: no cover - raise_if_failed always raises
        f"{design.name} iteration {iteration} failed certification"
    )
