"""Algorithm 1: the aging-aware re-mapping design flow.

The outer loop of the paper:

1. **Step 1** — delay-unaware Δ-scan for the ST_target lower bound, from
   the integrality floor up (:mod:`repro.core.targets`);
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

Steps 2.1 and 2.2 (:func:`prepare_phase2`) and Step 2.3's loop
(:class:`RelaxLoop`) also serve the rotation sets of
:mod:`repro.core.multiconfig`, one loop per configuration.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field

from repro.aging.stress import StressMap, compute_stress_map
from repro.arch.checks import check_frozen_ops
from repro.arch.context import Floorplan
from repro.arch.fabric import Fabric
from repro.core.remap import (
    RemapConfig,
    RemapProblem,
    default_candidates,
    resolved_window,
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
    PathFilterResult,
    enumerate_context_paths,
    filter_paths,
)
from repro.timing.sta import all_critical_paths, analyze

#: CPD comparisons use this guard band (ns) against float noise.
CPD_EPS = 1e-6

#: Seed of the rotation rule's random draws (Rotate mode).
ROTATION_SEED = 2020

#: ``ST_target`` may exceed ``ST_up`` by this factor before the relax loop
#: gives up.
ST_CEILING_FACTOR = 1.5

_log = get_logger("core.algorithm1")


@dataclass
class Algorithm1Config:
    """All knobs of the aging-aware re-mapping flow."""

    #: "rotate" (full method) or "freeze" (Table I's ablation column).
    mode: str = "rotate"
    #: Path filter: retain paths within this fraction of the CPD.
    retention: float = DEFAULT_RETENTION
    #: Relax-loop iterations, row-generation rounds included.
    max_iterations: int = 25
    remap: RemapConfig = field(default_factory=RemapConfig)


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
    #: Outer-loop convergence record: Step-1 floor and bumps, the
    #: ST_target/Delta relaxation trajectory, per-iteration CPD verdicts
    #: and per-solve aggregates (also mirrored into ``stats["algorithm1"]``
    #: and the ``algorithm1.stats`` trace event).
    alg1: Algorithm1Stats = field(default_factory=Algorithm1Stats)
    #: Independent-certification verdict for ``floorplan``: ``True`` when
    #: the accepted MILP result passed :mod:`repro.verify`; ``None`` when
    #: the floorplan came from a non-MILP ladder rung (greedy/original —
    #: nothing model-level to certify).  A certification failure never
    #: returns ``False``: it raises :class:`~repro.errors.CertificationError`
    #: internally and degrades, with the reason recorded in
    #: ``stats["degradation_reason"]``.
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
    inputs = prepare_phase2(design, fabric, original, config, original_stress)
    cpd_orig, frozen = inputs.cpd_ns, inputs.frozen
    original_stress = inputs.original_stress

    # -- Step 1 and the Step 2.3 relax loop, wrapped by the degradation ladder
    loop = RelaxLoop(inputs, inputs.problem(), config, backend)
    alg1 = loop.stats
    step1: StressTargetResult | None = None
    failure: Exception | None = None
    try:
        step1 = inputs.step1(config, backend)
        alg1.floor_ns = step1.floor_ns
        alg1.floor_skips = step1.floor_skips
        alg1.ilp_bumps = step1.ilp_bumps
        _absorb_solve_stats(alg1, step1.stats)
        loop.run(step1.st_target_ns, inputs.st_ceiling_ns)
    except (SolverError, DeadlineExceededError, CertificationError) as exc:
        failure = exc
        if isinstance(exc, CertificationError):
            # The iteration's counters were lost with its entry; record the
            # terminal failure on the run-level aggregates directly.
            alg1.cert_failures += 1
    best, final_cpd = loop.floorplan, loop.final_cpd_ns
    st_target, degradation = loop.st_target_ns, loop.degradation

    if best is None:
        # The relax loop ended without an accepted floorplan: record the
        # terminal root cause (and, when the last verdict was infeasible,
        # extract an IIS from the still-stamped model) before the
        # degradation ladder overwrites the outcome.
        loop.explanations.append(_explain_terminal(loop, failure))

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
            design, fabric, original, pinned, graphs=inputs.graphs
        )
        if candidate is not None:
            check_frozen_ops(original, candidate, pinned)
            with span("sta_verify"):
                fallback_report = analyze(design, candidate, inputs.graphs)
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
            mode=config.mode,
            level=degradation if best is not None else "original",
            reason=type(failure).__name__,
            detail=str(failure),
        )

    fell_back = best is None
    if fell_back:
        # Ladder rung 3 (also the paper's unconditional fallback when the
        # relax loop exhausts its budget): keep the original floorplan.
        counter("algorithm1.fallbacks").inc()
        event(
            "algorithm1.fallback",
            benchmark=design.name,
            mode=config.mode,
            iterations=loop.iterations,
        )
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
    alg1.final_st_target_ns = st_target
    event(
        "algorithm1.stats",
        benchmark=design.name,
        mode=config.mode,
        degradation=degradation,
        **alg1.to_dict(),
    )
    stats = {
        "iterations": loop.log,
        "path_filter_truncated": inputs.filtered.truncated,
        "algorithm1": alg1.to_dict(),
        "explanations": loop.explanations,
    }
    if failure is not None:
        stats["degradation_reason"] = f"{type(failure).__name__}: {failure}"
    return RemapResult(
        floorplan=best,
        st_target_ns=st_target,
        original_cpd_ns=cpd_orig,
        final_cpd_ns=final_cpd,
        iterations=loop.iterations,
        fell_back=fell_back,
        frozen=frozen,
        step1=step1,
        monitored_count=len(inputs.filtered.non_critical),
        critical_op_count=len(frozen.positions),
        stats=stats,
        degradation=degradation,
        alg1=alg1,
        certified=loop.certified,
    )


@dataclass
class Phase2Inputs:
    """What Phase 2 derives from the original floorplan before any solve;
    Algorithm 1 and every rotation-set configuration share it."""

    design: MappedDesign
    fabric: Fabric
    original: Floorplan
    graphs: list
    cpd_ns: float
    frozen: FrozenPlan
    filtered: PathFilterResult
    original_stress: StressMap
    delta_ns: float
    candidates: dict[int, list[int]]

    @property
    def st_ceiling_ns(self) -> float:
        return self.original_stress.max_accumulated_ns * ST_CEILING_FACTOR

    def step1(
        self, config: Algorithm1Config, backend: ScipyBackend
    ) -> StressTargetResult:
        """Step 1: the delay-unaware ``ST_target`` lower bound."""
        return stress_target_lower_bound(
            self.design, self.fabric, self.original, self.original_stress,
            config=config.remap, backend=backend,
        )

    def problem(self, carried_ns=None) -> RemapProblem:
        """The Eq. (3) problem over these inputs (see :class:`RemapProblem`
        for ``carried_ns``)."""
        return RemapProblem(
            self.design, self.fabric, self.frozen, self.candidates,
            self.filtered.non_critical, self.cpd_ns, carried_ns or {},
        )


def prepare_phase2(
    design: MappedDesign,
    fabric: Fabric,
    original: Floorplan,
    config: Algorithm1Config,
    original_stress: StressMap | None = None,
) -> Phase2Inputs:
    """Steps 2.1 and 2.2 on the original floorplan, plus Δ and the
    candidate PEs (spans ``sta``, ``critical_paths`` and ``path_filter``)."""
    # Graph (and kernel-lowering) construction is structure work, not
    # timing analysis — keep it out of the sta span.
    graphs = build_timing_graphs(design)
    with span("sta"):
        report = analyze(design, original, graphs)

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
                random.Random(ROTATION_SEED),
            )

    # -- Step 2.2: path-delay constraint generation ---------------------------
    with span("path_filter"):
        filtered = filter_paths(
            design,
            original,
            retention=config.retention,
            graphs=graphs,
            report=report,
        )

    original_stress = original_stress or compute_stress_map(design, original)
    return Phase2Inputs(
        design=design,
        fabric=fabric,
        original=original,
        graphs=graphs,
        cpd_ns=report.cpd_ns,
        frozen=frozen,
        filtered=filtered,
        original_stress=original_stress,
        delta_ns=default_delta_ns(original_stress),
        candidates=default_candidates(
            design, original, frozen, fabric, resolved_window(fabric)
        ),
    )


class RelaxLoop:
    """Step 2.3, the relax loop, on one Eq. (3) problem.

    Each iteration solves the problem at ``ST_target`` and passes a
    feasible floorplan through the acceptance gate (:meth:`_gate`).  An
    infeasible verdict relaxes ``ST_target`` by Δ; a CPD violation adds
    every path over the original CPD to the live model as an Eq. (5) row
    and re-solves at the same target.  The attributes stay readable when
    :meth:`run` raises, so the degradation ladder sees how far it got.
    """

    def __init__(
        self,
        inputs: Phase2Inputs,
        problem: RemapProblem,
        config: Algorithm1Config,
        backend: ScipyBackend,
    ) -> None:
        self.inputs, self.problem = inputs, problem
        self.config, self.backend = config, backend
        stress = inputs.original_stress
        self.st_target_ns = stress.max_accumulated_ns  # until the first try
        self.iterations = 0
        self.log: list[dict] = []  # one entry per finished iteration
        self.explanations: list[dict] = []
        self.stats = Algorithm1Stats(
            st_low_ns=stress.mean_accumulated_ns,
            st_up_ns=stress.max_accumulated_ns,
            delta_ns=inputs.delta_ns,
        )
        # The accepted floorplan, its CPD, certification and ladder level.
        self.floorplan: Floorplan | None = None
        self.final_cpd_ns = inputs.cpd_ns
        self.certified: bool | None = None
        self.degradation = "none"

    def run(self, st_base_ns: float, st_ceiling_ns: float) -> Floorplan | None:
        """Relax from ``st_base_ns`` until a floorplan passes the gate, the
        iteration budget is spent or ``ST_target`` exceeds
        ``st_ceiling_ns``; returns the accepted floorplan or None."""
        deadline = current_deadline()
        relaxations = counter("algorithm1.st_target_relaxations")
        alg1 = self.stats
        benchmark = self.problem.design.name
        self.st_target_ns = st_base_ns
        relaxed = 0  # Delta-relaxations; a row round re-solves at the same count
        while (
            self.iterations < self.config.max_iterations
            and self.st_target_ns <= st_ceiling_ns
        ):
            deadline.check("algorithm1:iteration")
            self.iterations += 1
            counter("algorithm1.iterations").inc()
            with span(
                "iteration", index=self.iterations,
                st_target_ns=self.st_target_ns,
            ) as iter_span:
                entry = self._iterate()
                self.log.append(entry)
                iter_span.set(result=entry["result"])
            alg1.record_iteration(
                self.st_target_ns, entry["result"], entry.get("rows_added", 0)
            )
            alg1.certifications += entry.get("certifications", 0)
            alg1.cert_failures += entry.get("cert_failures", 0)
            alg1.cert_cold_rebuilds += int(entry.get("cert_cold_rebuild", False))
            _absorb_solve_stats(alg1, entry)
            if entry["result"] != "accepted":
                self.explanations.append(
                    _explain_iteration(benchmark, entry, self.inputs.cpd_ns)
                )
            _log.debug(
                "%s: iteration %d at ST_target=%.3f ns -> %s",
                benchmark, self.iterations, self.st_target_ns, entry["result"],
            )
            if entry["result"] == "accepted":
                self.floorplan = entry.pop("floorplan")
                self.final_cpd_ns = entry["new_cpd_ns"]
                self.certified = entry.get("certified")
                if _used_incumbent(entry):
                    # Accepted, but a solver limit was hit on the way: the
                    # floorplan came from a best-so-far incumbent, not a
                    # proven/gap-certified solve.
                    self.degradation = "incumbent"
                break
            if _resolve_at_same_target(entry):
                alg1.row_rounds += 1
                continue
            relaxations.inc()
            relaxed += 1
            self.st_target_ns = relaxed_target(
                st_base_ns, self.inputs.delta_ns, relaxed
            )
        return self.floorplan

    def _iterate(self) -> dict:
        """One solve attempt at ``st_target_ns``; returns its log entry,
        whose ``result`` is ``accepted`` (the entry then carries the
        ``floorplan``), ``infeasible``, ``cpd_violation`` or
        ``frozen_budget_infeasible``."""
        iteration, st_target = self.iterations, self.st_target_ns
        try:
            # The build is re-tried while the frozen stress alone busts the
            # budget: a relaxed target can admit a model a tighter could not.
            outcome = self.problem.solve(
                st_target, self.config.remap, self.backend, retry_unfixed=True
            )
        except BudgetInfeasibleError as exc:
            return {
                "iteration": iteration,
                "st_target_ns": st_target,
                "result": "frozen_budget_infeasible",
                "rows_added": 0,
                "pe": getattr(exc, "pe_index", None),
                "frozen_ns": getattr(exc, "frozen_ns", None),
            }
        entry = {
            "iteration": iteration,
            "st_target_ns": st_target,
            "rows_added": 0,
            **outcome.stats,
        }
        if not outcome.feasible:
            entry["result"] = "infeasible"
            return entry
        floorplan, report, cert = self._gate(self.problem, outcome)
        entry["new_cpd_ns"] = report.cpd_ns
        if cert is None:
            entry["result"] = "cpd_violation"
            paths = _violated_paths(
                floorplan, self.inputs.graphs, report, self.inputs.cpd_ns
            )
            if paths:
                # A path between fixed endpoints only yields no row (the
                # loop then relaxes by Delta, which cannot repair it either).
                added = self.problem.add_path_rows(paths, iteration)
                counter("algorithm1.lazy_path_rows").inc(added)
                entry["rows_added"] = added
                culprit = max(paths, key=lambda monitored: monitored.delay_ns)
                entry["culprit"] = {
                    "context": culprit.path.context,
                    "ops": list(culprit.path.chain),
                    "delay_ns": culprit.delay_ns,
                }
            return entry
        entry["certifications"] = 1
        if not cert.ok:
            floorplan = self._cold_rebuild(entry, cert)
        entry["result"] = "accepted"
        entry["certified"] = True
        entry["floorplan"] = floorplan
        return entry

    def _gate(self, problem: RemapProblem, outcome):
        """The acceptance gate on a feasible solve of ``problem``.

        The floorplan must keep the frozen ops in place and, by full STA,
        the original CPD; then :mod:`repro.verify`, a code path sharing
        nothing with the incremental compile/re-stamp machinery, certifies
        it and the backend solution.  Returns ``(floorplan, report,
        certificate)``; the certificate is None when the CPD grew.
        """
        from repro.verify.certifier import certify_remap

        original, graphs = self.inputs.original, self.inputs.graphs
        floorplan = outcome.floorplan(original, problem.frozen)
        check_frozen_ops(original, floorplan, problem.frozen.positions)
        with span("sta_verify"):
            report = analyze(problem.design, floorplan, graphs)
        if report.cpd_ns > problem.cpd_ns + CPD_EPS:
            return floorplan, report, None
        with span("certify", iteration=self.iterations, model=problem.name):
            cert = certify_remap(
                problem.design, floorplan, problem.frozen.positions,
                self.st_target_ns, problem.cpd_ns,
                model=problem.model,
                solution=outcome.solution,
                graphs=graphs,
            )
        return floorplan, report, cert

    def _cold_rebuild(self, entry: dict, cert) -> Floorplan:
        """One cold re-solve after a failed certification.

        A cold copy of the problem (fresh lowering, lazy rows re-added) is
        solved at the same target and passed through the same gate.  If it
        certifies, the cached model state was corrupt and the cold problem
        replaces it; otherwise a :class:`CertificationError` goes to the
        degradation ladder.  The cold build cannot bust the budget: the
        cached model was built at a target no higher.
        """
        design, iteration = self.problem.design, self.iterations
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
        cold = self.problem.cold_copy()
        outcome = cold.solve(
            self.st_target_ns, self.config.remap, self.backend,
            retry_unfixed=True,
        )
        if outcome.feasible:
            floorplan, report, cold_cert = self._gate(cold, outcome)
            if cold_cert is not None:
                entry["certifications"] = 2
                if cold_cert.ok:
                    entry["new_cpd_ns"] = report.cpd_ns
                    self.problem = cold
                    return floorplan
        cert.raise_if_failed(f"{design.name} iteration {iteration}")
        raise CertificationError(  # pragma: no cover - raise_if_failed always raises
            f"{design.name} iteration {iteration} failed certification"
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
    floorplan: Floorplan, graphs, report, cpd_orig: float
) -> list[MonitoredPath]:
    """Every path of ``floorplan`` whose delay exceeds the original CPD."""
    threshold = cpd_orig + CPD_EPS
    paths: list[MonitoredPath] = []
    for graph, timing in zip(graphs, report.per_context):
        if timing.cpd_ns < threshold:
            continue
        found, _truncated = enumerate_context_paths(
            graph, floorplan, threshold_ns=threshold,
            context_cpd_ns=timing.cpd_ns, max_paths=DEFAULT_MAX_PATHS,
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


def _explain_terminal(loop: RelaxLoop, failure: Exception | None) -> dict:
    """Root cause of a run that ended with no accepted floorplan.

    When the final verdict was an infeasible solve and the Eq. (3) model
    is still in hand (stamped at the last tried ``ST_target``), an IIS is
    extracted so the trace names the conflicting constraints in domain
    terms.  A fault-injected "infeasible" comes out as ``status:
    feasible`` here — the model re-checks feasible — which is recorded
    honestly rather than papered over.
    """
    budget, st_target = loop.config.max_iterations, loop.st_target_ns
    st_ceiling = loop.inputs.st_ceiling_ns
    if failure is not None:
        terminal = {
            "DeadlineExceededError": "deadline",
            "CertificationError": "certification_failed",
        }.get(type(failure).__name__, "solver_error")
        detail = str(failure)
    elif loop.iterations >= budget:
        terminal = "iteration_budget_exhausted"
        detail = (
            f"all {budget} iterations of the budget ran "
            "without an accepted floorplan"
        )
    elif st_target > st_ceiling:
        terminal = "st_ceiling_exhausted"
        detail = (
            f"ST_target {st_target:.3f}ns exceeded the ceiling "
            f"{st_ceiling:.3f}ns ({ST_CEILING_FACTOR} x ST_up)"
        )
    else:
        terminal = "no_iterations"
        detail = "the relax loop never ran"
    cause: dict = {
        "cause": "terminal",
        "terminal_cause": terminal,
        "detail": detail,
        "iterations": loop.iterations,
        "st_target_ns": st_target,
        "verdicts": list(loop.stats.verdicts),
    }
    model = loop.problem.model
    if model is not None and cause["verdicts"][-1:] == ["infeasible"]:
        from repro.explain import find_iis

        with span("explain_iis", model=model.name):
            iis = find_iis(model, time_limit_s=10.0)
        cause["iis"] = iis.to_dict()
    event("algorithm1.explain", benchmark=loop.problem.design.name, **cause)
    return cause
