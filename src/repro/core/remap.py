"""Assembly and solution of the re-mapping MILP (paper Eq. 3).

``build_remap_model`` assembles the formulation for a given ``ST_target``
as the paper states it: a feasibility model (``ObjFunc: Null``).
``solve_remap`` runs one of two strategies:

* ``"two-step"`` (the paper's method, default): solve the LP relaxation,
  pre-map every assignment whose LP value exceeds 0.95 (or randomized
  rounding, for the ablation), then solve the residual ILP;
* ``"monolithic"``: hand the full binary model to the solver directly —
  the primary formulation of Section V-A that the paper found intractable
  at scale (kept for the ablation benchmark).

Candidate windowing
-------------------
On large fabrics a dense op x PE variable grid is intractable (the paper's
own motivation for the two-step method).  ``default_candidates`` can limit
each op to the ``window`` nearest PEs around its original location plus a
deterministic spread sample across the fabric (so stress can still be
exported to far-away idle PEs).  ``window=None`` (the default for fabrics
up to 64 PEs) gives every op every PE, exactly as in Eq. (3).
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Mapping, Sequence

from repro.arch.context import Floorplan
from repro.arch.fabric import Fabric
from repro.core.constraints import (
    RemapVariables,
    add_assignment_variables,
    add_exclusivity_constraints,
    add_path_constraints,
    add_stress_constraints,
    add_wirelength_objective,
    build_coordinates,
    collect_endpoints,
)
from repro.core.rotation import FrozenPlan
from repro.errors import ModelError
from repro.hls.allocate import MappedDesign
from repro.milp.model import Model
from repro.milp.rounding import (
    extract_assignment,
    randomized_round,
    threshold_fix,
)
from repro.milp.scipy_backend import ScipyBackend
from repro.milp.status import SolveStatus
from repro.obs import counter, gauge, span
from repro.timing.kpaths import MonitoredPath

#: Fabric size (PEs) up to which every op gets every PE as a candidate.
FULL_CANDIDATE_LIMIT = 64


@dataclass
class RemapConfig:
    """Solution-strategy knobs for one re-mapping solve."""

    strategy: str = "two-step"  # "two-step" | "monolithic"
    rounding: str = "threshold"  # "threshold" | "randomized"
    fix_threshold: float = 0.95
    candidate_window: int | None = None  # None = auto by fabric size
    time_limit_s: float | None = 60.0
    #: How to turn the (fractional) LP solution into the final binding:
    #: "ilp"    — the paper's residual ILP, always;
    #: "greedy" — LP-guided greedy completion (stress/slot feasible by
    #:            construction; timing re-verified by Algorithm 1's STA);
    #: "auto"   — greedy first on large models (where an open single-core
    #:            MIP solver cannot find an incumbent within the time
    #:            limit, unlike the paper's CPLEX), ILP fallback/default.
    completion: str = "auto"
    #: Binary-variable count above which "auto" prefers the greedy pass;
    #: at or below it, the unfixed residual-ILP retry may run.
    greedy_threshold: int = 6000
    seed: int = 2020
    #: Race solver lanes per solve instead of betting on one backend
    #: (:class:`repro.portfolio.PortfolioBackend`).  The first answer to
    #: pass independent certification wins; losers are cancelled.
    portfolio: bool = False
    #: Lane order when racing; the first healthy lane leads.
    lanes: tuple[str, ...] = ("highs", "branch-bound", "prober")
    #: Backup lanes start this many seconds after the leader (released
    #: early when every started lane has failed).  On models the leader
    #: finishes inside this window, backups never start — which is what
    #: keeps a healthy portfolio run bit-identical to a serial one.
    hedge_delay_s: float = 1.5
    #: Per-lane wall-clock budget; None caps lanes only by the flow
    #: deadline (and the solver's own ``time_limit_s``).
    lane_timeout_s: float | None = None

    def make_backend(self):
        if self.portfolio:
            # Imported lazily: repro.portfolio pulls in both backends,
            # and the serial path must not pay for that.
            from repro.portfolio import PortfolioBackend

            return PortfolioBackend(
                lanes=tuple(self.lanes),
                time_limit=self.time_limit_s,
                hedge_delay_s=self.hedge_delay_s,
                lane_timeout_s=self.lane_timeout_s,
            )
        return ScipyBackend(time_limit=self.time_limit_s)

    def resolved_window(self, fabric: Fabric) -> int | None:
        if self.candidate_window is not None:
            return self.candidate_window
        return None if fabric.num_pes <= FULL_CANDIDATE_LIMIT else FULL_CANDIDATE_LIMIT


@dataclass
class WarmStart:
    """Incumbent hints carried across Algorithm 1's relaxation iterations.

    ``fixing`` is the LP→ILP pre-mapped binding of the previous solve
    (op → PE of every fixed one-hot group); ``values`` the previous
    solution's variable values, valid across iterations because the model
    — and therefore its ``Variable`` objects — is reused; ``reason`` the
    verdict of the iteration that produced the hint (hints are only
    *acted* on after an ``"infeasible"`` verdict: re-using the binding of
    a CPD-violating solve would just reproduce the violation).
    """

    fixing: dict[int, int] = field(default_factory=dict)
    values: Mapping | None = None
    reason: str = ""


@dataclass
class RemapOutcome:
    """Result of one re-mapping solve at a fixed ST_target."""

    feasible: bool
    assignment: dict[int, int] = field(default_factory=dict)  # movable op -> PE
    stats: dict = field(default_factory=dict)
    #: Hint for the *next* solve of the same (re-stamped) model, when the
    #: strategy produced one (two-step ILP paths only).
    warm: "WarmStart | None" = None
    #: The backend :class:`~repro.milp.status.Solution` behind
    #: ``assignment``, when one exists — greedy completions assemble the
    #: binding without one.  Consumed by :mod:`repro.verify` to re-check
    #: feasibility row-by-row against the uncompiled model.
    solution: object | None = None

    def floorplan(self, original: Floorplan, frozen: FrozenPlan) -> Floorplan:
        """Materialise the re-mapped floorplan."""
        if not self.feasible:
            raise ModelError("cannot build a floorplan from an infeasible outcome")
        bindings = dict(self.assignment)
        bindings.update(frozen.positions)
        return original.with_bindings(bindings)


def default_candidates(
    design: MappedDesign,
    original: Floorplan,
    frozen: FrozenPlan,
    fabric: Fabric,
    window: int | None,
) -> dict[int, list[int]]:
    """Candidate PE sets for every movable op.

    Guarantees: the op's original PE is a candidate whenever it is not
    taken by a frozen op of the same context; sets are deterministic.
    """
    frozen_slots: dict[int, set[int]] = {}
    for op_id, pe_index in frozen.positions.items():
        context = design.ops[op_id].context
        frozen_slots.setdefault(context, set()).add(pe_index)

    candidates: dict[int, list[int]] = {}
    num_pes = fabric.num_pes
    for op_id in sorted(design.ops):
        if op_id in frozen.positions:
            continue
        context = design.ops[op_id].context
        blocked = frozen_slots.get(context, ())
        origin = original.pe_of[op_id]
        if window is None or window >= num_pes:
            chosen = [k for k in range(num_pes) if k not in blocked]
        else:
            nearest = fabric.indices_by_distance(origin)[:window]
            # Deterministic spread: a per-op phase over a coarse stride so
            # far-away idle PEs remain reachable for stress export.
            spread_count = max(8, window // 2)
            stride = max(1, num_pes // spread_count)
            spread = range((op_id * 7) % stride, num_pes, stride)
            merged = dict.fromkeys([origin, *nearest, *spread])
            chosen = [k for k in merged if k not in blocked]
        if not chosen:
            raise ModelError(
                f"op {op_id} has no available candidate PEs in context {context}"
            )
        candidates[op_id] = chosen
    return candidates


def frozen_stress_by_pe(
    design: MappedDesign, frozen: FrozenPlan
) -> dict[int, float]:
    """Accumulated stress contributed by frozen ops, per PE."""
    result: dict[int, float] = {}
    for op_id, pe_index in frozen.positions.items():
        result[pe_index] = result.get(pe_index, 0.0) + design.ops[op_id].stress_ns
    return result


def build_remap_model(
    design: MappedDesign,
    fabric: Fabric,
    frozen: FrozenPlan,
    candidates: Mapping[int, Sequence[int]],
    monitored_paths: Sequence[MonitoredPath],
    cpd_ns: float,
    st_target_ns: float,
    name: str = "remap",
    objective: str = "null",
) -> tuple[Model, RemapVariables, dict]:
    """Assemble Eq. (3) for one ``ST_target``; returns model + variables + stats.

    ``objective="wirelength"`` serves the ``repro verify --certify-backend``
    oracle, which compares two solvers' optima.
    """
    with span("milp_build", model=name) as build_span:
        model = Model(name)
        variables = add_assignment_variables(model, candidates, design)
        add_exclusivity_constraints(variables, design, fabric.num_pes)
        add_stress_constraints(
            variables,
            design,
            fabric.num_pes,
            st_target_ns,
            frozen_stress_by_pe(design, frozen),
            fabric=fabric,
        )
        endpoints = collect_endpoints(monitored_paths)
        build_coordinates(variables, design, fabric, frozen.positions, endpoints)
        added, frozen_violations = add_path_constraints(
            variables, design, fabric, monitored_paths, cpd_ns
        )
        if objective == "wirelength":
            add_wirelength_objective(variables, design, fabric, frozen.positions)
        elif objective != "null":
            raise ModelError(f"unknown objective {objective!r}")
        stats = {
            "variables": model.num_variables,
            "binaries": model.num_binary,
            "constraints": model.num_constraints,
            "path_constraints": added,
            "frozen_path_violations": frozen_violations,
        }
        build_span.set(**stats)
    counter("milp.models_built").inc()
    gauge("milp.model.binaries").set(model.num_binary)
    gauge("milp.model.constraints").set(model.num_constraints)
    return model, variables, stats


def add_lazy_path_rows(
    variables: RemapVariables,
    design: MappedDesign,
    fabric: Fabric,
    frozen: FrozenPlan,
    paths: Sequence[MonitoredPath],
    cpd_ns: float,
    iteration: int,
) -> tuple[int, int]:
    """Add lazy Eq. (5) rows for ``paths`` to an assembled model; they
    survive ``ST_target`` re-stamps.  Returns what
    :func:`~repro.core.constraints.add_path_constraints` returns."""
    build_coordinates(
        variables, design, fabric, frozen.positions, collect_endpoints(paths)
    )
    return add_path_constraints(
        variables, design, fabric, paths, cpd_ns, lazy_iteration=iteration
    )


def restamp_remap_model(model: Model, st_target_ns: float) -> None:
    """Re-aim an assembled Eq. (3) model at a new ``ST_target``.

    The stress constraints are registered against the ``"st_target"``
    parameter at build time, so this is an O(stress rows) RHS re-stamp on
    the cached lowering — no expression re-traversal, no new model.  Any
    pre-mapping fixes from the previous solve are reopened first.
    """
    with span("milp_restamp", model=model.name, st_target_ns=st_target_ns):
        model.unfix_all()
        model.set_parameter("st_target", st_target_ns)
    counter("milp.models_restamped").inc()


def _apply_fixing(
    model: Model, variables: RemapVariables, fixing: Mapping[int, int]
) -> bool:
    """Re-apply a previous iteration's pre-mapping (op → PE) to ``model``.

    Validates the whole binding against the current candidate sets before
    touching any bounds, so a stale hint leaves the model untouched.
    Returns False when any op or PE is unknown.
    """
    resolved = []  # (group members, winner variable) per op
    for op_id, pe_index in fixing.items():
        members = variables.assign.get(op_id)
        if members is None:
            return False
        winner = next((var for var, pe in members if pe == pe_index), None)
        if winner is None:
            return False
        resolved.append((members, winner))
    for members, winner in resolved:
        model.fix_variable(winner, 1.0)
        for var, _pe in members:
            if var is not winner:
                model.fix_variable(var, 0.0)
    return True


def _fixed_assignment(
    model: Model, variables: RemapVariables
) -> dict[int, int]:
    """The op → PE binding currently pinned on ``model`` (LP pre-mapping)."""
    fixed = model.fixed_variables
    binding: dict[int, int] = {}
    for op_id, members in variables.assign.items():
        for var, pe_index in members:
            if fixed.get(var) == 1.0:
                binding[op_id] = pe_index
                break
    return binding


@dataclass
class GreedyContext:
    """Inputs the LP-guided greedy completion needs beyond the model.

    ``frozen_stress_ns`` is the per-PE stress baseline already committed
    (frozen ops, and configuration carryover in rotation sets).
    """

    design: MappedDesign
    fabric: Fabric
    frozen_positions: Mapping[int, int]
    st_target_ns: float
    frozen_stress_ns: Mapping[int, float]

    #: Score bonus (grid units of wirelength) for following the LP mass.
    lp_bias: float = 2.0


def _greedy_complete(
    variables: RemapVariables,
    lp_solution,
    ctx: GreedyContext,
) -> dict[int, int] | None:
    """LP-guided greedy binding of every movable op.

    Ops are placed context by context in dependency (chain) order, so
    producers precede their consumers and combinational chains stay local
    — the property that protects the CPD.  Each op takes the feasible
    candidate PE (slot free in its context, stress budget respected)
    minimising the weighted wire cost to already-placed neighbours (intra-
    context combinational wires weigh most) minus ``lp_bias * LP mass``.
    Returns None on a dead end (caller falls back to the ILP).
    """
    import heapq

    design, fabric = ctx.design, ctx.fabric
    stress = {pe: float(v) for pe, v in ctx.frozen_stress_ns.items()}
    slots: set[tuple[int, int]] = set()
    positions: dict[int, tuple[float, float]] = {}
    for op_id, pe_index in ctx.frozen_positions.items():
        context = design.ops[op_id].context
        slots.add((context, pe_index))
        pe = fabric.pe(pe_index)
        positions[op_id] = (float(pe.row), float(pe.col))

    # Neighbour lists with weights: intra-context (combinational) wires
    # carry path delay, so they dominate the cost; register reads and pad
    # wires only matter for congestion.
    neighbors: dict[int, list[tuple[object, float]]] = {
        op: [] for op in variables.assign
    }
    for src, dst in design.compute_edges:
        weight = (
            3.0 if design.ops[src].context == design.ops[dst].context else 1.0
        )
        if src in neighbors:
            neighbors[src].append((dst, weight))
        if dst in neighbors:
            neighbors[dst].append((src, weight))
    for ordinal, dst in design.input_edges:
        if dst in neighbors:
            pad = fabric.input_pad(ordinal)
            neighbors[dst].append(((pad.row, pad.col), 0.5))
    for src, ordinal in design.output_edges:
        if src in neighbors:
            pad = fabric.output_pad(ordinal)
            neighbors[src].append(((pad.row, pad.col), 0.5))

    # Context-major, chain-order placement sequence.
    preds_in_context: dict[int, list[int]] = {op: [] for op in variables.assign}
    for src, dst in design.compute_edges:
        if (
            dst in preds_in_context
            and src in preds_in_context
            and design.ops[src].context == design.ops[dst].context
        ):
            preds_in_context[dst].append(src)
    order: list[int] = []
    for context in range(design.num_contexts):
        context_ops = sorted(
            op for op in variables.assign
            if design.ops[op].context == context
        )
        remaining = {op: len(preds_in_context[op]) for op in context_ops}
        succs: dict[int, list[int]] = {op: [] for op in context_ops}
        for op in context_ops:
            for pred in preds_in_context[op]:
                succs[pred].append(op)
        ready = [op for op, count in remaining.items() if count == 0]
        heapq.heapify(ready)
        while ready:
            op = heapq.heappop(ready)
            order.append(op)
            for succ in succs[op]:
                remaining[succ] -= 1
                if remaining[succ] == 0:
                    heapq.heappush(ready, succ)

    assignment: dict[int, int] = {}
    for op_id in order:
        op = design.ops[op_id]
        placed_neighbors = []
        for item, weight in neighbors[op_id]:
            if isinstance(item, tuple):
                placed_neighbors.append((item, weight))
            elif item in positions:
                placed_neighbors.append((positions[item], weight))
        best = None
        for var, pe_index in variables.assign[op_id]:
            if (op.context, pe_index) in slots:
                continue
            if stress.get(pe_index, 0.0) + op.stress_ns > ctx.st_target_ns + 1e-9:
                continue
            pe = fabric.pe(pe_index)
            wire = sum(
                weight * (abs(pe.row - point[0]) + abs(pe.col - point[1]))
                for point, weight in placed_neighbors
            )
            mass = lp_solution.value(var, 0.0)
            score = (wire - ctx.lp_bias * mass, pe_index)
            if best is None or score < best[0]:
                best = (score, pe_index)
        if best is None:
            return None
        pe_index = best[1]
        assignment[op_id] = pe_index
        slots.add((op.context, pe_index))
        stress[pe_index] = stress.get(pe_index, 0.0) + op.stress_ns
        pe = fabric.pe(pe_index)
        positions[op_id] = (float(pe.row), float(pe.col))
    return assignment


def solve_remap(
    model: Model,
    variables: RemapVariables,
    config: RemapConfig,
    backend: ScipyBackend | None = None,
    greedy_context: "GreedyContext | None" = None,
    warm: "WarmStart | None" = None,
    retry_unfixed: bool = False,
) -> RemapOutcome:
    """Run the configured strategy on an assembled model.

    ``greedy_context`` enables the LP-guided greedy completion on large
    models (see :class:`GreedyContext`); without it the residual is always
    solved as an ILP, exactly as in the paper.  ``warm`` carries the
    previous iteration's hints when the same model is re-solved after an
    ``ST_target`` re-stamp (see :class:`WarmStart`).  ``retry_unfixed``
    enables the two-step unfixed retry (Algorithm 1's relax loop; Step 1
    keeps the cold pipeline).
    """
    backend = backend or config.make_backend()
    if config.strategy == "monolithic":
        return _solve_monolithic(model, variables, backend, warm)
    if config.strategy == "two-step":
        return _solve_two_step(
            model, variables, config, backend, greedy_context, warm,
            retry_unfixed,
        )
    raise ModelError(f"unknown remap strategy {config.strategy!r}")


def require_not_error(solution) -> None:
    """Raise :class:`SolverError` on ERROR/UNBOUNDED no-solution outcomes.

    Proven infeasibility is a *model* property and drives Algorithm 1's
    relax loop; a time limit without incumbent, a solver crash or an
    unbounded model is a *solver* failure — distinguishing them lets the
    degradation ladder engage instead of relaxing ``ST_target`` forever
    against a solver that cannot answer.
    """
    if (
        not solution.status.has_solution
        and solution.status is not SolveStatus.INFEASIBLE
    ):
        solution.require()


def _extract(variables: RemapVariables, solution) -> dict[int, int]:
    groups = {
        op_id: [(var, pe) for var, pe in members]
        for op_id, members in variables.assign.items()
    }
    return extract_assignment(groups, solution)


def _solve_stats_dict(solution) -> dict | None:
    """The :class:`~repro.obs.solverstats.SolveStats` record of a solve,
    as a JSON-ready dict (``None`` when the backend attached none)."""
    return solution.stats.to_dict() if solution.stats is not None else None


def _solve_monolithic(
    model: Model,
    variables: RemapVariables,
    backend: ScipyBackend,
    warm: "WarmStart | None" = None,
) -> RemapOutcome:
    options: dict = {}
    if warm is not None and warm.reason == "infeasible" and warm.values:
        # The previous solution of this (re-stamped) model seeds the
        # solver's incumbent where the backend supports it.
        options["warm_start"] = warm.values
    with span("milp_solve", strategy="monolithic") as solve_span:
        solution = model.solve(backend, **options)
        elapsed = solve_span.duration_s
        solve_span.set(status=solution.status.value)
        require_not_error(solution)
    stats = {
        "strategy": "monolithic", "solve_s": elapsed,
        "status": solution.status.value,
        "solve_stats": _solve_stats_dict(solution),
    }
    if not solution.status.has_solution:
        return RemapOutcome(feasible=False, stats=stats)
    return RemapOutcome(
        feasible=True,
        assignment=_extract(variables, solution),
        stats=stats,
        warm=WarmStart(values=dict(solution.values)),
        solution=solution,
    )


def _solve_two_step(
    model: Model,
    variables: RemapVariables,
    config: RemapConfig,
    backend: ScipyBackend,
    greedy_context: "GreedyContext | None" = None,
    warm: "WarmStart | None" = None,
    retry_unfixed: bool = False,
) -> RemapOutcome:
    """The paper's LP-relax -> pre-map -> residual-ILP pipeline.

    On large models (``completion="auto"``/"greedy" with a context), the
    residual ILP is replaced by an LP-guided greedy completion: open
    single-core MIP solvers often cannot produce *any* incumbent on a
    10k+-binary model within the iteration budget, while the paper's
    CPLEX could.  The greedy result satisfies exclusivity and the stress
    budget by construction; path delays are re-verified by Algorithm 1's
    full STA pass, which gates every accepted floorplan anyway.

    When ``warm`` carries the pre-mapping of a previous (infeasible)
    iteration, that binding is tried first under the freshly re-stamped
    stress budget: a hit skips the LP relaxation and most of the ILP
    search; a miss reopens the fixes and falls through to the cold path.

    With ``retry_unfixed``, a residual ILP that the threshold pre-mapping
    left proven infeasible is re-solved once with the fixes reopened, on
    models of at most ``config.greedy_threshold`` binaries: the Null
    objective's LP vertex can fix the residual into a corner.  A retry
    cut by a limit keeps the ``infeasible`` verdict.
    """
    stats: dict = {"strategy": "two-step", "rounding": config.rounding}

    with span("milp_solve", strategy="two-step") as solve_span:
        if (
            warm is not None
            and warm.reason == "infeasible"
            and warm.fixing
            and config.rounding == "threshold"
            and _apply_fixing(model, variables, warm.fixing)
        ):
            with span("ilp_warm_fixing", groups_fixed=len(warm.fixing)):
                trial = model.solve(backend, warm_start=warm.values)
            stats["warm_fixing"] = len(warm.fixing)
            stats["ilp_s"] = trial.solve_seconds
            stats["ilp_status"] = trial.status.value
            stats["ilp_stats"] = _solve_stats_dict(trial)
            if trial.status.has_solution:
                counter("milp.warm_fixing_hits").inc()
                stats["status"] = "ok"
                solve_span.set(status="ok", completion="warm_fixing")
                return RemapOutcome(
                    feasible=True,
                    assignment=_extract(variables, trial),
                    stats=stats,
                    warm=WarmStart(
                        fixing=dict(warm.fixing), values=dict(trial.values)
                    ),
                    solution=trial,
                )
            # Miss (still infeasible, or a solver limit): reopen the fixes
            # and run the cold LP→ILP pipeline on the same model.
            counter("milp.warm_fixing_misses").inc()
            model.unfix_all()
            stats["warm_fixing_retry"] = True
        with span("lp_relax"):
            relaxed = model.relaxed()
            lp_solution = relaxed.solve(backend)
            relaxed.restore_types()
        stats["lp_s"] = lp_solution.solve_seconds
        stats["lp_status"] = lp_solution.status.value
        stats["lp_stats"] = _solve_stats_dict(lp_solution)
        require_not_error(lp_solution)
        if not lp_solution.status.has_solution:
            stats["status"] = "lp_" + lp_solution.status.value
            solve_span.set(status=stats["status"])
            return RemapOutcome(feasible=False, stats=stats)

        use_greedy = greedy_context is not None and (
            config.completion == "greedy"
            or (
                config.completion == "auto"
                and model.num_binary > config.greedy_threshold
            )
        )
        if use_greedy:
            with span("greedy_complete"):
                assignment = _greedy_complete(
                    variables, lp_solution, greedy_context
                )
            stats["completion"] = "greedy"
            if assignment is not None:
                stats["status"] = "ok"
                solve_span.set(status="ok", completion="greedy")
                return RemapOutcome(
                    feasible=True, assignment=assignment, stats=stats
                )
            counter("milp.greedy_completion_failures").inc()
            stats["greedy_failed"] = True  # fall through to the ILP

        groups = variables.groups()
        if config.rounding == "threshold":
            report = threshold_fix(
                model, groups, lp_solution, config.fix_threshold
            )
        elif config.rounding == "randomized":
            report = randomized_round(
                model, groups, lp_solution, random.Random(config.seed)
            )
        else:
            raise ModelError(f"unknown rounding strategy {config.rounding!r}")
        stats["groups_fixed"] = report.groups_fixed
        stats["groups_total"] = report.groups_total
        stats["fixed_fraction"] = report.fraction_fixed
        stats["vars_fixed"] = report.variables_fixed
        stats["vars_free"] = report.variables_free

        with span("ilp_fix", groups_fixed=report.groups_fixed):
            ilp_solution = model.solve(backend)
        if ilp_solution.stats is not None:
            # The residual-ILP record carries the LP->ILP pre-mapping
            # outcome, so one SolveStats tells the whole two-step story.
            ilp_solution.stats.record_fixing(
                groups_total=report.groups_total,
                groups_fixed=report.groups_fixed,
                vars_fixed=report.variables_fixed,
                vars_free=report.variables_free,
                threshold=report.details.get("threshold", config.fix_threshold),
            )
        stats["ilp_s"] = ilp_solution.solve_seconds
        stats["ilp_status"] = ilp_solution.status.value
        stats["ilp_stats"] = _solve_stats_dict(ilp_solution)
        require_not_error(ilp_solution)
        # The LP's >threshold pre-mapping is the hint for the next solve of
        # this model: after an infeasible verdict Algorithm 1 relaxes the
        # budget and the same binding is retried first.
        binding = _fixed_assignment(model, variables)
        if (
            retry_unfixed
            and ilp_solution.status is SolveStatus.INFEASIBLE
            and config.rounding == "threshold"
            and report.groups_fixed
            and model.num_binary <= config.greedy_threshold
        ):
            model.unfix_all()
            with span("ilp_unfixed"):
                retry = model.solve(backend)
            counter("milp.unfixed_retries").inc()
            stats["retry_status"] = retry.status.value
            stats["retry_stats"] = _solve_stats_dict(retry)
            if retry.status.has_solution:
                ilp_solution = retry
        if not ilp_solution.status.has_solution:
            stats["status"] = "ilp_" + ilp_solution.status.value
            solve_span.set(status=stats["status"])
            return RemapOutcome(
                feasible=False, stats=stats, warm=WarmStart(fixing=binding)
            )
        stats["status"] = "ok"
        solve_span.set(status="ok", completion="ilp")
    return RemapOutcome(
        feasible=True,
        assignment=_extract(variables, ilp_solution),
        stats=stats,
        warm=WarmStart(fixing=binding, values=dict(ilp_solution.values)),
        solution=ilp_solution,
    )

