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
exported to far-away idle PEs).  ``window=None`` (what
:func:`resolved_window` gives fabrics up to 64 PEs) gives every op every
PE, exactly as in Eq. (3).

Step 1, Algorithm 1 and rotation sets each solve a :class:`RemapProblem`.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field, replace
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
from repro.hls.allocate import MappedDesign, topological_order
from repro.milp.model import Model
from repro.milp.rounding import (
    DEFAULT_FIX_THRESHOLD,
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

#: Binary-variable count above which a solve given a :class:`GreedyContext`
#: tries the greedy completion before the residual ILP; at or below it,
#: the unfixed residual-ILP retry may run.
GREEDY_THRESHOLD = 6000

#: Score bonus (grid units of wirelength) the greedy completion gives a
#: candidate PE per unit of LP mass.
GREEDY_LP_BIAS = 2.0


@dataclass
class RemapConfig:
    """Solution-strategy knobs for one re-mapping solve."""

    strategy: str = "two-step"  # "two-step" | "monolithic"
    rounding: str = "threshold"  # "threshold" | "randomized"
    time_limit_s: float | None = 60.0
    #: Seed of the randomized rounding.
    seed: int = 2020

    def make_backend(self):
        return ScipyBackend(time_limit=self.time_limit_s)


def resolved_window(fabric: Fabric) -> int | None:
    """Candidate window of ``fabric``: every PE (None) up to
    :data:`FULL_CANDIDATE_LIMIT` PEs, that many nearest PEs above it."""
    return None if fabric.num_pes <= FULL_CANDIDATE_LIMIT else FULL_CANDIDATE_LIMIT


@dataclass
class RemapOutcome:
    """Result of one re-mapping solve at a fixed ST_target."""

    feasible: bool
    assignment: dict[int, int] = field(default_factory=dict)  # movable op -> PE
    stats: dict = field(default_factory=dict)
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
    committed_ns: Mapping[int, float] | None = None,
    name: str = "remap",
    objective: str = "null",
) -> tuple[Model, RemapVariables, dict]:
    """Assemble Eq. (3) for one ``ST_target``; returns model + variables + stats.

    ``committed_ns`` is the stress already on each PE before any movable
    op lands; by default the frozen ops' (:func:`frozen_stress_by_pe`).
    ``objective="wirelength"`` serves the ``repro verify --certify-backend``
    oracle, which compares two solvers' optima.
    """
    if committed_ns is None:
        committed_ns = frozen_stress_by_pe(design, frozen)
    with span("milp_build", model=name) as build_span:
        model = Model(name)
        variables = add_assignment_variables(model, candidates, design)
        add_exclusivity_constraints(variables, design, fabric.num_pes)
        add_stress_constraints(
            variables,
            design,
            fabric.num_pes,
            st_target_ns,
            committed_ns,
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


@dataclass
class RemapProblem:
    """One Eq. (3) problem of Phase 2 and, once built, its model.

    The stress committed on each PE before any movable op lands is the
    frozen ops' plus ``carried_ns`` (in a rotation set, what the earlier
    configurations left there).  The first :meth:`solve` builds the model.
    Later ones re-stamp it: the stress rows are registered against the
    ``st_target`` parameter, so that is an O(stress rows) RHS re-stamp on
    the cached lowering, after reopening the previous pre-mapping.  Lazy
    path rows are recorded, so a :meth:`cold_copy` carries them too.
    """

    design: MappedDesign
    fabric: Fabric
    frozen: FrozenPlan
    candidates: Mapping[int, Sequence[int]]
    monitored: Sequence[MonitoredPath]
    cpd_ns: float
    carried_ns: Mapping[int, float] = field(default_factory=dict)
    name: str = "remap"
    #: Lazy path rows added so far, as ``(iteration, paths)``.
    lazy_rows: list = field(default_factory=list)
    committed_ns: dict[int, float] = field(init=False)
    model: Model | None = field(default=None, init=False)
    variables: RemapVariables | None = field(default=None, init=False)

    def __post_init__(self) -> None:
        self.committed_ns = frozen_stress_by_pe(self.design, self.frozen)
        for pe_index, stress in self.carried_ns.items():
            self.committed_ns[pe_index] = (
                self.committed_ns.get(pe_index, 0.0) + stress
            )

    def build(self, st_target_ns: float) -> dict:
        """Assemble the model, lazy rows included; returns the build stats.
        A :class:`~repro.errors.BudgetInfeasibleError` leaves it unbuilt."""
        self.model, self.variables, stats = build_remap_model(
            self.design, self.fabric, self.frozen, self.candidates,
            self.monitored, self.cpd_ns, st_target_ns,
            committed_ns=self.committed_ns, name=self.name,
        )
        for iteration, paths in self.lazy_rows:
            self._add_rows(paths, iteration)
        return stats

    def solve(
        self,
        st_target_ns: float,
        config: RemapConfig,
        backend: ScipyBackend,
        retry_unfixed: bool = False,
    ) -> RemapOutcome:
        """Solve at ``st_target_ns``; the outcome's stats lead with the
        build stats, or with ``restamped``."""
        if self.model is None:
            stamped = self.build(st_target_ns)
        else:
            with span(
                "milp_restamp", model=self.name, st_target_ns=st_target_ns
            ):
                self.model.unfix_all()
                self.model.set_parameter("st_target", st_target_ns)
            counter("milp.models_restamped").inc()
            stamped = {"restamped": True}
        greedy = GreedyContext(
            design=self.design,
            fabric=self.fabric,
            frozen_positions=self.frozen.positions,
            st_target_ns=st_target_ns,
            frozen_stress_ns=self.committed_ns,
        )
        outcome = solve_remap(
            self.model, self.variables, config, backend, greedy, retry_unfixed
        )
        outcome.stats = {**stamped, **outcome.stats}
        return outcome

    def add_path_rows(
        self, paths: Sequence[MonitoredPath], iteration: int
    ) -> int:
        """Add ``paths`` as lazy Eq. (5) rows, which survive re-stamps;
        returns how many rows that made."""
        self.lazy_rows.append((iteration, paths))
        return self._add_rows(paths, iteration)

    def _add_rows(self, paths, iteration: int) -> int:
        build_coordinates(
            self.variables, self.design, self.fabric, self.frozen.positions,
            collect_endpoints(paths),
        )
        added, _frozen = add_path_constraints(
            self.variables, self.design, self.fabric, paths, self.cpd_ns,
            lazy_iteration=iteration,
        )
        return added

    def cold_copy(self) -> RemapProblem:
        """This problem unbuilt, named ``<name>_cold``."""
        return replace(
            self, name=f"{self.name}_cold", lazy_rows=list(self.lazy_rows)
        )


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
    context combinational wires weigh most) minus
    :data:`GREEDY_LP_BIAS` times its LP mass.
    Returns None on a dead end (caller falls back to the ILP).
    """
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
    order: list[int] = []
    for context in range(design.num_contexts):
        order += topological_order(
            (op for op in variables.assign
             if design.ops[op].context == context),
            design.compute_edges,
        )

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
            score = (wire - GREEDY_LP_BIAS * mass, pe_index)
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
    retry_unfixed: bool = False,
) -> RemapOutcome:
    """Run the configured strategy on an assembled model.

    ``greedy_context`` enables the LP-guided greedy completion on models
    above :data:`GREEDY_THRESHOLD` binaries; without it the residual is
    always solved as an ILP, exactly as in the paper.  ``retry_unfixed``
    enables the two-step unfixed retry (Algorithm 1's relax loop; Step 1
    keeps the cold pipeline).
    """
    backend = backend or config.make_backend()
    if config.strategy == "monolithic":
        return _solve_monolithic(model, variables, backend)
    if config.strategy == "two-step":
        return _solve_two_step(
            model, variables, config, backend, greedy_context, retry_unfixed
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
) -> RemapOutcome:
    with span("milp_solve", strategy="monolithic") as solve_span:
        solution = model.solve(backend)
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
        solution=solution,
    )


def _solve_two_step(
    model: Model,
    variables: RemapVariables,
    config: RemapConfig,
    backend: ScipyBackend,
    greedy_context: "GreedyContext | None" = None,
    retry_unfixed: bool = False,
) -> RemapOutcome:
    """The paper's LP-relax -> pre-map -> residual-ILP pipeline.

    On models above :data:`GREEDY_THRESHOLD` binaries, given a context,
    the residual ILP is replaced by an LP-guided greedy completion: open
    single-core MIP solvers often cannot produce *any* incumbent on a
    10k+-binary model within the iteration budget, while the paper's
    CPLEX could.  A greedy dead end falls through to the ILP.  The greedy result satisfies exclusivity and the stress
    budget by construction; path delays are re-verified by Algorithm 1's
    full STA pass, which gates every accepted floorplan anyway.

    With ``retry_unfixed``, a residual ILP that the threshold pre-mapping
    left proven infeasible is re-solved once with the fixes reopened, on
    models of at most :data:`GREEDY_THRESHOLD` binaries: the Null
    objective's LP vertex can fix the residual into a corner.  A retry
    cut by a limit keeps the ``infeasible`` verdict.
    """
    stats: dict = {"strategy": "two-step", "rounding": config.rounding}

    with span("milp_solve", strategy="two-step") as solve_span:
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

        if (
            greedy_context is not None
            and model.num_binary > GREEDY_THRESHOLD
        ):
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
            report = threshold_fix(model, groups, lp_solution)
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
                threshold=report.details.get(
                    "threshold", DEFAULT_FIX_THRESHOLD
                ),
            )
        stats["ilp_s"] = ilp_solution.solve_seconds
        stats["ilp_status"] = ilp_solution.status.value
        stats["ilp_stats"] = _solve_stats_dict(ilp_solution)
        require_not_error(ilp_solution)
        if (
            retry_unfixed
            and ilp_solution.status is SolveStatus.INFEASIBLE
            and config.rounding == "threshold"
            and report.groups_fixed
            and model.num_binary <= GREEDY_THRESHOLD
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
            return RemapOutcome(feasible=False, stats=stats)
        stats["status"] = "ok"
        solve_span.set(status="ok", completion="ilp")
    return RemapOutcome(
        feasible=True,
        assignment=_extract(variables, ilp_solution),
        stats=stats,
        solution=ilp_solution,
    )

