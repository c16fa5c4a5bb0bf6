"""MILP constraint builders for the re-mapping formulation (paper Eq. 3).

The formulation's variables are the binary assignments ``OP_ijk`` (op j of
context i on PE k).  Four constraint families are built here:

* **assignment** — each op is bound to exactly one candidate PE;
* **exclusivity** — a PE hosts at most one op per context (implicit in any
  legal floorplan; stated explicitly for the solver);
* **stress** — per-PE accumulated stress (movable + frozen contributions)
  must not exceed ``ST_target``;
* **path wire length** — Eq. (5): each monitored path's total Manhattan
  wire length must fit its delay slack.

The paper's Eq. (5) expresses wire length as the Manhattan distance
between driver and load, both of which are selected by binary variables —
a product of binaries if written directly.  We linearise it exactly:
an op's coordinates are the *linear* expressions
``X = sum_k col(k) * x_k`` / ``Y = sum_k row(k) * x_k`` (one-hot over
candidates), and each wire segment gets auxiliary variables
``dx >= +-(X_a - X_b)``, ``dy >= +-(Y_a - Y_b)``; the path constraint
bounds ``sum (dx + dy)`` from above, which forces each ``dx``/``dy`` to
its exact absolute value whenever the bound is active.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Mapping, Sequence

from repro.arch.fabric import Fabric
from repro.errors import BudgetInfeasibleError, ModelError
from repro.hls.allocate import MappedDesign
from repro.milp.expr import LinExpr, Variable, linear_sum
from repro.milp.model import Model
from repro.timing.graph import Endpoint, EndpointKind
from repro.timing.kpaths import MonitoredPath


@dataclass
class CoordinateExprs:
    """Linear coordinate expressions (or constants) for every endpoint."""

    x_of: dict[object, LinExpr] = field(default_factory=dict)
    y_of: dict[object, LinExpr] = field(default_factory=dict)


@dataclass
class RemapVariables:
    """The decision variables of one re-mapping model.

    Attributes
    ----------
    model:
        The MILP under construction.
    assign:
        ``{op_id: [(variable, pe_index), ...]}`` one-hot groups.
    coords:
        Per-endpoint coordinate expressions.
    distance_vars:
        Shared ``(dx, dy)`` auxiliaries per wire segment.
    """

    model: Model
    assign: dict[int, list[tuple[Variable, int]]] = field(default_factory=dict)
    coords: CoordinateExprs = field(default_factory=CoordinateExprs)
    distance_vars: dict[frozenset, tuple[Variable, Variable]] = field(
        default_factory=dict
    )

    def groups(self) -> list[list[Variable]]:
        """Assignment groups for the rounding strategies."""
        return [[var for var, _ in members] for members in self.assign.values()]


def _endpoint_key(endpoint: Endpoint) -> tuple[str, int]:
    return (endpoint.kind.value, endpoint.ident)


def add_assignment_variables(
    model: Model,
    candidates: Mapping[int, Sequence[int]],
    design: MappedDesign,
) -> RemapVariables:
    """Create the one-hot OP_ijk variables and assignment constraints."""
    variables = RemapVariables(model=model)
    for op_id in sorted(candidates):
        context = design.ops[op_id].context
        members: list[tuple[Variable, int]] = []
        for pe_index in candidates[op_id]:
            var = model.add_binary(f"x[{op_id},c{context},pe{pe_index}]")
            members.append((var, pe_index))
        if not members:
            raise ModelError(f"op {op_id} has no candidate PEs")
        variables.assign[op_id] = members
        model.add_constraint(
            linear_sum(var for var, _ in members) == 1,
            name=f"assign[{op_id}]",
            tags={"family": "assignment", "op": op_id, "context": context},
        )
    return variables


def add_exclusivity_constraints(
    variables: RemapVariables,
    design: MappedDesign,
    num_pes: int,
) -> None:
    """At most one movable op per (context, PE) slot.

    Slots occupied by frozen ops must already be excluded from candidate
    sets, so they need no constraint here.
    """
    per_slot: dict[tuple[int, int], list[Variable]] = {}
    for op_id, members in variables.assign.items():
        context = design.ops[op_id].context
        for var, pe_index in members:
            per_slot.setdefault((context, pe_index), []).append(var)
    for (context, pe_index), slot_vars in sorted(per_slot.items()):
        if len(slot_vars) < 2:
            continue  # a single candidate can never conflict
        variables.model.add_constraint(
            linear_sum(slot_vars) <= 1,
            name=f"slot[c{context},pe{pe_index}]",
            tags={"family": "exclusivity", "context": context, "pe": pe_index},
        )


def add_stress_constraints(
    variables: RemapVariables,
    design: MappedDesign,
    num_pes: int,
    st_target_ns: float,
    frozen_stress_ns: Mapping[int, float],
    fabric: Fabric | None = None,
) -> None:
    """Per-PE accumulated stress budget (the first constraint of Eq. 3).

    The rows are registered against the model's ``st_target`` RHS
    parameter, so Algorithm 1's relaxation loop re-stamps them in O(PEs)
    via ``model.set_parameter("st_target", value)`` instead of rebuilding
    the model (the only thing the loop varies is this budget).

    When ``fabric`` is given, rows carry the PE's grid coordinates in
    their domain tags so diagnostics can point at the physical cell.
    """
    per_pe_terms: dict[int, list[LinExpr]] = {}
    for op_id, members in variables.assign.items():
        stress = design.ops[op_id].stress_ns
        for var, pe_index in members:
            per_pe_terms.setdefault(pe_index, []).append(
                LinExpr.from_term(var, stress)
            )
    variables.model.declare_parameter("st_target", st_target_ns)
    for pe_index in range(num_pes):
        frozen = frozen_stress_ns.get(pe_index, 0.0)
        if frozen > st_target_ns + 1e-9:
            exc = BudgetInfeasibleError(
                f"frozen stress {frozen:.3f}ns on PE {pe_index} already "
                f"exceeds ST_target {st_target_ns:.3f}ns"
            )
            exc.pe_index = pe_index
            exc.frozen_ns = frozen
            exc.st_target_ns = st_target_ns
            raise exc
        terms = per_pe_terms.get(pe_index)
        if terms is None:
            continue
        tags: dict[str, object] = {
            "family": "stress",
            "pe": pe_index,
            "frozen_ns": round(frozen, 9),
        }
        if fabric is not None:
            tags["row"] = int(fabric.row_of[pe_index])
            tags["col"] = int(fabric.col_of[pe_index])
        variables.model.add_constraint(
            linear_sum(terms) <= st_target_ns - frozen,
            name=f"stress[pe{pe_index}]",
            parameter="st_target",
            tags=tags,
        )


def build_coordinates(
    variables: RemapVariables,
    design: MappedDesign,
    fabric: Fabric,
    frozen_positions: Mapping[int, int],
    endpoints: set[Endpoint],
) -> None:
    """Coordinate expressions for every endpooint used by path constraints.

    Movable ops get linear one-hot expressions; frozen ops and pads get
    constants.
    """
    coords = variables.coords
    for endpoint in endpoints:
        key = _endpoint_key(endpoint)
        if key in coords.x_of:
            continue
        if endpoint.kind is EndpointKind.OP:
            op_id = endpoint.ident
            if op_id in variables.assign:
                members = variables.assign[op_id]
                coords.x_of[key] = linear_sum(
                    LinExpr.from_term(var, fabric.col_of[pe]) for var, pe in members
                )
                coords.y_of[key] = linear_sum(
                    LinExpr.from_term(var, fabric.row_of[pe]) for var, pe in members
                )
            elif op_id in frozen_positions:
                pe = fabric.pe(frozen_positions[op_id])
                coords.x_of[key] = LinExpr.constant_expr(float(pe.col))
                coords.y_of[key] = LinExpr.constant_expr(float(pe.row))
            else:
                raise ModelError(
                    f"endpoint op {op_id} is neither movable nor frozen"
                )
        else:
            if endpoint.kind is EndpointKind.IN_PAD:
                pad = fabric.input_pad(endpoint.ident)
            else:
                pad = fabric.output_pad(endpoint.ident)
            coords.x_of[key] = LinExpr.constant_expr(pad.col)
            coords.y_of[key] = LinExpr.constant_expr(pad.row)


def _segment_distance(
    variables: RemapVariables,
    fabric: Fabric,
    a: Endpoint,
    b: Endpoint,
) -> LinExpr:
    """Expression bounding the Manhattan distance of one wire segment.

    Constant when both endpoints are fixed; otherwise a shared ``dx + dy``
    pair of auxiliaries with the four absolute-value constraints.
    """
    coords = variables.coords
    key_a, key_b = _endpoint_key(a), _endpoint_key(b)
    x_a, y_a = coords.x_of[key_a], coords.y_of[key_a]
    x_b, y_b = coords.x_of[key_b], coords.y_of[key_b]
    if x_a.is_constant() and x_b.is_constant():
        distance = abs(x_a.constant - x_b.constant) + abs(y_a.constant - y_b.constant)
        return LinExpr.constant_expr(distance)
    pair = frozenset((key_a, key_b))
    if pair in variables.distance_vars:
        dx, dy = variables.distance_vars[pair]
        return LinExpr.from_term(dx) + LinExpr.from_term(dy)
    span = float(fabric.rows + fabric.cols + 2)  # pads sit 1 cell off-grid
    model = variables.model
    tag = f"{key_a[0]}{key_a[1]}_{key_b[0]}{key_b[1]}"
    dx = model.add_continuous(f"dx[{tag}]", 0.0, span)
    dy = model.add_continuous(f"dy[{tag}]", 0.0, span)
    seg_tags = {"family": "distance", "segment": tag}
    model.add_constraint(dx >= x_a - x_b, name=f"absx+[{tag}]", tags=seg_tags)
    model.add_constraint(dx >= x_b - x_a, name=f"absx-[{tag}]", tags=seg_tags)
    model.add_constraint(dy >= y_a - y_b, name=f"absy+[{tag}]", tags=seg_tags)
    model.add_constraint(dy >= y_b - y_a, name=f"absy-[{tag}]", tags=seg_tags)
    variables.distance_vars[pair] = (dx, dy)
    return LinExpr.from_term(dx) + LinExpr.from_term(dy)


def add_path_constraints(
    variables: RemapVariables,
    design: MappedDesign,
    fabric: Fabric,
    paths: Sequence[MonitoredPath],
    cpd_ns: float,
    lazy_iteration: int | None = None,
) -> tuple[int, int]:
    """Eq. (5) wire-length slack constraints for the monitored paths.

    Returns ``(constraints added, frozen violations skipped)``.  Paths
    whose wire segments are all between fixed endpoints reduce to
    constants: when such a path violates its slack (possible in Rotate
    mode through a changed entry wire, since rotation only preserves
    intra-context distances), no ST_target value can repair it — it is
    skipped here and left to Algorithm 1's CPD re-check, which will reject
    the floorplan and relax or fall back.

    ``lazy_iteration`` marks rows Algorithm 1 adds after a CPD violation
    (the path filter made lazy): they are named ``lazy_path[it.i]`` and
    tagged ``lazy: True`` plus the relax-loop iteration that added them.
    """
    added = 0
    frozen_violations = 0
    for index, monitored in enumerate(paths):
        path = monitored.path
        pe_delay = path.pe_delay_ns(design)
        slack_ns = cpd_ns - pe_delay
        if slack_ns < -1e-9:
            raise ModelError(
                f"path {index} has PE delay {pe_delay:.3f}ns above the CPD "
                f"{cpd_ns:.3f}ns; it should have been frozen, not constrained"
            )
        max_length = slack_ns / fabric.unit_wire_delay_ns
        total = LinExpr.sum(
            _segment_distance(variables, fabric, a, b)
            for a, b in path.wire_segments()
        )
        if total.is_constant():
            if total.constant > max_length + 1e-9:
                frozen_violations += 1
            continue
        tags = {
            "family": "path",
            "path": index,
            "context": path.context,
            "ops": list(path.chain),
            "delay_ns": round(monitored.delay_ns, 9),
        }
        name = f"path[{index}]"
        if lazy_iteration is not None:
            tags.update(lazy=True, iteration=lazy_iteration)
            name = f"lazy_path[{lazy_iteration}.{index}]"
        variables.model.add_constraint(total <= max_length, name=name, tags=tags)
        added += 1
    return added, frozen_violations


def design_wire_endpoints(design: MappedDesign) -> list[tuple[Endpoint, Endpoint]]:
    """Every physical wire of the design as an endpoint pair.

    Compute-to-compute wires (same or crossing contexts — the register read
    runs from the producer's physical PE either way), pad-to-PE input wires
    and PE-to-pad output wires.
    """
    wires: list[tuple[Endpoint, Endpoint]] = []
    for src, dst in design.compute_edges:
        wires.append((Endpoint.op(src), Endpoint.op(dst)))
    for ordinal, dst in design.input_edges:
        wires.append((Endpoint.in_pad(ordinal), Endpoint.op(dst)))
    for src, ordinal in design.output_edges:
        wires.append((Endpoint.op(src), Endpoint.out_pad(ordinal)))
    return wires


def add_wirelength_objective(
    variables: RemapVariables,
    design: MappedDesign,
    fabric: Fabric,
    frozen_positions: Mapping[int, int],
) -> None:
    """Minimise the design's total wire length.

    The flow solves the paper's Eq. (3) as a pure feasibility model
    (ObjFunc: Null).  This objective exists for the ``repro verify
    --certify-backend`` oracle: its restricted per-context models need an
    optimum on which HiGHS and branch-and-bound can be compared.
    """
    wires = design_wire_endpoints(design)
    endpoints: set[Endpoint] = set()
    for a, b in wires:
        endpoints.add(a)
        endpoints.add(b)
    build_coordinates(variables, design, fabric, frozen_positions, endpoints)
    # Single-pass accumulation: repeated `+` would copy the growing term
    # dict once per wire (quadratic in design size).
    total = LinExpr.sum(
        _segment_distance(variables, fabric, a, b) for a, b in wires
    )
    variables.model.set_objective(total, minimize=True)


def collect_endpoints(paths: Sequence[MonitoredPath]) -> set[Endpoint]:
    """All wire endpoints referenced by a set of monitored paths."""
    endpoints: set[Endpoint] = set()
    for monitored in paths:
        for a, b in monitored.path.wire_segments():
            endpoints.add(a)
            endpoints.add(b)
    return endpoints
