"""Independent certification of solver solutions and re-mapped floorplans.

The solve path is fast through aggressive reuse: structure-cached
lowerings, O(rows) RHS restamps, bounds fixed and reopened in place.
Nothing in that path is allowed to *judge itself* — a silent restamp bug would produce
confidently wrong floorplans.  This module is the auditor: a deliberately
simple, reuse-free re-check of everything an accepted result claims.

Two layers, kept independent of the code they audit:

* :func:`certify_solution` re-evaluates every row of the **uncompiled**
  :class:`~repro.milp.model.Model` (each block's own triplets and the
  live ``Constraint`` objects, not the cached
  :class:`~repro.milp.model.CompiledModel` lowering) against a backend
  :class:`~repro.milp.status.Solution` as a row-by-row ordered sum, with
  explicit absolute and relative tolerances, plus column bounds and
  integrality.
* :func:`certify_floorplan` re-derives the paper's domain invariants from
  first principles: per-PE stress re-accumulated with a plain dict loop
  (not :func:`repro.aging.stress.compute_stress_map`), exactly-one-PE
  bindings and per-(context, PE) slot exclusivity, frozen critical-path
  pinning, schedule preservation, and a fresh full-STA run certifying
  CPD <= baseline.

Failures are reported as :class:`Violation` records with a stable ``kind``
taxonomy (see the ``KIND_*`` constants) so tests and callers can assert on
*why* certification failed; :meth:`Certificate.raise_if_failed` converts
them into a typed :class:`~repro.errors.CertificationError`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Mapping

import numpy as np

from repro.errors import CertificationError
from repro.milp.model import RowBlock
from repro.obs import counter, event, get_logger

_log = get_logger("verify.certifier")

#: Absolute feasibility tolerance for re-checked constraint rows.
ABS_TOL = 1e-6
#: Relative feasibility tolerance (scaled by the row's activity magnitude).
REL_TOL = 1e-9
#: Integrality tolerance for binary/integer variables (HiGHS' default scale).
INT_TOL = 1e-5
#: CPD guard band, matching Algorithm 1's acceptance epsilon.
CPD_EPS = 1e-6

# -- violation taxonomy (stable names; asserted on by the fuzz tests) --------
KIND_ROW = "row_infeasible"
KIND_BOUNDS = "bounds"
KIND_INTEGRALITY = "integrality"
KIND_MISSING_VALUE = "missing_value"
KIND_UNASSIGNED = "unassigned"
KIND_SCHEDULE = "schedule_changed"
KIND_SLOT = "slot_conflict"
KIND_FROZEN = "frozen_moved"
KIND_STRESS = "stress_budget"
KIND_CPD = "cpd_degraded"


@dataclass(frozen=True)
class Violation:
    """One certified-invariant breach.

    ``kind`` is one of the ``KIND_*`` constants; ``subject`` names the
    violated object (a constraint row, an op, a PE); ``magnitude`` is the
    non-negative violation amount in the subject's natural unit.
    ``tags`` carries the violated row's domain metadata
    (:class:`~repro.milp.model.RowMeta` tags — constraint family, PE
    coordinates, op/context ids) so errors and ``certification.failed``
    events speak in problem terms instead of bare row indices.
    """

    kind: str
    subject: str
    detail: str
    magnitude: float = 0.0
    tags: Mapping[str, object] = field(default_factory=dict)

    def to_dict(self) -> dict:
        data = {
            "kind": self.kind,
            "subject": self.subject,
            "detail": self.detail,
            "magnitude": self.magnitude,
        }
        if self.tags:
            data["tags"] = dict(self.tags)
        return data


@dataclass
class Certificate:
    """Outcome of one certification pass."""

    checks: list[str] = field(default_factory=list)
    violations: list[Violation] = field(default_factory=list)
    #: CPD of the certified floorplan, from the STA check's own run
    #: (``None`` when that check was skipped).
    cpd_ns: float | None = None

    @property
    def ok(self) -> bool:
        return not self.violations

    def kinds(self) -> set[str]:
        return {v.kind for v in self.violations}

    def merge(self, other: "Certificate") -> "Certificate":
        self.checks.extend(other.checks)
        self.violations.extend(other.violations)
        return self

    def to_dict(self) -> dict:
        return {
            "ok": self.ok,
            "checks": list(self.checks),
            "violations": [v.to_dict() for v in self.violations],
        }

    def raise_if_failed(self, context: str = "solution") -> None:
        """Raise :class:`CertificationError` carrying every violation."""
        if self.ok:
            return
        head = "; ".join(
            f"{v.kind}[{v.subject}]: {v.detail}" for v in self.violations[:3]
        )
        more = len(self.violations) - 3
        suffix = f" (+{more} more)" if more > 0 else ""
        raise CertificationError(
            f"{context} failed certification: {head}{suffix}",
            violations=tuple(self.violations),
        )


def _row_tolerance(activity: float, rhs: float, abs_tol: float, rel_tol: float) -> float:
    scale = max(1.0, abs(activity), abs(rhs))
    return abs_tol + rel_tol * scale


def _ordered_sums(rows, cols, coefs, x, size: int) -> list[float]:
    """Per-row activities as sequential term-order sums over
    ``(row, col, coef)`` triplets.

    Deliberately *not* ``np.dot`` or a sparse mat-vec: BLAS may
    reassociate the accumulation, so a knife-edge row's verdict could
    depend on the BLAS build.
    """
    totals = [0.0] * size
    for row, col, coef in zip(rows, cols, coefs):
        totals[row] += float(coef) * x[col]
    return totals


def _activities(model, x: list[float]) -> list[float]:
    """Every row's activity at ``x``, block rows from the block's own
    triplets and ``Constraint`` rows from their terms, in row order."""
    activities: list[float] = []
    for segment in model.segments():
        if isinstance(segment, RowBlock):
            activities += _ordered_sums(
                segment.row.tolist(), segment.col.tolist(),
                segment.coef.tolist(), x, segment.size,
            )
        else:
            for constraint in segment:
                terms = constraint.lhs.terms
                activities += _ordered_sums(
                    [0] * len(terms), [var.index for var in terms],
                    terms.values(), x, 1,
                )
    return activities


def certify_solution(
    model,
    solution,
    abs_tol: float = ABS_TOL,
    rel_tol: float = REL_TOL,
    int_tol: float = INT_TOL,
) -> Certificate:
    """Re-check a backend solution against the model's own rows.

    Walks the model's row segments — each block's ``(row, column,
    coefficient)`` triplets and each live
    :class:`~repro.milp.constraint.Constraint` — and evaluates every row
    as an ordered sum over the solution values: a second, independent
    evaluation that shares nothing with the cached
    :meth:`~repro.milp.model.Model.compile` lowering or the layouts
    handed to HiGHS.  Also re-checks per-column bounds and integrality.
    """
    cert = Certificate()
    n = model.num_variables
    x = np.zeros(0) if solution.x is None else np.asarray(solution.x, float)
    for column in range(len(x), n):
        cert.violations.append(
            Violation(
                kind=KIND_MISSING_VALUE,
                subject=model.column_name(column),
                detail="variable has no value in the solution",
            )
        )
    x = x[:n]
    lower, upper = model.lower[: len(x)], model.upper[: len(x)]
    drift = np.abs(x - np.round(x))
    outside = (x < lower - abs_tol) | (x > upper + abs_tol)
    fractional = (model.kinds[: len(x)] != 0) & (drift > int_tol)
    for column in np.flatnonzero(outside | fractional).tolist():
        value, lb, ub = float(x[column]), float(lower[column]), float(upper[column])
        name = model.column_name(column)
        if outside[column]:
            cert.violations.append(
                Violation(
                    kind=KIND_BOUNDS,
                    subject=name,
                    detail=f"value {value:.9g} outside bounds [{lb:g}, {ub:g}]",
                    magnitude=max(lb - value, value - ub, 0.0),
                )
            )
        if fractional[column]:
            cert.violations.append(
                Violation(
                    kind=KIND_INTEGRALITY,
                    subject=name,
                    detail=(
                        f"value {value:.9g} is {drift[column]:.3g} from integral"
                    ),
                    magnitude=float(drift[column]),
                )
            )
    cert.checks.append(f"bounds+integrality over {n} variables")

    # Columns without a value read as 0 in the row audit.
    values = np.concatenate((x, np.zeros(n - len(x)))).tolist()
    rows = model.row_metadata()
    for index, activity in enumerate(_activities(model, values)):
        rhs, sense = float(rows.rhs[index]), rows.senses[index]
        tol = _row_tolerance(activity, rhs, abs_tol, rel_tol)
        if sense == "<=":
            excess = activity - rhs
        elif sense == ">=":
            excess = rhs - activity
        else:
            excess = abs(activity - rhs)
        if excess > tol:
            meta = rows[index]
            cert.violations.append(
                Violation(
                    kind=KIND_ROW,
                    subject=meta.name,
                    detail=(
                        f"row {index}: activity {activity:.9g} "
                        f"{sense} {rhs:.9g} violated by {excess:.3g}"
                    ),
                    magnitude=excess,
                    tags=dict(meta.tags),
                )
            )
    cert.checks.append(f"feasibility over {len(rows)} rows")
    return cert


def certify_floorplan(
    design,
    remapped,
    frozen_positions=None,
    st_target_ns: float | None = None,
    baseline_cpd_ns: float | None = None,
    graphs=None,
    stress_tol_ns: float = ABS_TOL,
) -> Certificate:
    """Re-derive the paper's domain invariants for a re-mapped floorplan.

    Every check is computed from first principles on the binding itself;
    nothing is read back from the MILP, the stress-map cache, or the
    acceptance path being audited.  Checks whose reference input is not
    provided (e.g. ``baseline_cpd_ns``) are skipped.
    """
    cert = Certificate()
    num_pes = remapped.fabric.num_pes

    # Exactly-one-PE bindings, valid PE range, schedule preservation and
    # per-(context, PE) slot exclusivity — one plain pass over the ops.
    occupants: dict[tuple[int, int], int] = {}
    stress_by_pe: dict[int, float] = {}
    for op_id, op in design.ops.items():
        pe_index = remapped.pe_of.get(op_id)
        if pe_index is None:
            cert.violations.append(
                Violation(
                    kind=KIND_UNASSIGNED,
                    subject=f"op{op_id}",
                    detail="op has no PE binding in the remapped floorplan",
                )
            )
            continue
        if not 0 <= pe_index < num_pes:
            cert.violations.append(
                Violation(
                    kind=KIND_BOUNDS,
                    subject=f"op{op_id}",
                    detail=f"bound to PE {pe_index} outside [0, {num_pes})",
                )
            )
            continue
        context = remapped.context_of.get(op_id)
        if context != op.context:
            cert.violations.append(
                Violation(
                    kind=KIND_SCHEDULE,
                    subject=f"op{op_id}",
                    detail=(
                        f"scheduled in context {op.context} but floorplan "
                        f"records context {context}"
                    ),
                )
            )
        slot = (op.context, pe_index)
        other = occupants.get(slot)
        if other is not None:
            cert.violations.append(
                Violation(
                    kind=KIND_SLOT,
                    subject=f"c{op.context},pe{pe_index}",
                    detail=f"ops {other} and {op_id} share the slot",
                    tags={
                        "family": "exclusivity",
                        "context": op.context,
                        "pe": pe_index,
                    },
                )
            )
        else:
            occupants[slot] = op_id
        stress_by_pe[pe_index] = stress_by_pe.get(pe_index, 0.0) + op.stress_ns
    cert.checks.append(
        f"binding/slot/schedule over {len(design.ops)} ops, {num_pes} PEs"
    )

    if frozen_positions:
        for op_id, pe_index in frozen_positions.items():
            actual = remapped.pe_of.get(op_id)
            if actual != pe_index:
                cert.violations.append(
                    Violation(
                        kind=KIND_FROZEN,
                        subject=f"op{op_id}",
                        detail=(
                            f"frozen critical-path op moved: pinned to PE "
                            f"{pe_index}, found on PE {actual}"
                        ),
                    )
                )
        cert.checks.append(f"frozen pinning over {len(frozen_positions)} ops")

    if st_target_ns is not None:
        for pe_index in sorted(stress_by_pe):
            accumulated = stress_by_pe[pe_index]
            if accumulated > st_target_ns + stress_tol_ns:
                cert.violations.append(
                    Violation(
                        kind=KIND_STRESS,
                        subject=f"pe{pe_index}",
                        detail=(
                            f"accumulated stress {accumulated:.6f} ns exceeds "
                            f"ST_target {st_target_ns:.6f} ns"
                        ),
                        magnitude=accumulated - st_target_ns,
                        tags={"family": "stress", "pe": pe_index},
                    )
                )
        cert.checks.append(
            f"stress budget <= {st_target_ns:.6f} ns over {len(stress_by_pe)} PEs"
        )

    if baseline_cpd_ns is not None:
        # Full independent STA on the remapped netlist — the paper's
        # unconditional no-delay-degradation guarantee.
        from repro.timing.sta import analyze

        report = analyze(design, remapped, graphs)
        cert.cpd_ns = report.cpd_ns
        if report.cpd_ns > baseline_cpd_ns + CPD_EPS:
            cert.violations.append(
                Violation(
                    kind=KIND_CPD,
                    subject="cpd",
                    detail=(
                        f"remapped CPD {report.cpd_ns:.6f} ns exceeds baseline "
                        f"{baseline_cpd_ns:.6f} ns"
                    ),
                    magnitude=report.cpd_ns - baseline_cpd_ns,
                )
            )
        cert.checks.append(
            f"STA CPD {report.cpd_ns:.6f} ns <= baseline {baseline_cpd_ns:.6f} ns"
        )
    return cert


def certify_remap(
    design,
    remapped,
    frozen_positions,
    st_target_ns: float,
    baseline_cpd_ns: float,
    model=None,
    solution=None,
    graphs=None,
) -> Certificate:
    """Full trust-but-verify pass on one accepted Algorithm 1 iteration.

    Domain invariants always run; the row-by-row solution re-check runs
    when the accepting solve produced a backend :class:`Solution` (a
    greedy completion legitimately has none).
    Emits ``certification.checked`` / ``certification.failed`` events and
    counters either way.
    """
    cert = certify_floorplan(
        design,
        remapped,
        frozen_positions=frozen_positions,
        st_target_ns=st_target_ns,
        baseline_cpd_ns=baseline_cpd_ns,
        graphs=graphs,
    )
    if model is not None and solution is not None:
        cert.merge(certify_solution(model, solution))
    counter("verify.certifications").inc()
    if cert.ok:
        event(
            "certification.checked",
            benchmark=design.name,
            checks=len(cert.checks),
        )
    else:
        counter("verify.cert_failures").inc()
        event(
            "certification.failed",
            benchmark=design.name,
            violations=[v.to_dict() for v in cert.violations[:8]],
        )
        _log.warning(
            "%s: certification failed with %d violation(s): %s",
            design.name,
            len(cert.violations),
            "; ".join(
                f"{v.kind}[{v.subject}]" for v in cert.violations[:5]
            ),
        )
    return cert
