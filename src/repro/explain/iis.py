"""Irreducible infeasible subsystem (IIS) extraction by deletion filtering.

When Algorithm 1's MILP comes back infeasible, the useful question is not
*that* it is infeasible but *which small set of constraints conflict* —
e.g. three stress rows whose PEs cannot jointly absorb the movable load
at the current ``ST_target``.  Deletion filtering answers it exactly:

1. confirm the full row set is infeasible (a fault-injected verdict on a
   actually-feasible model is caught here and reported honestly);
2. drop rows chunk-wise while infeasibility persists (fast shrink);
3. one pass over the survivors, dropping each row whose removal keeps
   the system infeasible.

After a *complete* per-row pass the survivor set is minimal: feasibility
is monotone under row removal, so if dropping row ``r`` from an earlier
superset was feasible, dropping it from the final subset is feasible too
— every kept row is certifiably necessary.

Probes run on row submatrices of the compiled CSR through the HiGHS
backend's own call (:func:`repro.milp.scipy_backend.run_highs`).  An LP
probe runs first (LP infeasible implies MILP infeasible); only when the
LP is feasible and integer variables exist does a time-limited MILP
probe run.  An indeterminate probe (limit hit) keeps the row and marks
the result unverified rather than guessing.

Variable *bounds* (including ``fix_columns`` pins) are part of the
background system, not candidates for deletion — an IIS here is a
minimal set of *rows* given the bounds, which matches how the model
builders express all domain facts as rows.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Mapping, Sequence

import numpy as np

#: Default wall-clock budget for one whole extraction.
DEFAULT_TIME_LIMIT_S = 30.0

#: Per-probe MILP time limit (LP probes are effectively instant).
PROBE_TIME_LIMIT_S = 2.0

#: Rows above which the chunked pre-pass kicks in.
_CHUNK_THRESHOLD = 32


@dataclass(frozen=True)
class IISMember:
    """One constraint row of the irreducible infeasible subsystem."""

    index: int
    name: str
    sense: str
    rhs: float
    tags: Mapping[str, object] = field(default_factory=dict)

    def describe(self) -> str:
        head = f"{self.name} {self.sense} {self.rhs:g}"
        if not self.tags:
            return head
        parts = ", ".join(f"{k}={v}" for k, v in sorted(self.tags.items()))
        return f"{head}  [{parts}]"

    def to_dict(self) -> dict:
        return {
            "index": self.index,
            "name": self.name,
            "sense": self.sense,
            "rhs": self.rhs,
            "tags": dict(self.tags),
        }


@dataclass
class IISResult:
    """Outcome of an extraction attempt.

    ``status`` is ``"iis"`` (members form an infeasible subsystem),
    ``"feasible"`` (the model is NOT infeasible — e.g. the verdict came
    from fault injection or a solver limit) or ``"indeterminate"``
    (probes could not decide within budget).  ``minimal`` is True only
    when the full per-row pass completed; ``verified`` additionally
    requires every probe along the way to have been decisive.
    """

    status: str
    members: tuple[IISMember, ...] = ()
    minimal: bool = False
    verified: bool = False
    probes: int = 0
    elapsed_s: float = 0.0
    note: str = ""

    @property
    def families(self) -> dict[str, int]:
        """How many members each constraint family contributes."""
        histogram: dict[str, int] = {}
        for member in self.members:
            family = str(member.tags.get("family", "untagged"))
            histogram[family] = histogram.get(family, 0) + 1
        return histogram

    @property
    def involves(self) -> dict[str, list]:
        """Domain entities named by the members' tags."""
        pes: set[int] = set()
        contexts: set[int] = set()
        ops: set[int] = set()
        for member in self.members:
            tags = member.tags
            if "pe" in tags:
                pes.add(int(tags["pe"]))
            if tags.get("context") is not None:
                contexts.add(int(tags["context"]))
            if "op" in tags:
                ops.add(int(tags["op"]))
            for op in tags.get("ops", ()):
                ops.add(int(op))
        return {
            "pes": sorted(pes),
            "contexts": sorted(contexts),
            "ops": sorted(ops),
        }

    def describe(self) -> str:
        """Multi-line human narrative of the conflict."""
        if self.status == "feasible":
            return (
                "model is feasible on independent re-check — the infeasible "
                "verdict did not come from the constraints "
                f"({self.note or 'solver limit or injected fault'})"
            )
        if self.status == "indeterminate":
            return f"IIS extraction inconclusive: {self.note or 'probe budget hit'}"
        lines = [
            f"{len(self.members)} conflicting constraints "
            f"({'minimal' if self.minimal else 'reduced, not proven minimal'}"
            f"{', verified' if self.verified else ''}):"
        ]
        for member in self.members:
            lines.append(f"  - {member.describe()}")
        involves = self.involves
        summary = ", ".join(
            f"{kind} {values}" for kind, values in involves.items() if values
        )
        if summary:
            lines.append(f"  involves {summary}")
        return "\n".join(lines)

    def to_dict(self) -> dict:
        return {
            "status": self.status,
            "members": [member.to_dict() for member in self.members],
            "minimal": self.minimal,
            "verified": self.verified,
            "probes": self.probes,
            "elapsed_s": round(self.elapsed_s, 6),
            "families": self.families,
            "involves": self.involves,
            "note": self.note,
        }


class _Prober:
    """Feasibility probes over row subsets of one compiled matrix form."""

    def __init__(self, form, time_limit_s: float, probe_limit_s: float) -> None:
        self.form = form
        self.row_lower, self.row_upper = (
            form.compiled.ilp_layout().row_bounds(form.rhs)
        )
        self.has_integers = bool(form.integrality.any())
        self.zero_cost = np.zeros(len(form.lower))
        self.deadline = time.monotonic() + time_limit_s
        self.probe_limit_s = probe_limit_s
        self.probes = 0

    def out_of_budget(self) -> bool:
        return time.monotonic() >= self.deadline

    def infeasible(self, rows: np.ndarray) -> bool | None:
        """True = subset proven infeasible, False = feasible, None = unknown."""
        self.probes += 1
        if not len(self.zero_cost):
            # Zero-variable system (every op frozen): each row's LHS is the
            # empty sum 0, so feasibility is a direct bound check — scipy
            # rejects an empty cost vector, and no probe is needed anyway.
            if not rows.size:
                return False
            satisfied = (self.row_lower[rows] <= 0.0) & (self.row_upper[rows] >= 0.0)
            return not bool(satisfied.all())
        layout = self.form.compiled.ilp_layout(rows)
        verdict = self._solve(layout, relax=True)
        if verdict is True:
            return True  # LP infeasible => MILP infeasible
        if not self.has_integers:
            return verdict
        if verdict is None:
            return None
        return self._solve(layout, relax=False)

    def _solve(self, layout, relax: bool) -> bool | None:
        from repro.milp.scipy_backend import run_highs

        budget = min(self.probe_limit_s, max(self.deadline - time.monotonic(), 0.05))
        form = self.form
        try:
            run = run_highs(
                layout, *layout.row_bounds(form.rhs), self.zero_cost,
                form.lower, form.upper, None if relax else form.integrality,
                {"log_to_console": False, "time_limit": budget, "presolve": "on"},
            )
        except Exception:  # pragma: no cover - defensive: HiGHS edge cases
            return None
        if run.code == 2:
            return True
        if run.code == 0:
            return False
        return None


def find_iis(
    model,
    time_limit_s: float = DEFAULT_TIME_LIMIT_S,
    probe_limit_s: float = PROBE_TIME_LIMIT_S,
) -> IISResult:
    """Extract an IIS from (the current stamp of) ``model``.

    ``model`` is a :class:`repro.milp.model.Model`; the probe matrix is
    its compiled matrix form at current parameter values and variable
    bounds, so the result explains exactly the solve that just failed.
    """
    start = time.monotonic()
    form = model.to_matrix_form()
    metas = model.row_metadata()
    m = form.a_matrix.shape[0]
    prober = _Prober(form, time_limit_s, probe_limit_s)

    def finish(status, active=None, minimal=False, decisive=True, note=""):
        members = tuple(
            IISMember(
                index=metas[i].index,
                name=metas[i].name,
                sense=metas[i].sense,
                rhs=float(metas[i].rhs),
                tags=dict(metas[i].tags),
            )
            for i in (active if active is not None else ())
        )
        return IISResult(
            status=status,
            members=members,
            minimal=minimal,
            verified=minimal and decisive,
            probes=prober.probes,
            elapsed_s=time.monotonic() - start,
            note=note,
        )

    # The initial all-rows probe is the honesty check (a fault-injected or
    # limit-induced "infeasible" verdict on a feasible model must be caught
    # here), so it gets a larger slice of the budget than later probes.
    all_rows = np.arange(m)
    prober.probe_limit_s = max(probe_limit_s, time_limit_s / 2.0)
    verdict = prober.infeasible(all_rows)
    prober.probe_limit_s = probe_limit_s
    if verdict is False:
        return finish("feasible", note="full row set is feasible on re-check")
    if verdict is None:
        return finish("indeterminate", note="initial feasibility probe hit its limit")

    active = all_rows
    decisive = True

    # Chunked pre-pass: halve-ish the active set while infeasibility holds.
    chunk = max(len(active) // 4, _CHUNK_THRESHOLD)
    while chunk >= _CHUNK_THRESHOLD and len(active) > _CHUNK_THRESHOLD:
        if prober.out_of_budget():
            return finish(
                "iis", active, minimal=False, decisive=False,
                note="time budget hit during chunk pre-pass",
            )
        progressed = False
        start_idx = 0
        while start_idx < len(active):
            candidate = np.concatenate(
                (active[:start_idx], active[start_idx + chunk:])
            )
            if prober.infeasible(candidate) is True:
                active = candidate
                progressed = True
            else:
                start_idx += chunk
            if prober.out_of_budget():
                return finish(
                    "iis", active, minimal=False, decisive=False,
                    note="time budget hit during chunk pre-pass",
                )
        if not progressed:
            chunk //= 2

    # Minimality pass: one complete sweep, dropping every removable row.
    position = 0
    while position < len(active):
        if prober.out_of_budget():
            return finish(
                "iis", active, minimal=False, decisive=decisive,
                note="time budget hit during minimality pass",
            )
        candidate = np.concatenate((active[:position], active[position + 1:]))
        probe = prober.infeasible(candidate)
        if probe is True:
            active = candidate  # row not needed for infeasibility
        else:
            if probe is None:
                decisive = False  # conservative: keep the row
            position += 1

    return finish("iis", active, minimal=True, decisive=decisive)


def verify_iis(
    model,
    result: IISResult,
    probe_limit_s: float = PROBE_TIME_LIMIT_S,
    time_limit_s: float = DEFAULT_TIME_LIMIT_S,
) -> bool:
    """Independently certify ``result``: the members alone are infeasible
    and dropping any single member restores feasibility."""
    if result.status != "iis" or not result.members:
        return False
    form = model.to_matrix_form()
    prober = _Prober(form, time_limit_s, probe_limit_s)
    rows = np.array([member.index for member in result.members])
    if prober.infeasible(rows) is not True:
        return False
    for drop in range(len(rows)):
        candidate = np.concatenate((rows[:drop], rows[drop + 1:]))
        if prober.infeasible(candidate) is not False:
            return False
    return True
