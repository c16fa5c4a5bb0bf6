"""Solver convergence telemetry (``repro.obs.solverstats``).

The paper's whole contribution is a solver loop — Algorithm 1 relaxes
``ST_target`` by ``Delta`` until the Eq. (3) MILP (via the two-step
LP->ILP relaxation) yields a CPD-preserving floorplan.  This module gives
that loop a flight recorder:

* :class:`SolveStats` — one record per backend solve (nodes explored,
  incumbent/bound trajectory sampled over time, final MIP gap, LP
  relaxation objective, LP->ILP pre-mapping counts, limit-hit reason),
  attached to every :class:`~repro.milp.status.Solution` the backends
  return and mirrored into the ``solver`` span attributes so traces can
  be aggregated offline into a convergence table;
* :class:`Algorithm1Stats` — the outer-loop record (Step 1's floor and
  bumps, the ``ST_target``/``Delta`` relaxation trajectory, per-iteration
  CPD verdicts), attached to
  :class:`~repro.core.algorithm1.RemapResult` and emitted as an
  ``algorithm1.stats`` trace event;
* :class:`SolveProgress` — an opt-in live stderr progress line
  (incumbent/gap/nodes/elapsed) for long branch-and-bound solves,
  activated by ``--solver-progress`` or ``REPRO_SOLVER_PROGRESS=1``.

Everything here is plain data (no solver imports), so the MILP layer and
the trace tooling can both depend on it without cycles.
"""

from __future__ import annotations

import math
import os
import sys
from dataclasses import dataclass, field
from typing import Any, Mapping, Sequence

#: Environment variable that switches the live progress line on.
PROGRESS_ENV_VAR = "REPRO_SOLVER_PROGRESS"

#: Seconds between live progress updates.
PROGRESS_INTERVAL_S = 1.0

#: Keep at most this many trajectory samples per solve; the recorder
#: thins to every other sample when full, so long solves keep a uniform,
#: bounded history instead of a dense prefix.
MAX_TRAJECTORY_SAMPLES = 256


def relative_gap(incumbent: float | None, bound: float | None) -> float | None:
    """HiGHS-style relative MIP gap ``|inc - bound| / max(1e-9, |inc|)``.

    ``None`` when either side is missing or non-finite (no incumbent yet,
    or an unbounded relaxation).
    """
    if incumbent is None or bound is None:
        return None
    if not (math.isfinite(incumbent) and math.isfinite(bound)):
        return None
    return abs(incumbent - bound) / max(1e-9, abs(incumbent))


@dataclass
class TrajectorySample:
    """One point of a solve's incumbent/bound history."""

    t_s: float
    nodes: int
    incumbent: float | None
    bound: float | None

    def to_dict(self) -> dict:
        return {
            "t_s": round(self.t_s, 6),
            "nodes": self.nodes,
            "incumbent": self.incumbent,
            "bound": self.bound,
        }


@dataclass
class SolveStats:
    """Telemetry of one backend solve, attached to its ``Solution``.

    The supported way to learn what a solve did: the record travels with
    the :class:`~repro.milp.status.Solution`, so concurrent or nested
    solves cannot clobber each other's numbers (mutable backend state such
    as the former ``BranchBoundBackend.last_node_count`` could).
    """

    backend: str = ""
    kind: str = "milp"  # "milp" | "lp"
    nodes: int = 0
    #: Objective of the returned incumbent (backend sense), None when no
    #: incumbent exists.
    incumbent: float | None = None
    #: Best proven dual bound at termination.
    best_bound: float | None = None
    #: Final relative MIP gap (None for LPs / no-incumbent outcomes).
    mip_gap: float | None = None
    #: Objective of the root LP relaxation, when the backend solved one.
    lp_objective: float | None = None
    #: Why the solve stopped early: "" (ran to completion),
    #: "node_limit", "time_limit" or "limit" (HiGHS stopped at a limit
    #: with no time limit set), "deadline" (the flow budget expired),
    #: "solver_error" (a branch-and-bound node LP failed after an
    #: incumbent was found) or "fault_injected".
    limit_reason: str = ""
    elapsed_s: float = 0.0
    trajectory: list[TrajectorySample] = field(default_factory=list)
    # -- LP->ILP pre-mapping (the paper's 0.95 threshold), recorded on the
    # residual-ILP solve of the two-step method ------------------------------
    fix_threshold: float | None = None
    groups_total: int | None = None
    groups_fixed: int | None = None
    vars_fixed: int | None = None
    #: Binary variables that survived the pre-mapping into the ILP.
    vars_free: int | None = None
    #: Binding/slack attribution of a feasible solve
    #: (:func:`repro.explain.attribute_solution` output): per-family slack
    #: histograms, top-k binding rows in domain terms, saturated PEs and
    #: wire-length-critical paths.  ``None`` when diagnostics are off or
    #: the solve produced no solution.
    attribution: dict | None = None

    # -- recording helpers ---------------------------------------------------
    def sample(
        self,
        t_s: float,
        nodes: int,
        incumbent: float | None,
        bound: float | None,
    ) -> None:
        """Append a trajectory point, thinning once the buffer is full."""
        self.trajectory.append(TrajectorySample(t_s, nodes, incumbent, bound))
        if len(self.trajectory) > MAX_TRAJECTORY_SAMPLES:
            del self.trajectory[1::2]

    def record_fixing(
        self,
        groups_total: int,
        groups_fixed: int,
        vars_fixed: int,
        vars_free: int,
        threshold: float,
    ) -> None:
        """Attach the LP->ILP pre-mapping outcome to this (ILP) solve."""
        self.groups_total = groups_total
        self.groups_fixed = groups_fixed
        self.vars_fixed = vars_fixed
        self.vars_free = vars_free
        self.fix_threshold = threshold

    # -- views ---------------------------------------------------------------
    @property
    def gap_percent(self) -> float | None:
        return None if self.mip_gap is None else 100.0 * self.mip_gap

    def span_attrs(self) -> dict:
        """Compact attribute dict for the enclosing ``solver`` span.

        These attributes are what ``trace summarize`` aggregates into the
        per-solve convergence table, so the keys are part of the trace
        contract (docs/observability.md).
        """
        attrs: dict[str, Any] = {
            "nodes": self.nodes,
            "kind": self.kind,
        }
        if self.incumbent is not None:
            attrs["incumbent"] = self.incumbent
        if self.best_bound is not None:
            attrs["bound"] = self.best_bound
        if self.mip_gap is not None:
            attrs["gap"] = self.mip_gap
        if self.limit_reason:
            attrs["limit_reason"] = self.limit_reason
        if self.groups_total is not None:
            attrs["groups_fixed"] = self.groups_fixed
            attrs["groups_total"] = self.groups_total
            attrs["vars_free"] = self.vars_free
        if self.attribution is not None:
            # Mirror only the compact summary; the full attribution dict
            # travels on the Solution's stats.
            from repro.explain.attribution import attribution_brief

            attrs["attribution"] = attribution_brief(self.attribution)
        return attrs

    def to_dict(self) -> dict:
        """JSON-ready form (iteration logs, BENCH records)."""
        data: dict[str, Any] = {
            "backend": self.backend,
            "kind": self.kind,
            "nodes": self.nodes,
            "incumbent": self.incumbent,
            "best_bound": self.best_bound,
            "mip_gap": self.mip_gap,
            "lp_objective": self.lp_objective,
            "limit_reason": self.limit_reason,
            "elapsed_s": self.elapsed_s,
            "trajectory": [point.to_dict() for point in self.trajectory],
        }
        if self.attribution is not None:
            data["attribution"] = self.attribution
        if self.groups_total is not None:
            data["fixing"] = {
                "threshold": self.fix_threshold,
                "groups_total": self.groups_total,
                "groups_fixed": self.groups_fixed,
                "vars_fixed": self.vars_fixed,
                "vars_free": self.vars_free,
            }
        return data


@dataclass
class Algorithm1Stats:
    """The outer-loop (Algorithm 1) convergence record.

    Attached to :class:`~repro.core.algorithm1.RemapResult.alg1` and
    emitted as the ``algorithm1.stats`` trace event, so both API callers
    and offline trace analysis see the same relaxation history.
    """

    #: Step 1 — delay-unaware Δ-scan for the ST_target lower bound, from
    #: the integrality floor (the heaviest op's stress) up.
    st_low_ns: float = 0.0
    st_up_ns: float = 0.0
    floor_ns: float = 0.0
    #: Grid points below the floor, skipped without a solve.
    floor_skips: int = 0
    #: Grid points passed over from ``st_low_ns``, skipped ones included.
    ilp_bumps: int = 0
    #: The relaxation stepsize Delta actually used.
    delta_ns: float = 0.0
    #: ST_target tried at each Step 2.3 iteration, in order.
    st_trajectory: list[float] = field(default_factory=list)
    #: Per-iteration verdicts ("accepted", "infeasible", "cpd_violation",
    #: "frozen_budget_infeasible"), parallel to ``st_trajectory``.
    verdicts: list[str] = field(default_factory=list)
    #: Lazy Eq. (5) path rows each iteration added after a CPD violation,
    #: parallel to ``st_trajectory``.
    rows_added: list[int] = field(default_factory=list)
    #: Rejected iterations that re-solved at the same ST_target (a CPD
    #: violation that added path rows) instead of relaxing by Delta.
    row_rounds: int = 0
    final_st_target_ns: float = 0.0
    #: Aggregates over every backend solve of the run.
    solves: int = 0
    total_nodes: int = 0
    max_mip_gap: float | None = None
    #: Trust-but-verify aggregates (:mod:`repro.verify`): independent
    #: certification passes run, passes that found violations, and
    #: cold-rebuild re-solves triggered by a failed certification.
    certifications: int = 0
    cert_failures: int = 0
    cert_cold_rebuilds: int = 0

    @property
    def iterations(self) -> int:
        return len(self.st_trajectory)

    @property
    def relaxations(self) -> int:
        """ST_target += Delta steps taken (rejections minus row rounds)."""
        rejected = sum(1 for verdict in self.verdicts if verdict != "accepted")
        return rejected - self.row_rounds

    @property
    def lazy_path_rows(self) -> int:
        """Lazy path rows added over the whole relax loop."""
        return sum(self.rows_added)

    def record_iteration(
        self, st_target_ns: float, verdict: str, rows_added: int = 0
    ) -> None:
        self.st_trajectory.append(st_target_ns)
        self.verdicts.append(verdict)
        self.rows_added.append(rows_added)

    def absorb_solve(self, stats: Mapping | None) -> None:
        """Fold one solve's :meth:`SolveStats.to_dict` into the aggregates."""
        if not stats:
            return
        self.solves += 1
        self.total_nodes += int(stats.get("nodes") or 0)
        gap = stats.get("mip_gap")
        if gap is not None and (
            self.max_mip_gap is None or gap > self.max_mip_gap
        ):
            self.max_mip_gap = float(gap)

    def to_dict(self) -> dict:
        return {
            "st_low_ns": self.st_low_ns,
            "st_up_ns": self.st_up_ns,
            "floor_ns": self.floor_ns,
            "floor_skips": self.floor_skips,
            "ilp_bumps": self.ilp_bumps,
            "delta_ns": self.delta_ns,
            "iterations": self.iterations,
            "relaxations": self.relaxations,
            "st_trajectory": list(self.st_trajectory),
            "verdicts": list(self.verdicts),
            "rows_added": list(self.rows_added),
            "lazy_path_rows": self.lazy_path_rows,
            "final_st_target_ns": self.final_st_target_ns,
            "solves": self.solves,
            "total_nodes": self.total_nodes,
            "max_mip_gap": self.max_mip_gap,
            "certifications": self.certifications,
            "cert_failures": self.cert_failures,
            "cert_cold_rebuilds": self.cert_cold_rebuilds,
        }


# -- live progress -------------------------------------------------------------

#: Tri-state override: None = consult the environment variable.
_progress_override: bool | None = None


def set_progress(enabled: bool | None) -> None:
    """Force the live progress line on/off; ``None`` restores env control."""
    global _progress_override
    _progress_override = enabled


def progress_enabled() -> bool:
    """Whether long solves should render a live stderr progress line."""
    if _progress_override is not None:
        return _progress_override
    return os.environ.get(PROGRESS_ENV_VAR, "").strip() not in ("", "0", "false")


class SolveProgress:
    """Throttled stderr progress line for an in-flight solve.

    On a TTY the line is rewritten in place (carriage return); on a pipe
    each update is a full line so logs stay readable.  Call
    :meth:`update` as often as convenient — output is rate-limited to
    one render per :data:`PROGRESS_INTERVAL_S`.
    """

    def __init__(
        self,
        label: str,
        stream=None,
        interval_s: float = PROGRESS_INTERVAL_S,
    ) -> None:
        self.label = label
        self.stream = stream if stream is not None else sys.stderr
        self.interval_s = interval_s
        self._last_render_s: float | None = None
        self._rendered = False

    def update(
        self,
        elapsed_s: float,
        nodes: int,
        incumbent: float | None,
        bound: float | None,
    ) -> None:
        if (
            self._last_render_s is not None
            and elapsed_s - self._last_render_s < self.interval_s
        ):
            return
        self._last_render_s = elapsed_s
        gap = relative_gap(incumbent, bound)
        parts = [f"[{self.label}]", f"nodes={nodes}"]
        parts.append(
            f"inc={incumbent:.6g}" if incumbent is not None else "inc=-"
        )
        if bound is not None:
            parts.append(f"bound={bound:.6g}")
        if gap is not None:
            parts.append(f"gap={100.0 * gap:.1f}%")
        parts.append(f"{elapsed_s:.1f}s")
        line = " ".join(parts)
        if self._is_tty():
            self.stream.write("\r" + line.ljust(79))
        else:
            self.stream.write(line + "\n")
        self.stream.flush()
        self._rendered = True

    def close(self) -> None:
        """End the in-place line so subsequent output starts clean."""
        if self._rendered and self._is_tty():
            self.stream.write("\n")
            self.stream.flush()

    def _is_tty(self) -> bool:
        isatty = getattr(self.stream, "isatty", None)
        return bool(isatty()) if callable(isatty) else False


def convergence_rows(
    solver_spans: Sequence[Mapping],
) -> list[list[object]]:
    """Rows of the per-solve convergence table from ``solver`` span records.

    Input records are span dicts (``to_record`` form) whose ``attrs`` carry
    the :meth:`SolveStats.span_attrs` keys; output rows are
    ``[model, backend, kind, status, nodes, incumbent, bound, gap_%, wall_s]``
    formatted for :func:`repro.report.tables.format_table`.
    """
    rows: list[list[object]] = []
    for record in solver_spans:
        attrs = record.get("attrs") or {}
        gap = attrs.get("gap")
        incumbent = attrs.get("incumbent")
        bound = attrs.get("bound")
        rows.append([
            attrs.get("model", "?"),
            attrs.get("backend", "?"),
            attrs.get("kind", "?"),
            str(attrs.get("status", "?")),
            attrs.get("nodes", 0),
            "-" if incumbent is None else f"{incumbent:.6g}",
            "-" if bound is None else f"{bound:.6g}",
            "-" if gap is None else f"{100.0 * float(gap):.2f}",
            round(float(record.get("duration_s", 0.0)), 3),
        ])
    return rows
