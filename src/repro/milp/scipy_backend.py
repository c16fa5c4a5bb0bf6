"""HiGHS solver backend via :func:`scipy.optimize.milp`.

This stands in for the CPLEX backend the paper used.  HiGHS is an exact
branch-and-cut MILP solver; for pure LPs (e.g. the relaxation used in the
paper's two-step method) it reduces to the HiGHS dual simplex.
"""

from __future__ import annotations

import numpy as np
from scipy.optimize import Bounds, LinearConstraint, milp

from repro.errors import SolverError
from repro.explain import attribute_solution, explain_enabled
from repro.milp.model import Model, hint_vector
from repro.milp.status import Solution, SolveStatus
from repro.obs import counter, get_logger, histogram, span
from repro.obs.solverstats import SolveStats, progress_enabled
from repro.portfolio.cancel import current_cancel_token
from repro.resilience.deadline import current_deadline
from repro.resilience.faults import inject_solver_fault

_log = get_logger("milp.scipy_backend")


def attach_attribution(stats: SolveStats, form, x, metas) -> None:
    """Attribute a feasible solution onto ``stats`` (no-op when disabled).

    Shared by both backends; diagnostics must never break a solve, so
    attribution failures are logged and swallowed.
    """
    if x is None or metas is None or not explain_enabled():
        return
    try:
        stats.attribution = attribute_solution(form, x, metas)
    except Exception:  # pragma: no cover - diagnostics are best-effort
        _log.debug("binding attribution failed", exc_info=True)

#: Map HiGHS/scipy status codes to our :class:`SolveStatus`.
_STATUS_MAP = {
    0: SolveStatus.OPTIMAL,
    1: SolveStatus.FEASIBLE,  # iteration/time limit with incumbent (checked below)
    2: SolveStatus.INFEASIBLE,
    3: SolveStatus.UNBOUNDED,
    4: SolveStatus.ERROR,
}


class ScipyBackend:
    """Solve models with scipy's HiGHS bindings.

    Parameters
    ----------
    time_limit:
        Wall-clock limit in seconds passed to HiGHS (None = unlimited).
    """

    def __init__(self, time_limit: float | None = None):
        self.time_limit = time_limit

    def solve(self, model: Model, **options) -> Solution:
        """Solve ``model``; per-call ``options`` override constructor values.

        The current :class:`~repro.resilience.Deadline` is honoured: an
        already-expired budget raises before HiGHS is entered, and the
        solver time limit is capped to the remaining budget.

        ``options["warm_start"]`` may carry an incumbent hint (a
        ``{Variable: value}`` mapping, e.g. a previous iteration's
        solution).  HiGHS's scipy entry point has no MIP-start API, so the
        hint cannot seed the search itself; it is validated and recorded
        on :class:`SolveStats` (``warm_started``/``hint_objective``), and
        for pure *feasibility* models (the paper's ``ObjFunc: Null``) a
        still-feasible hint is returned directly without invoking HiGHS.
        """
        deadline = current_deadline()
        deadline.check(f"milp_solve:{model.name}")
        if current_cancel_token().cancelled:
            # A portfolio race was decided before this lane entered the
            # solver; HiGHS itself cannot be interrupted mid-solve, so
            # the entry boundary is this backend's cancellation point.
            return Solution(
                status=SolveStatus.ERROR,
                message="cancelled before solve",
                stats=SolveStats(backend="highs", limit_reason="cancelled"),
            )
        injected = inject_solver_fault(model.name)
        if injected is not None:
            injected.stats = SolveStats(
                backend="highs", limit_reason="fault_injected"
            )
            return injected
        form = model.to_matrix_form()
        n = len(form.variables)
        if n == 0:
            return Solution(
                status=SolveStatus.OPTIMAL, objective=0.0, values={},
                stats=SolveStats(backend="highs"),
            )

        milp_options: dict = {}
        time_limit = deadline.cap(options.get("time_limit", self.time_limit))
        if time_limit is not None:
            milp_options["time_limit"] = float(time_limit)
        if progress_enabled():
            # HiGHS's own branch-and-cut log is the live progress line for
            # this backend (incumbent/bound/gap per node batch).
            milp_options["disp"] = True

        constraints = []
        if form.a_matrix.shape[0]:
            row_lower, row_upper = form.row_bounds()
            constraints.append(
                LinearConstraint(form.a_matrix, row_lower, row_upper)
            )

        metas = model.row_metadata() if explain_enabled() else None
        if not form.integrality.any():
            # Pure LP (e.g. the two-step method's relaxation): HiGHS's
            # interior-point method is several times faster than the
            # branch-and-cut entry point on these transportation-like LPs.
            return self._solve_lp(form, time_limit, model.name, metas=metas)

        stats = SolveStats(backend="highs", kind="milp")
        hint = options.get("warm_start")
        if hint:
            x0 = hint_vector(form, hint)
            if x0 is None:
                counter("milp.warm_start_misses").inc()
            else:
                stats.warm_started = True
                stats.hint_objective = float(form.objective @ x0)
                counter("milp.warm_start_hits").inc()
                if not model.has_objective():
                    # Feasibility model: any feasible point is an answer, so
                    # the validated hint short-circuits the solver entirely.
                    with span(
                        "solver", backend="highs", kind="milp",
                        model=model.name, variables=n, warm_shortcut=True,
                    ) as solver_span:
                        stats.incumbent = stats.hint_objective
                        stats.elapsed_s = solver_span.duration_s
                        attach_attribution(stats, form, x0, metas)
                        solver_span.set(status="optimal", **stats.span_attrs())
                    counter("milp.warm_start_shortcuts").inc()
                    values = {
                        var: float(x0[i])
                        for i, var in enumerate(form.variables)
                    }
                    return Solution(
                        status=SolveStatus.OPTIMAL,
                        objective=stats.incumbent,
                        values=values,
                        solve_seconds=stats.elapsed_s,
                        message="warm-start hint accepted (feasibility model)",
                        stats=stats,
                    )
        with span(
            "solver", backend="highs", kind="milp", model=model.name,
            variables=n,
        ) as solver_span:
            try:
                result = milp(
                    c=form.objective,
                    constraints=constraints,
                    integrality=form.integrality,
                    bounds=Bounds(form.lower, form.upper),
                    options=milp_options,
                )
            except Exception as exc:  # scipy raises ValueError on malformed input
                raise SolverError(f"HiGHS backend failure: {exc}") from exc
            elapsed = solver_span.duration_s
            stats.elapsed_s = elapsed
            stats.nodes = int(getattr(result, "mip_node_count", 0) or 0)
            bound = getattr(result, "mip_dual_bound", None)
            if bound is not None and np.isfinite(bound):
                stats.best_bound = float(bound)
            gap = getattr(result, "mip_gap", None)
            if gap is not None and np.isfinite(gap):
                stats.mip_gap = float(gap)
            status = _STATUS_MAP.get(result.status, SolveStatus.ERROR)
            if status is SolveStatus.FEASIBLE:
                # HiGHS status 1 = a limit stopped the search; which limit
                # is only in prose, so classify from the configuration.
                stats.limit_reason = (
                    "time_limit" if time_limit is not None else "limit"
                )
            if result.x is not None:
                stats.incumbent = float(form.objective @ result.x)
                stats.sample(elapsed, stats.nodes, stats.incumbent, stats.best_bound)
                attach_attribution(stats, form, result.x, metas)
            solver_span.set(status=status.value, **stats.span_attrs())
        counter("milp.highs.milp_solves").inc()
        histogram("milp.highs.solve_seconds").observe(elapsed)
        _log.debug(
            "HiGHS MILP %s: %d vars, status %s in %.3fs",
            model.name, n, result.status, elapsed,
        )

        if status is SolveStatus.FEASIBLE and result.x is None:
            # Limit hit without an incumbent: report as an error distinct
            # from proven infeasibility so callers can retry with more time.
            return Solution(
                status=SolveStatus.ERROR,
                solve_seconds=elapsed,
                message=f"limit reached without incumbent: {result.message}",
                stats=stats,
            )
        if not status.has_solution:
            return Solution(
                status=status, solve_seconds=elapsed, message=result.message,
                stats=stats,
            )

        values = {var: float(result.x[i]) for i, var in enumerate(form.variables)}
        return Solution(
            status=status,
            objective=stats.incumbent,
            values=values,
            solve_seconds=elapsed,
            message=result.message,
            stats=stats,
        )

    def _solve_lp(self, form, time_limit, name="lp", metas=None) -> Solution:
        """Pure-LP fast path through linprog/HiGHS-IPM."""
        from scipy.optimize import linprog

        a_ub, b_ub, a_eq, b_eq = form.ub_eq_split()
        kwargs: dict = {}
        if a_ub is not None:
            kwargs["A_ub"] = a_ub
            kwargs["b_ub"] = b_ub
        if a_eq is not None:
            kwargs["A_eq"] = a_eq
            kwargs["b_eq"] = b_eq
        options: dict = {}
        if time_limit is not None:
            options["time_limit"] = float(time_limit)
        stats = SolveStats(backend="highs", kind="lp")
        with span(
            "solver", backend="highs", kind="lp", model=name,
            variables=len(form.variables),
        ) as solver_span:
            result = linprog(
                form.objective,
                bounds=np.column_stack([form.lower, form.upper]),
                method="highs-ipm",
                options=options,
                **kwargs,
            )
            if result.status in (1, 4) or result.x is None and result.status == 0:
                # Iteration/time limit, or an IPM "solve error" (status 4,
                # seen on infeasible zero-objective LPs): retry once with
                # dual simplex, which can return a basis where IPM stalls.
                counter("milp.highs.lp_simplex_retries").inc()
                result = linprog(
                    form.objective,
                    bounds=np.column_stack([form.lower, form.upper]),
                    method="highs",
                    options=options,
                    **kwargs,
                )
            elapsed = solver_span.duration_s
            stats.elapsed_s = elapsed
            if result.x is not None:
                stats.lp_objective = float(form.objective @ result.x)
                stats.incumbent = stats.lp_objective
                attach_attribution(stats, form, result.x, metas)
            status = _STATUS_MAP.get(result.status, SolveStatus.ERROR)
            solver_span.set(status=status.value, **stats.span_attrs())
        counter("milp.highs.lp_solves").inc()
        histogram("milp.highs.solve_seconds").observe(elapsed)
        if not status.has_solution or result.x is None:
            if status is SolveStatus.FEASIBLE:
                status = SolveStatus.ERROR
                stats.limit_reason = "time_limit"
            return Solution(
                status=status, solve_seconds=elapsed, message=result.message,
                stats=stats,
            )
        values = {var: float(result.x[i]) for i, var in enumerate(form.variables)}
        return Solution(
            status=SolveStatus.OPTIMAL,
            objective=stats.lp_objective,
            values=values,
            solve_seconds=elapsed,
            message=result.message,
            stats=stats,
        )
