"""HiGHS solver backend, called through scipy's vendored binding.

This stands in for the CPLEX backend the paper used.  HiGHS is an exact
branch-and-cut MILP solver; pure LPs (the relaxation of the paper's
two-step method) go to its interior-point solver.

Every solve builds a fresh ``scipy.optimize._highspy._core._Highs`` — the
class behind scipy's own ``milp`` and ``linprog`` — passes it the model's
cached column-wise layout, runs it cold and reads its status, info and
solution.  It sets exactly the options those front ends set and reads the
outcome the way they do, so it returns their answers bit for bit:

* an LP is passed in ``linprog``'s layout (:meth:`CompiledModel.lp_layout`)
  with ``linprog(method="highs-ipm")``'s options, checked against the
  rows and bounds as ``linprog`` checks it, and retried once with dual
  simplex on a limit or a solve error;
* a MILP is passed in the model's own row order
  (:meth:`CompiledModel.ilp_layout`) with ``milp``'s options, integrality
  set after ``passModel``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.optimize._highspy import _core as _highs

from repro.errors import SolverError
from repro.explain import attribute_solution
from repro.milp.model import HighsLayout, Model
from repro.milp.status import STATUS_OF_CODE, Solution, SolveStatus, highs_status
from repro.obs import counter, get_logger, histogram, span
from repro.obs.solverstats import SolveStats, progress_enabled
from repro.resilience.deadline import current_deadline
from repro.resilience.faults import inject_solver_fault

_log = get_logger("milp.scipy_backend")

#: The ``_Highs`` methods :func:`run_highs` calls.
HIGHS_METHODS = (
    "setOptionValue", "passModel", "changeColsIntegrality", "run",
    "getModelStatus", "getInfo", "getSolution", "getRunTime",
    "modelStatusToString", "solutionStatusToString",
)

#: ``linprog(method="highs-ipm")``'s options; its simplex retry
#: (``method="highs"``) drops ``solver``.
LP_OPTIONS = {
    "presolve": "on",
    "solver": "ipm",
    "highs_debug_level": 0,
    "log_to_console": False,
    "output_flag": False,
    "simplex_strategy": 1,  # dual simplex
}

#: ``linprog``'s post-solve tolerance on rows and bounds (``sqrt(tol) * 10``
#: at its default ``tol`` of 1e-9).
_LP_CHECK_TOL = math.sqrt(1e-9) * 10

_LP_CHECK_MESSAGE = (
    "The solution does not satisfy the constraints within the required "
    f"tolerance of {_LP_CHECK_TOL:.2E}, yet no errors were raised and there "
    "is no certificate of infeasibility or unboundedness. Check whether "
    "the slack and constraint residuals are acceptable; if not, consider "
    "enabling presolve, adjusting the tolerance option(s), and/or using a "
    "different method. Please consider submitting a bug report."
)

_LIMITS = (
    _highs.HighsModelStatus.kTimeLimit,
    _highs.HighsModelStatus.kIterationLimit,
    _highs.HighsModelStatus.kSolutionLimit,
)


@dataclass
class HighsRun:
    """What one HiGHS run reported.

    ``code`` is scipy's status code (see
    :data:`~repro.milp.status.HIGHS_STATUS`); ``x`` and ``row_value``
    exist when HiGHS left a usable point.
    """

    code: int
    message: str
    x: np.ndarray | None = None
    row_value: np.ndarray | None = None
    info: object | None = None
    run_s: float = 0.0

    def span_attrs(self) -> dict:
        """HiGHS's own run time and iteration counts (HiGHS reports a
        method it did not run as -1; that reads 0 here), for the span."""
        counts = {
            key: max(int(getattr(self.info, f"{method}_iteration_count", 0)), 0)
            for key, method in (
                ("simplex_iterations", "simplex"),
                ("ipm_iterations", "ipm"),
                ("crossover_iterations", "crossover"),
            )
        }
        return {"highs_run_s": self.run_s, **counts}


def run_highs(
    layout: HighsLayout,
    row_lower: np.ndarray,
    row_upper: np.ndarray,
    cost: np.ndarray,
    lower: np.ndarray,
    upper: np.ndarray,
    integrality: np.ndarray | None,
    options: dict,
) -> HighsRun:
    """One cold HiGHS solve of ``layout`` under ``options``.

    ``integrality`` (one 0/1 per column, or None for an LP) goes in
    through ``changeColsIntegrality`` after ``passModel``.  The outcome
    is read as scipy's ``_highs_wrapper`` reads it: a MILP stopped by a
    limit keeps its incumbent, an LP keeps a point only when optimal.
    """
    highs = _highs._Highs()
    for key, value in options.items():
        highs.setOptionValue(key, value)
    n, m = len(cost), len(row_lower)
    lp = _highs.HighsLp()
    lp.num_col_ = n
    lp.num_row_ = m
    lp.a_matrix_.num_col_ = n
    lp.a_matrix_.num_row_ = m
    lp.a_matrix_.format_ = _highs.MatrixFormat.kColwise
    lp.a_matrix_.start_ = layout.start
    lp.a_matrix_.index_ = layout.index
    lp.a_matrix_.value_ = layout.value
    lp.col_cost_ = cost
    lp.col_lower_ = lower
    lp.col_upper_ = upper
    lp.row_lower_ = row_lower
    lp.row_upper_ = row_upper
    if highs.passModel(lp) == _highs.HighsStatus.kError:
        status = _highs.HighsModelStatus.kModelError
        return HighsRun(*highs_status(status, highs.modelStatusToString(status)))
    if integrality is not None:
        highs.changeColsIntegrality(n, np.arange(n, dtype=np.int32), integrality)
    if highs.run() == _highs.HighsStatus.kError:
        status = highs.getModelStatus()
        return HighsRun(
            *highs_status(status, highs.modelStatusToString(status)),
            run_s=highs.getRunTime(),
        )
    status = highs.getModelStatus()
    info = highs.getInfo()
    run_s = highs.getRunTime()
    if not (
        status == _highs.HighsModelStatus.kOptimal
        or integrality is not None
        and status in _LIMITS
        and info.objective_function_value != _highs.kHighsInf
    ):
        detail = (
            f"model_status is {highs.modelStatusToString(status)}; "
            "primal_status is "
            f"{highs.solutionStatusToString(info.primal_solution_status)}"
        )
        return HighsRun(*highs_status(status, detail), info=info, run_s=run_s)
    solution = highs.getSolution()
    return HighsRun(
        *highs_status(status, highs.modelStatusToString(status)),
        x=np.array(solution.col_value),
        row_value=np.array(solution.row_value),
        info=info,
        run_s=run_s,
    )


def attach_attribution(stats: SolveStats, form, x, metas) -> None:
    """Attribute a feasible solution onto ``stats`` (no-op without one).

    Shared by both backends; diagnostics must never break a solve, so
    attribution failures are logged and swallowed.
    """
    if x is None:
        return
    try:
        stats.attribution = attribute_solution(form, x, metas)
    except Exception:  # pragma: no cover - diagnostics are best-effort
        _log.debug("binding attribution failed", exc_info=True)


class ScipyBackend:
    """Solve models with HiGHS through scipy's binding.

    Parameters
    ----------
    time_limit:
        Wall-clock limit in seconds passed to HiGHS (None = unlimited).
    """

    def __init__(self, time_limit: float | None = None):
        self.time_limit = time_limit

    def solve(self, model: Model, relax: bool = False) -> Solution:
        """Solve ``model`` (its LP relaxation with ``relax``) under the
        constructor's time limit.

        The current :class:`~repro.resilience.Deadline` is honoured: an
        already-expired budget raises before HiGHS is entered, and the
        solver time limit is capped to the remaining budget.
        """
        name = f"{model.name}.lp_relaxation" if relax else model.name
        deadline = current_deadline()
        deadline.check(f"milp_solve:{name}")
        injected = inject_solver_fault(name)
        if injected is not None:
            injected.stats = SolveStats(
                backend="highs", limit_reason="fault_injected"
            )
            return injected
        form = model.to_matrix_form(relax=relax)
        n = len(form.lower)
        if n == 0:
            return Solution(
                status=SolveStatus.OPTIMAL, objective=0.0, x=np.zeros(0),
                stats=SolveStats(backend="highs"),
            )
        time_limit = deadline.cap(self.time_limit)
        metas = model.row_metadata()
        if not form.integrality.any():
            # Pure LP (e.g. the two-step method's relaxation): HiGHS's
            # interior-point method is several times faster than the
            # branch-and-cut entry point on these transportation-like LPs.
            return self._solve_lp(form, time_limit, name, metas)

        options: dict = {
            # HiGHS's own branch-and-cut log is the live progress line for
            # this backend (incumbent/bound/gap per node batch).
            "log_to_console": progress_enabled(),
        }
        if time_limit is not None:
            options["time_limit"] = float(time_limit)
        layout = form.compiled.ilp_layout()
        stats = SolveStats(backend="highs", kind="milp")
        with span(
            "solver", backend="highs", kind="milp", model=name, variables=n,
        ) as solver_span:
            try:
                run = run_highs(
                    layout, *layout.row_bounds(form.rhs), form.objective,
                    form.lower, form.upper, form.integrality, options,
                )
            except Exception as exc:  # the binding rejects malformed input
                raise SolverError(f"HiGHS backend failure: {exc}") from exc
            elapsed = solver_span.duration_s
            stats.elapsed_s = elapsed
            status = STATUS_OF_CODE[run.code]
            if status is SolveStatus.FEASIBLE:
                # A limit stopped the search; which limit HiGHS only says
                # in prose, so classify from the configuration.
                stats.limit_reason = (
                    "time_limit" if time_limit is not None else "limit"
                )
            if run.x is not None:
                info = run.info
                stats.nodes = int(info.mip_node_count or 0)
                if np.isfinite(info.mip_dual_bound):
                    stats.best_bound = float(info.mip_dual_bound)
                if np.isfinite(info.mip_gap):
                    stats.mip_gap = float(info.mip_gap)
                stats.incumbent = float(form.objective @ run.x)
                stats.sample(elapsed, stats.nodes, stats.incumbent, stats.best_bound)
                attach_attribution(stats, form, run.x, metas)
            solver_span.set(
                status=status.value, **stats.span_attrs(), **run.span_attrs()
            )
        counter("milp.highs.milp_solves").inc()
        histogram("milp.highs.solve_seconds").observe(elapsed)
        _log.debug(
            "HiGHS MILP %s: %d vars, status %s in %.3fs",
            name, n, run.code, elapsed,
        )

        if status is SolveStatus.FEASIBLE and run.x is None:
            # Limit hit without an incumbent: report as an error distinct
            # from proven infeasibility so callers can retry with more time.
            return Solution(
                status=SolveStatus.ERROR,
                solve_seconds=elapsed,
                message=f"limit reached without incumbent: {run.message}",
                stats=stats,
            )
        if not status.has_solution:
            return Solution(
                status=status, solve_seconds=elapsed, message=run.message,
                stats=stats,
            )
        return Solution(
            status=status,
            objective=stats.incumbent,
            x=run.x,
            solve_seconds=elapsed,
            message=run.message,
            stats=stats,
        )

    def _solve_lp(self, form, time_limit, name, metas) -> Solution:
        """Pure LP: HiGHS's interior-point solver in ``linprog``'s layout."""
        layout = form.compiled.lp_layout()
        row_lower, row_upper = layout.row_bounds(form.rhs)
        options = dict(LP_OPTIONS)
        if time_limit is not None:
            options["time_limit"] = float(time_limit)
        stats = SolveStats(backend="highs", kind="lp")
        with span(
            "solver", backend="highs", kind="lp", model=name,
            variables=len(form.lower),
        ) as solver_span:
            run = _run_lp(form, layout, row_lower, row_upper, options)
            runs = [run]
            if run.code in (1, 4) or run.x is None and run.code == 0:
                # Iteration/time limit, or an IPM "solve error" (status 4,
                # seen on infeasible zero-objective LPs): retry once with
                # dual simplex, which can return a basis where IPM stalls.
                counter("milp.highs.lp_simplex_retries").inc()
                del options["solver"]
                run = _run_lp(form, layout, row_lower, row_upper, options)
                runs.append(run)
            elapsed = solver_span.duration_s
            stats.elapsed_s = elapsed
            if run.x is not None:
                stats.lp_objective = float(form.objective @ run.x)
                stats.incumbent = stats.lp_objective
                attach_attribution(stats, form, run.x, metas)
            status = STATUS_OF_CODE[run.code]
            highs_attrs = runs[0].span_attrs()
            for extra in runs[1:]:
                for key, value in extra.span_attrs().items():
                    highs_attrs[key] += value
            solver_span.set(status=status.value, **stats.span_attrs(), **highs_attrs)
        counter("milp.highs.lp_solves").inc()
        histogram("milp.highs.solve_seconds").observe(elapsed)
        if not status.has_solution or run.x is None:
            if status is SolveStatus.FEASIBLE:
                status = SolveStatus.ERROR
                stats.limit_reason = "time_limit"
            return Solution(
                status=status, solve_seconds=elapsed, message=run.message,
                stats=stats,
            )
        return Solution(
            status=SolveStatus.OPTIMAL,
            objective=stats.lp_objective,
            x=run.x,
            solve_seconds=elapsed,
            message=run.message,
            stats=stats,
        )


def _run_lp(form, layout, row_lower, row_upper, options) -> HighsRun:
    """One LP run, with ``linprog``'s check of an optimal point: a point
    outside its rows or bounds by more than the tolerance is status 4."""
    run = run_highs(
        layout, row_lower, row_upper, form.objective, form.lower, form.upper,
        None, options,
    )
    if run.code != 0:
        return run
    tol = _LP_CHECK_TOL
    x = run.x
    residual = row_upper - run.row_value
    upper_rows = ~layout.has_lower
    slack, con = residual[upper_rows], residual[~upper_rows]
    if (
        np.isnan(x).any() or np.isnan(run.info.objective_function_value)
        or np.isnan(residual).any()
        or not np.all((x >= form.lower - tol) & (x <= form.upper + tol))
        or (slack < -tol).any() or (np.abs(con) > tol).any()
    ):
        run.code, run.message = 4, _LP_CHECK_MESSAGE
    return run
