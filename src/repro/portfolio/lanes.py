"""The portfolio's lane catalogue.

A *lane* is a named backend the racing executor can start: the HiGHS
branch-and-cut backend (``"highs"``), the pure-Python branch-and-bound
backend (``"branch-bound"``), and a cheap LP-round-and-check feasibility
prober (``"prober"``) that only joins races over pure-feasibility models
(the paper's ``ObjFunc: Null`` formulation (3)).

Lanes share the backend ``solve(model, **options) -> Solution`` protocol,
so the executor treats them uniformly; certification of the winner is the
executor's job, which is what lets a lane as naive as the prober race at
all — a wrong rounding is struck, never accepted.
"""

from __future__ import annotations

import numpy as np

from repro.errors import ModelError
from repro.milp.model import Model, hint_vector
from repro.milp.status import Solution, SolveStatus
from repro.obs import counter, get_logger, span
from repro.obs.solverstats import SolveStats
from repro.portfolio.cancel import current_cancel_token
from repro.resilience.deadline import current_deadline

_log = get_logger("portfolio.lanes")

#: Default lane order: leader first.  HiGHS leads because it is the fast
#: backend on every benchmark; branch-and-bound is the independent
#: implementation that survives HiGHS-specific failures; the prober only
#: ever races feasibility models.
DEFAULT_LANES = ("highs", "branch-bound", "prober")


class FeasibilityProber:
    """A greedy feasibility lane: warm hint, else LP + snap-rounding.

    The prober never proves optimality and never *claims* more than "this
    point satisfies the matrix form".  Three outcomes:

    * a validated point (``OPTIMAL`` — on a feasibility model any
      feasible point is an answer);
    * a proven ``INFEASIBLE`` (the LP relaxation is infeasible, which
      soundly implies the MILP is);
    * an honest ``ERROR`` with ``limit_reason="incomplete"`` when the
      rounding fails — the executor treats that as "no answer", not as a
      lane failure, because incompleteness is the prober's contract.
    """

    def __init__(self, time_limit: float | None = None) -> None:
        self.time_limit = time_limit

    @staticmethod
    def applicable(model: Model) -> bool:
        return not model.has_objective()

    def solve(self, model: Model, **options) -> Solution:
        from scipy.optimize import linprog

        deadline = current_deadline()
        deadline.check(f"prober:{model.name}")
        stats = SolveStats(backend="prober", kind="milp")
        with span(
            "solver", backend="prober", kind="milp", model=model.name
        ) as solver_span:
            solution = self._probe(model, stats, linprog, **options)
            stats.elapsed_s = solver_span.duration_s
            if solution.stats is None:
                solution.stats = stats
            solver_span.set(
                status=solution.status.value, **solution.stats.span_attrs()
            )
        counter("portfolio.prober.solves").inc()
        return solution

    def _probe(self, model: Model, stats: SolveStats, linprog, **options):
        if model.has_objective():
            stats.limit_reason = "incomplete"
            return Solution(
                status=SolveStatus.ERROR,
                message="prober declined: model has an objective",
            )
        form = model.to_matrix_form()
        token = current_cancel_token()
        if token.cancelled:
            stats.limit_reason = "cancelled"
            return Solution(status=SolveStatus.ERROR, message="cancelled")

        if not form.variables:
            # Zero-variable model (every op frozen): the empty point is
            # the only candidate, and its row activities are constants —
            # so the check is a *proof* either way, not a probe.
            x0 = hint_vector(form, np.zeros(0))
            if x0 is not None:
                stats.incumbent = 0.0
                return self._accept(form, x0, stats, "zero-variable model")
            return Solution(
                status=SolveStatus.INFEASIBLE,
                message="zero-variable model violates a constant row",
            )

        hint = options.get("warm_start")
        if hint:
            x0 = hint_vector(form, hint)
            if x0 is not None:
                stats.warm_started = True
                stats.incumbent = float(form.objective @ x0)
                counter("portfolio.prober.hint_hits").inc()
                return self._accept(form, x0, stats, "warm-start hint")

        deadline = current_deadline()
        time_limit = deadline.cap(options.get("time_limit", self.time_limit))
        a_ub, b_ub, a_eq, b_eq = form.ub_eq_split()
        kwargs: dict = {}
        if a_ub is not None:
            kwargs["A_ub"], kwargs["b_ub"] = a_ub, b_ub
        if a_eq is not None:
            kwargs["A_eq"], kwargs["b_eq"] = a_eq, b_eq
        lp_options: dict = {}
        if time_limit is not None:
            lp_options["time_limit"] = float(time_limit)
        result = linprog(
            form.objective,
            bounds=np.column_stack([form.lower, form.upper]),
            method="highs",
            options=lp_options,
            **kwargs,
        )
        if result.status == 2:
            # LP relaxation infeasible => the MILP is infeasible.  This is
            # the one *proof* the prober can deliver.
            return Solution(status=SolveStatus.INFEASIBLE, message=result.message)
        if result.status != 0 or result.x is None:
            stats.limit_reason = "incomplete"
            return Solution(
                status=SolveStatus.ERROR,
                message=f"prober LP inconclusive: {result.message}",
            )
        stats.lp_objective = float(form.objective @ result.x)
        if token.cancelled:
            stats.limit_reason = "cancelled"
            return Solution(status=SolveStatus.ERROR, message="cancelled")
        x = np.asarray(result.x, dtype=float).copy()
        discrete = np.flatnonzero(form.integrality)
        x[discrete] = np.round(x[discrete])
        validated = hint_vector(form, x)
        if validated is None:
            counter("portfolio.prober.round_misses").inc()
            stats.limit_reason = "incomplete"
            return Solution(
                status=SolveStatus.ERROR,
                message="prober rounding violated a constraint",
            )
        stats.incumbent = float(form.objective @ validated)
        counter("portfolio.prober.round_hits").inc()
        return self._accept(form, validated, stats, "LP + snap rounding")

    @staticmethod
    def _accept(form, x, stats, how: str) -> Solution:
        values = {var: float(x[i]) for i, var in enumerate(form.variables)}
        return Solution(
            status=SolveStatus.OPTIMAL,
            objective=stats.incumbent,
            values=values,
            message=f"prober: feasible point via {how}",
            stats=stats,
        )


def make_lane_backend(name: str, time_limit: float | None = None):
    """Instantiate the backend for one lane name."""
    if name == "highs":
        from repro.milp.scipy_backend import ScipyBackend

        return ScipyBackend(time_limit=time_limit)
    if name == "branch-bound":
        from repro.milp.branch_bound import BranchBoundBackend

        return BranchBoundBackend(time_limit=time_limit)
    if name == "prober":
        return FeasibilityProber(time_limit=time_limit)
    raise ModelError(
        f"unknown portfolio lane {name!r}; known: {', '.join(DEFAULT_LANES)}"
    )


def lane_applicable(name: str, backend, model: Model) -> bool:
    """Whether a lane can answer for ``model`` at all."""
    applicable = getattr(backend, "applicable", None)
    if applicable is None:
        return True
    return bool(applicable(model))
