"""A pure-Python branch-and-bound MILP backend.

This backend exists for three reasons:

* it removes the hard dependency of the core algorithms on any one solver
  (the paper's flow treats the solver as a pluggable component: CPLEX there,
  HiGHS here);
* it is small enough to be read and tested exhaustively, so it serves as an
  executable specification that the fast backend is checked against in the
  test suite;
* it exposes node counts (via ``Solution.stats.nodes``), which the
  two-step-relaxation ablation (``benchmarks/bench_ablation_twostep.py``)
  uses to show *why* the paper's LP→ILP pre-mapping is necessary.

The implementation is classic best-bound branch and bound with LP
relaxations solved by HiGHS (``scipy.optimize.linprog``), most-fractional
branching, and simple bound-based pruning.  It is intended for models up to
a few hundred discrete variables.
"""

from __future__ import annotations

import heapq
import itertools
import math
from dataclasses import dataclass, field

import numpy as np
from scipy.optimize import linprog

from repro.errors import SolverError
from repro.milp.model import MatrixForm, Model
from repro.milp.scipy_backend import attach_attribution
from repro.milp.status import Solution, SolveStatus
from repro.obs import counter, get_logger, span
from repro.obs.solverstats import (
    SolveProgress,
    SolveStats,
    progress_enabled,
    relative_gap,
)
from repro.resilience.deadline import current_deadline
from repro.resilience.faults import inject_solver_fault

_INTEGRALITY_TOL = 1e-6

_log = get_logger("milp.branch_bound")


@dataclass(order=True)
class _Node:
    """A branch-and-bound node ordered by its relaxation bound."""

    bound: float
    tiebreak: int = field(compare=True)
    lower: np.ndarray = field(compare=False, default=None)  # type: ignore[assignment]
    upper: np.ndarray = field(compare=False, default=None)  # type: ignore[assignment]


class BranchBoundBackend:
    """Best-bound branch and bound over HiGHS LP relaxations.

    Parameters
    ----------
    max_nodes:
        Abort (returning the incumbent, if any) after this many nodes.
    time_limit:
        Wall-clock limit in seconds.
    """

    def __init__(self, max_nodes: int = 200_000, time_limit: float | None = None):
        self.max_nodes = max_nodes
        self.time_limit = time_limit

    # -- LP relaxation -------------------------------------------------------
    @staticmethod
    def _solve_relaxation(
        form: MatrixForm, lower: np.ndarray, upper: np.ndarray
    ):
        """Solve the LP relaxation on the given bound box.

        Returns ``(objective, x)`` or ``None`` when infeasible.  The
        constraint split is cached on ``form``, so the per-node cost is
        one linprog call, not a fresh matrix assembly.
        """
        a_ub, b_ub, a_eq, b_eq = form.ub_eq_split()
        kwargs = {}
        if a_ub is not None:
            kwargs["A_ub"] = a_ub
            kwargs["b_ub"] = b_ub
        if a_eq is not None:
            kwargs["A_eq"] = a_eq
            kwargs["b_eq"] = b_eq
        result = linprog(
            c=form.objective,
            bounds=np.column_stack([lower, upper]),
            method="highs",
            **kwargs,
        )
        if result.status == 2:  # infeasible
            return None
        if result.status != 0:
            raise SolverError(f"LP relaxation failed: {result.message}")
        return float(result.fun), result.x

    # -- main loop --------------------------------------------------------------
    def solve(self, model: Model) -> Solution:
        """Solve ``model`` to proven optimality, subject to the
        constructor's node and time limits."""
        stats = SolveStats(backend="branch_bound", kind="milp")
        with span(
            "solver", backend="branch_bound", kind="milp", model=model.name
        ) as solver_span:
            solution = self._solve(model, solver_span, stats)
            if solution.stats is None:
                stats.elapsed_s = solver_span.duration_s
                solution.stats = stats
            solver_span.set(
                status=solution.status.value, **solution.stats.span_attrs()
            )
        counter("milp.bb.solves").inc()
        counter("milp.bb.nodes_explored").inc(solution.stats.nodes)
        _log.debug(
            "branch-and-bound %s: %d nodes, status %s in %.3fs",
            model.name, solution.stats.nodes, solution.status.value,
            solution.solve_seconds,
        )
        return solution

    def _solve(
        self, model: Model, solver_span, stats: SolveStats
    ) -> Solution:
        deadline = current_deadline()
        deadline.check(f"branch_bound:{model.name}")
        injected = inject_solver_fault(model.name)
        if injected is not None:
            stats.limit_reason = "fault_injected"
            return injected
        form = model.to_matrix_form()
        n = len(form.variables)
        time_limit = deadline.cap(self.time_limit)

        if n == 0:
            return Solution(
                status=SolveStatus.OPTIMAL, objective=0.0, values={},
            )

        discrete = np.flatnonzero(form.integrality)
        tiebreak = itertools.count()
        progress = (
            SolveProgress(f"bb {model.name}") if progress_enabled() else None
        )

        root = self._solve_relaxation(form, form.lower, form.upper)
        if root is None:
            return Solution(
                status=SolveStatus.INFEASIBLE,
                solve_seconds=solver_span.duration_s,
            )
        root_bound, _ = root
        stats.lp_objective = root_bound
        stats.sample(solver_span.duration_s, 0, None, root_bound)

        heap: list[_Node] = [
            _Node(root_bound, next(tiebreak), form.lower.copy(), form.upper.copy())
        ]
        best_obj = math.inf
        best_x: np.ndarray | None = None
        #: Tightest dual bound proven so far: the minimum over open nodes.
        global_bound = root_bound
        proven = True

        try:
            while heap:
                if stats.nodes >= self.max_nodes:
                    proven = False
                    stats.limit_reason = "node_limit"
                    break
                if (
                    time_limit is not None
                    and solver_span.duration_s > time_limit
                ):
                    proven = False
                    stats.limit_reason = "time_limit"
                    break
                if deadline.expired:
                    proven = False
                    stats.limit_reason = "deadline"
                    break
                node = heapq.heappop(heap)
                global_bound = node.bound
                if node.bound >= best_obj - 1e-9 and best_x is not None:
                    continue  # cannot improve on the incumbent
                stats.nodes += 1
                if progress is not None:
                    progress.update(
                        solver_span.duration_s,
                        stats.nodes,
                        best_obj if best_x is not None else None,
                        global_bound,
                    )
                try:
                    relaxed = self._solve_relaxation(form, node.lower, node.upper)
                except SolverError:
                    # A node LP blew up mid-search.  With an incumbent in
                    # hand the search degrades to "best found so far" (the
                    # ladder's incumbent rung); without one the error
                    # propagates.
                    if best_x is None:
                        raise
                    counter("milp.bb.incumbent_recoveries").inc()
                    proven = False
                    stats.limit_reason = "solver_error"
                    break
                if relaxed is None:
                    continue
                bound, x = relaxed
                if bound >= best_obj - 1e-9 and best_x is not None:
                    continue

                fractional = [
                    (abs(x[j] - round(x[j])), j)
                    for j in discrete
                    if abs(x[j] - round(x[j])) > _INTEGRALITY_TOL
                ]
                if not fractional:
                    if bound < best_obj - 1e-9:
                        best_obj = bound
                        best_x = x.copy()
                        stats.sample(
                            solver_span.duration_s, stats.nodes,
                            best_obj, global_bound,
                        )
                    continue

                # Branch on the most fractional variable.
                _, j = max(fractional)
                floor_val = math.floor(x[j])
                down_lower, down_upper = node.lower.copy(), node.upper.copy()
                down_upper[j] = floor_val
                up_lower, up_upper = node.lower.copy(), node.upper.copy()
                up_lower[j] = floor_val + 1
                for lo, hi in ((down_lower, down_upper), (up_lower, up_upper)):
                    if lo[j] <= hi[j]:
                        heapq.heappush(heap, _Node(bound, next(tiebreak), lo, hi))
        finally:
            if progress is not None:
                progress.close()

        elapsed = solver_span.duration_s
        stats.elapsed_s = elapsed
        if best_x is None:
            status = SolveStatus.INFEASIBLE if proven else SolveStatus.ERROR
            message = "" if proven else "node/time limit reached without incumbent"
            return Solution(status=status, solve_seconds=elapsed, message=message)

        # Snap near-integral values exactly.
        for j in discrete:
            best_x[j] = round(best_x[j])
        attach_attribution(stats, form, best_x, model.row_metadata())
        values = {var: float(best_x[i]) for i, var in enumerate(form.variables)}
        status = SolveStatus.OPTIMAL if proven else SolveStatus.FEASIBLE
        objective = float(form.objective @ best_x)
        stats.incumbent = objective
        # Proven optimality closes the gap by definition; otherwise the
        # tightest open-node bound certifies the remaining gap.
        stats.best_bound = objective if proven else min(
            global_bound, objective
        )
        stats.mip_gap = (
            0.0 if proven else relative_gap(objective, stats.best_bound)
        )
        stats.sample(elapsed, stats.nodes, objective, stats.best_bound)
        return Solution(
            status=status,
            objective=objective,
            values=values,
            solve_seconds=elapsed,
            message=f"nodes={stats.nodes}",
        )
