"""Solve statuses and solution objects returned by solver backends."""

from __future__ import annotations

import enum
from dataclasses import dataclass
import numpy as np

from repro.errors import InfeasibleError, ModelError, SolverError
from repro.milp.expr import Variable
from repro.obs.solverstats import SolveStats


class SolveStatus(enum.Enum):
    """Outcome of a solve call.

    ``OPTIMAL``    — proven optimal (or feasible for pure feasibility models).
    ``FEASIBLE``   — a feasible incumbent exists but optimality is unproven
                     (e.g. node/iteration limit hit).
    ``INFEASIBLE`` — proven infeasible.
    ``UNBOUNDED``  — objective unbounded.
    ``ERROR``      — backend failure unrelated to the model's mathematics.
    """

    OPTIMAL = "optimal"
    FEASIBLE = "feasible"
    INFEASIBLE = "infeasible"
    UNBOUNDED = "unbounded"
    ERROR = "error"

    @property
    def has_solution(self) -> bool:
        """Whether variable values are available."""
        return self in (SolveStatus.OPTIMAL, SolveStatus.FEASIBLE)


#: HiGHS model statuses, by name, as scipy's HiGHS front ends report
#: them: a code (0 optimal, 1 limit, 2 infeasible, 3 unbounded, 4 other)
#: and a message prefix.  A model HiGHS rejects on load counts as
#: infeasible, as it does there.
HIGHS_STATUS = {
    "kNotset": (4, ""),
    "kLoadError": (4, ""),
    "kModelError": (2, ""),
    "kPresolveError": (4, ""),
    "kSolveError": (4, ""),
    "kPostsolveError": (4, ""),
    "kModelEmpty": (4, ""),
    "kObjectiveBound": (4, ""),
    "kObjectiveTarget": (4, ""),
    "kOptimal": (0, "Optimization terminated successfully. "),
    "kTimeLimit": (1, "Time limit reached. "),
    "kIterationLimit": (1, "Iteration limit reached. "),
    "kInfeasible": (2, "The problem is infeasible. "),
    "kUnbounded": (3, "The problem is unbounded. "),
    "kUnboundedOrInfeasible": (4, "The problem is unbounded or infeasible. "),
}

#: Those codes as a :class:`SolveStatus`; code 1 is a limit hit, which
#: the backend turns into an error when it left no incumbent.
STATUS_OF_CODE = {
    0: SolveStatus.OPTIMAL,
    1: SolveStatus.FEASIBLE,
    2: SolveStatus.INFEASIBLE,
    3: SolveStatus.UNBOUNDED,
    4: SolveStatus.ERROR,
}


def highs_status(model_status, detail: str) -> tuple[int, str]:
    """``(code, message)`` of a HiGHS model status and its detail text."""
    code, prefix = HIGHS_STATUS.get(
        model_status.name, (4, "The HiGHS status code was not recognized. ")
    )
    return code, f"{prefix}(HiGHS Status {int(model_status)}: {detail})"


@dataclass
class Solution:
    """Result of solving a model.

    Attributes
    ----------
    status:
        The :class:`SolveStatus` of the solve.
    objective:
        Objective value at the returned point (0.0 for feasibility models,
        ``nan`` when no solution exists).
    x:
        Column values, indexed by :attr:`Variable.index`.  ``None`` when
        ``status.has_solution`` is false.
    solve_seconds:
        Wall-clock time spent inside the backend.
    message:
        Free-form backend diagnostics.
    stats:
        Per-solve convergence telemetry
        (:class:`~repro.obs.solverstats.SolveStats`): nodes explored,
        incumbent/bound trajectory, final MIP gap, LP->ILP pre-mapping
        counts, limit-hit reason.  Populated by both backends; ``None``
        only for solutions constructed outside a backend (e.g. injected
        faults).
    """

    status: SolveStatus
    objective: float = float("nan")
    x: np.ndarray | None = None
    solve_seconds: float = 0.0
    message: str = ""
    stats: SolveStats | None = None

    def __getitem__(self, var: Variable) -> float:
        if not self.status.has_solution:
            raise ModelError(f"no solution available (status={self.status.value})")
        return self.value(var)

    def value(self, var: Variable, default: float | None = None) -> float:
        """Value of ``var``; ``default`` if the variable is not in the solution."""
        index = var.index
        if self.x is not None and index is not None and index < len(self.x):
            return float(self.x[index])
        if default is None:
            raise ModelError(f"variable {var.name!r} not in solution")
        return default

    def require(self) -> "Solution":
        """Return ``self`` if a solution exists; raise a typed error otherwise.

        Proven infeasibility raises :class:`~repro.errors.InfeasibleError`;
        any other solution-less status (unbounded, backend error, limit
        without incumbent) raises :class:`~repro.errors.SolverError`.  Use
        at call sites where a solution is mandatory, so infeasibility is a
        typed outcome rather than a downstream ``KeyError``.
        """
        if self.status.has_solution:
            return self
        detail = f": {self.message}" if self.message else ""
        if self.status is SolveStatus.INFEASIBLE:
            raise InfeasibleError(f"model proven infeasible{detail}")
        raise SolverError(
            f"no solution available (status={self.status.value}){detail}"
        )

    def rounded(self, var: Variable, tol: float = 1e-6) -> int:
        """Integer value of a discrete variable, validating integrality."""
        raw = self[var]
        nearest = round(raw)
        if abs(raw - nearest) > tol:
            raise ModelError(f"variable {var.name!r} has non-integral value {raw}")
        return int(nearest)
