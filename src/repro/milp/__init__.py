"""A small PuLP-like MILP modelling layer with pluggable solver backends.

The paper drove CPLEX through PuLP; this package provides the same
capability on open components:

* :class:`~repro.milp.model.Model` — variables, constraints, objective;
* :class:`~repro.milp.scipy_backend.ScipyBackend` — HiGHS via scipy (default);
* :class:`~repro.milp.branch_bound.BranchBoundBackend` — a pure-Python
  reference solver used for cross-checking and ablations;
* :mod:`~repro.milp.rounding` — the LP-relaxation pre-mapping strategies of
  the paper's two-step method.
"""

from repro.milp.branch_bound import BranchBoundBackend
from repro.milp.constraint import Constraint, Sense
from repro.milp.expr import LinExpr, Variable, VarType, linear_sum
from repro.milp.model import CompiledModel, MatrixForm, Model
from repro.milp.rounding import (
    DEFAULT_FIX_THRESHOLD,
    RoundingReport,
    extract_assignment,
    randomized_round,
    threshold_fix,
)
from repro.milp.scipy_backend import ScipyBackend
from repro.milp.status import Solution, SolveStatus

__all__ = [
    "BranchBoundBackend",
    "CompiledModel",
    "Constraint",
    "DEFAULT_FIX_THRESHOLD",
    "LinExpr",
    "MatrixForm",
    "Model",
    "RoundingReport",
    "ScipyBackend",
    "Sense",
    "Solution",
    "SolveStatus",
    "VarType",
    "Variable",
    "extract_assignment",
    "linear_sum",
    "randomized_round",
    "threshold_fix",
]
