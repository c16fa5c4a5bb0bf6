"""The :class:`Model` container of the MILP modelling layer.

A model owns variables, constraints and an (optional) objective.  The
paper's formulation (3) is a *feasibility* MILP — ``ObjFunc: Null`` — so the
objective defaults to nothing; solvers then search for any feasible point.

Models compile themselves to a sparse matrix form
(:meth:`Model.to_matrix_form`) consumed by the scipy/HiGHS backend, and
support the transformations the paper's two-step method needs:

* :meth:`relaxed` — the LP relaxation (all discrete variables made
  continuous on the same bounds), used in Step 1 / the first half of the
  two-step solve;
* :meth:`fix_variable` — pin a variable to a value (used to pre-map
  assignment variables whose LP value exceeds the 0.95 threshold, and to
  freeze critical-path operations onto their original PEs), undone in
  bulk by :meth:`unfix_all` when a model is reused across solves;
* :meth:`compile` — the incremental-compilation path: the structural
  lowering (A matrix, senses, objective) is cached on a revision counter
  and shared with LP relaxations, and constraints registered against a
  named *parameter* (Algorithm 1's per-PE ``ST_target`` budget) re-stamp
  their RHS in O(rows) via :meth:`set_parameter` without re-traversing
  any expression.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Mapping, Sequence

import numpy as np
from scipy import sparse

from repro.errors import ModelError
from repro.milp.constraint import Constraint, Sense
from repro.milp.expr import LinExpr, Variable, VarType
from repro.milp.status import Solution
from repro.obs import counter

@dataclass(frozen=True)
class RowMeta:
    """Identity of one constraint row, for human-readable audit messages.

    ``rhs`` is sampled at call time, so restamped parameter rows report
    their *current* right-hand side.  ``tags`` carries the constraint's
    domain metadata (family, PE coordinates, op/context ids — see
    :mod:`repro.core.constraints`) so diagnostics can speak in problem
    terms.  Row *identity* (index/name/sense/tags) is stable across
    restamps; only ``rhs`` moves.
    """

    index: int
    name: str
    sense: str
    rhs: float
    tags: Mapping[str, object] = field(default_factory=dict)

    def describe(self) -> str:
        """``name sense rhs`` plus a compact domain-tag suffix."""
        head = f"{self.name} {self.sense} {self.rhs:g}"
        if not self.tags:
            return head
        parts = ", ".join(f"{k}={v}" for k, v in sorted(self.tags.items()))
        return f"{head}  [{parts}]"


@dataclass
class MatrixForm:
    """Sparse standard form of a model.

    ``A x (sense) b`` row-wise, with per-column bounds and integrality
    markers.  ``senses`` holds one :class:`Sense` per row.
    """

    variables: list[Variable]
    a_matrix: sparse.csr_matrix
    senses: list[Sense]
    rhs: np.ndarray
    lower: np.ndarray
    upper: np.ndarray
    integrality: np.ndarray  # 1 where the column must be integral, else 0
    objective: np.ndarray
    #: Lazily-built derived views, cached per form because branch-and-bound
    #: re-reads them at every node of a search over the same form.
    _row_bounds: tuple | None = field(
        default=None, init=False, repr=False, compare=False
    )
    _ub_eq: tuple | None = field(
        default=None, init=False, repr=False, compare=False
    )

    def row_bounds(self) -> tuple[np.ndarray, np.ndarray]:
        """Per-row ``(lower, upper)`` activity bounds from senses + rhs.

        LE rows bound above, GE rows below, EQ rows both.  Callers must
        treat the returned arrays as read-only (they are cached).
        """
        if self._row_bounds is None:
            m = len(self.senses)
            lower = np.full(m, -np.inf)
            upper = np.full(m, np.inf)
            for row, sense in enumerate(self.senses):
                if sense is Sense.LE:
                    upper[row] = self.rhs[row]
                elif sense is Sense.GE:
                    lower[row] = self.rhs[row]
                else:
                    lower[row] = upper[row] = self.rhs[row]
            self._row_bounds = (lower, upper)
        return self._row_bounds

    def ub_eq_split(self):
        """``(A_ub, b_ub, A_eq, b_eq)`` for linprog-style solvers.

        GE rows are negated into the A_ub block, preserving the original
        row order (LE and GE rows stay interleaved — row permutations
        steer HiGHS to different vertices among degenerate LP optima,
        which would change downstream rounding decisions).  Each block is
        ``None`` when empty; arrays are cached and must be treated as
        read-only.
        """
        if self._ub_eq is None:
            ge = np.array([s is Sense.GE for s in self.senses], dtype=bool)
            eq = np.array([s is Sense.EQ for s in self.senses], dtype=bool)
            a_csr = self.a_matrix.tocsr()
            a_ub = b_ub = a_eq = b_eq = None
            ub_mask = ~eq
            if ub_mask.any():
                a_ub = a_csr[ub_mask].copy()
                scale = np.where(ge[ub_mask], -1.0, 1.0)
                a_ub.data *= np.repeat(scale, np.diff(a_ub.indptr))
                b_ub = self.rhs[ub_mask] * scale
            if eq.any():
                a_eq = a_csr[eq]
                b_eq = self.rhs[eq]
            self._ub_eq = (a_ub, b_ub, a_eq, b_eq)
        return self._ub_eq


class CompiledModel:
    """The structural lowering of a :class:`Model`, reusable across solves.

    Everything that requires traversing Python expression objects — the
    sparse A matrix, row senses, the parameter row maps and the objective
    vector — is computed once here.  :meth:`matrix_form` then assembles a
    fresh :class:`MatrixForm` per call in O(rows + cols): variable bounds
    and integrality are re-read from the (shared) ``Variable`` objects, so
    ``fix_variable``/``unfix_all`` and :meth:`Model.relaxed` compose with
    the cache, and parameterized RHS entries are re-stamped from the
    model's current parameter values.
    """

    __slots__ = (
        "variables", "a_matrix", "senses", "rhs_base", "param_rows",
        "objective", "parameters", "structure_rev",
    )

    def __init__(
        self,
        variables: Sequence[Variable],
        a_matrix: sparse.csr_matrix,
        senses: Sequence[Sense],
        rhs_base: np.ndarray,
        param_rows: dict[str, tuple[np.ndarray, np.ndarray]],
        objective: np.ndarray,
        parameters: Mapping[str, float],
        structure_rev: int,
    ) -> None:
        self.variables = list(variables)
        self.a_matrix = a_matrix
        self.senses = list(senses)
        #: RHS with every parameter's contribution removed.
        self.rhs_base = rhs_base
        #: ``{parameter: (row_indices, coefficients)}``.
        self.param_rows = param_rows
        self.objective = objective
        #: Live reference to the owning model's parameter values.
        self.parameters = parameters
        self.structure_rev = structure_rev

    def stamp_rhs(self) -> np.ndarray:
        """RHS vector at the current parameter values (O(rows))."""
        rhs = self.rhs_base.copy()
        for name, (rows, coeffs) in self.param_rows.items():
            rhs[rows] += coeffs * self.parameters[name]
        return rhs

    def matrix_form(self) -> MatrixForm:
        """A fresh :class:`MatrixForm` at current bounds/types/parameters."""
        n = len(self.variables)
        lower = np.fromiter((v.lb for v in self.variables), float, count=n)
        upper = np.fromiter((v.ub for v in self.variables), float, count=n)
        integrality = np.fromiter(
            (0 if v.vtype is VarType.CONTINUOUS else 1 for v in self.variables),
            np.int8, count=n,
        )
        return MatrixForm(
            variables=list(self.variables),
            a_matrix=self.a_matrix,
            senses=list(self.senses),
            rhs=self.stamp_rhs(),
            lower=lower,
            upper=upper,
            integrality=integrality,
            objective=self.objective,
        )


class _CompileCache:
    """Mutable cache box shared between a model and its LP relaxations."""

    __slots__ = ("compiled",)

    def __init__(self) -> None:
        self.compiled: CompiledModel | None = None


class Model:
    """A mixed-integer linear program under construction.

    Parameters
    ----------
    name:
        Used in diagnostics only.
    """

    def __init__(self, name: str = "model") -> None:
        self.name = name
        self._variables: list[Variable] = []
        self._constraints: list[Constraint] = []
        self._objective: LinExpr = LinExpr.constant_expr(0.0)
        self._minimize = True
        #: Original (pre-fix) bounds of every currently-fixed variable,
        #: restored by :meth:`unfix_all`.
        self._fixed_bounds: dict[Variable, tuple[float, float]] = {}
        #: Named RHS parameters: current values and the constraints bound
        #: to each (``{name: [(constraint_list_index, coefficient), ...]}``).
        self._parameters: dict[str, float] = {}
        #: per parameter: ``[(constraint_index, coeff, absolute_rhs_base)]``
        self._param_rows: dict[str, list[tuple[int, float, float]]] = {}
        #: Bumped whenever the *structure* (variables, constraints,
        #: objective) changes; parameter re-stamps and bound changes do
        #: not count, so they reuse the compiled lowering.
        self._structure_rev = 0
        #: Bumped on every effective :meth:`set_parameter` re-stamp; with
        #: ``_structure_rev`` it keys the :meth:`row_metadata` cache.
        self._restamp_rev = 0
        self._row_meta_cache: tuple[int, int, tuple[RowMeta, ...]] | None = None
        self._compile_cache = _CompileCache()

    # -- variables -----------------------------------------------------------
    def add_var(
        self,
        name: str,
        lb: float = 0.0,
        ub: float = math.inf,
        vtype: VarType = VarType.CONTINUOUS,
    ) -> Variable:
        """Create and register a decision variable."""
        var = Variable(name, lb=lb, ub=ub, vtype=vtype)
        var.index = len(self._variables)
        self._variables.append(var)
        self._structure_rev += 1
        return var

    def add_binary(self, name: str) -> Variable:
        """Create a {0, 1} variable (the ``OP_ijk`` variables of Eq. 3)."""
        return self.add_var(name, 0.0, 1.0, VarType.BINARY)

    def add_continuous(self, name: str, lb: float = 0.0, ub: float = math.inf) -> Variable:
        """Create a continuous variable (the auxiliary distance variables)."""
        return self.add_var(name, lb, ub, VarType.CONTINUOUS)

    @property
    def variables(self) -> Sequence[Variable]:
        return tuple(self._variables)

    @property
    def num_variables(self) -> int:
        return len(self._variables)

    @property
    def num_binary(self) -> int:
        return sum(1 for v in self._variables if v.vtype is VarType.BINARY)

    # -- constraints -----------------------------------------------------------
    def add_constraint(
        self,
        constraint: Constraint,
        name: str = "",
        parameter: str | None = None,
        parameter_coeff: float = 1.0,
        tags: Mapping[str, object] | None = None,
    ) -> Constraint:
        """Register a constraint (built with <=, >=, == on expressions).

        ``parameter`` binds the constraint's RHS to a named parameter
        previously declared via :meth:`declare_parameter`: the effective
        RHS becomes ``base + parameter_coeff * value`` where ``base`` is
        derived from the RHS at registration time and the parameter's
        current value.  :meth:`set_parameter` then re-stamps every bound
        row in O(rows) without touching the compiled lowering.

        ``tags`` attaches domain metadata to the constraint, surfaced in
        :meth:`row_metadata` for diagnostics (IIS membership, binding-row
        attribution, certification failures).
        """
        if not isinstance(constraint, Constraint):
            raise ModelError(
                "expected a Constraint; did you compare two numbers instead of "
                "expressions?"
            )
        if name:
            constraint.name = name
        if tags:
            constraint.tags = dict(tags)
        if constraint.is_trivial():
            if not constraint.trivially_satisfied():
                raise ModelError(
                    f"constraint {constraint.name or constraint!r} is trivially "
                    "infeasible"
                )
            return constraint  # satisfied constants need not be stored
        for var in constraint.lhs.variables():
            self._check_owned(var)
        if parameter is not None:
            if parameter not in self._parameters:
                raise ModelError(
                    f"parameter {parameter!r} is not declared on model "
                    f"{self.name!r}"
                )
            coeff = float(parameter_coeff)
            # Absolute base: the RHS with the parameter's current
            # contribution removed.  Stamping is then ``base + coeff*v``
            # — history-free, so any restamp sequence lands on the same
            # bits as a fresh build at ``v`` (exact whenever the RHS is
            # the bare parameter, within 1 ULP otherwise).
            self._param_rows[parameter].append(
                (
                    len(self._constraints),
                    coeff,
                    constraint.rhs - coeff * self._parameters[parameter],
                )
            )
        self._constraints.append(constraint)
        self._structure_rev += 1
        return constraint

    @property
    def constraints(self) -> Sequence[Constraint]:
        return tuple(self._constraints)

    @property
    def num_constraints(self) -> int:
        return len(self._constraints)

    def row_metadata(self) -> tuple[RowMeta, ...]:
        """Per-row identity (index, name, sense, current RHS).

        Derived from the *live* constraint objects — deliberately not from
        the compiled lowering — so :mod:`repro.verify` can label the rows
        it re-checks without touching the cache it is auditing.  Unnamed
        rows get a positional ``row[i]`` label.

        The tuple is cached against the structure and re-stamp revisions:
        per-solve diagnostics (attribution runs after every feasible
        solve) reuse it for free across re-solves of one stamp.
        """
        cache = self._row_meta_cache
        if cache is not None and cache[:2] == (self._structure_rev, self._restamp_rev):
            return cache[2]
        metas = tuple(
            RowMeta(
                index=i,
                name=constraint.name or f"row[{i}]",
                sense=constraint.sense.value,
                rhs=constraint.rhs,
                tags=constraint.tags,
            )
            for i, constraint in enumerate(self._constraints)
        )
        self._row_meta_cache = (self._structure_rev, self._restamp_rev, metas)
        return metas

    def _check_owned(self, var: Variable) -> None:
        idx = var.index
        if idx is None or idx >= len(self._variables) or self._variables[idx] is not var:
            raise ModelError(
                f"variable {var.name!r} does not belong to model {self.name!r}"
            )

    # -- parameters -------------------------------------------------------------
    def declare_parameter(self, name: str, value: float) -> None:
        """Declare a named RHS parameter with its initial value.

        Constraints registered with ``add_constraint(..., parameter=name)``
        track the parameter; :meth:`set_parameter` later re-stamps them.
        Re-declaring an existing parameter just updates its value.
        """
        if name in self._parameters:
            self.set_parameter(name, value)
            return
        self._parameters[name] = float(value)
        self._param_rows[name] = []

    def parameter(self, name: str) -> float:
        """Current value of a declared parameter."""
        try:
            return self._parameters[name]
        except KeyError:
            raise ModelError(
                f"parameter {name!r} is not declared on model {self.name!r}"
            ) from None

    @property
    def parameters(self) -> dict[str, float]:
        return dict(self._parameters)

    def set_parameter(self, name: str, value: float) -> None:
        """Re-stamp every constraint bound to parameter ``name``.

        O(bound rows): only the stored constraints' constant terms move
        (so :mod:`repro.verify` re-checks rows against the live RHS); the
        compiled lowering and every expression object are untouched.
        """
        if name not in self._parameters:
            raise ModelError(
                f"parameter {name!r} is not declared on model {self.name!r}"
            )
        value = float(value)
        if value != self._parameters[name]:
            for index, coeff, base in self._param_rows[name]:
                # rhs = -lhs.constant; stamp the absolute RHS so repeated
                # restamps never accumulate rounding.
                self._constraints[index].lhs.constant = -(base + coeff * value)
            self._parameters[name] = value
            self._restamp_rev += 1
        counter("milp.rhs_restamps").inc()

    # -- objective --------------------------------------------------------------
    def set_objective(self, expr: LinExpr | Variable | float, minimize: bool = True) -> None:
        """Set the objective.  The paper's Eq. (3) leaves this Null."""
        if isinstance(expr, Variable):
            expr = LinExpr.from_term(expr)
        elif isinstance(expr, (int, float)):
            expr = LinExpr.constant_expr(expr)
        for var in expr.variables():
            self._check_owned(var)
        self._objective = expr
        self._minimize = minimize
        self._structure_rev += 1

    @property
    def objective(self) -> LinExpr:
        return self._objective

    @property
    def minimize(self) -> bool:
        return self._minimize

    def has_objective(self) -> bool:
        """Whether a non-constant objective was set (else: feasibility model)."""
        return not self._objective.is_constant()

    # -- transformations ----------------------------------------------------------
    def fix_variable(self, var: Variable, value: float) -> None:
        """Pin ``var`` to ``value`` by collapsing its bounds.

        Used for the paper's pre-mapping step (LP values > 0.95 become 1)
        and for freezing critical-path operations.
        """
        self._check_owned(var)
        if value < var.lb - 1e-9 or value > var.ub + 1e-9:
            raise ModelError(
                f"cannot fix {var.name!r} to {value}: outside bounds "
                f"[{var.lb}, {var.ub}]"
            )
        if var.vtype is not VarType.CONTINUOUS and abs(value - round(value)) > 1e-9:
            raise ModelError(f"cannot fix discrete {var.name!r} to fractional {value}")
        if var not in self._fixed_bounds:
            self._fixed_bounds[var] = (var.lb, var.ub)
        var.lb = var.ub = float(value)

    def unfix_all(self) -> None:
        """Restore the original bounds of every fixed variable.

        Lets one compiled model be reused across Algorithm 1 iterations:
        the two-step method's pre-mapping fixes collapse bounds, and this
        reopens them before the next ``ST_target`` re-stamp.  Bounds are
        read fresh at every :meth:`to_matrix_form`, so no recompilation.
        """
        for var, (lb, ub) in self._fixed_bounds.items():
            var.lb, var.ub = lb, ub
        self._fixed_bounds.clear()

    @property
    def fixed_variables(self) -> dict[Variable, float]:
        return {var: var.lb for var in self._fixed_bounds}

    def relaxed(self) -> "Model":
        """Return the LP relaxation sharing this model's Variable objects.

        Discrete domains become continuous with identical bounds.  Because
        Variable objects are shared, solutions of the relaxation index
        directly into the original variables; the relaxation records the
        original types so :meth:`restore_types` can undo it.
        """
        relaxation = Model(f"{self.name}.lp_relaxation")
        relaxation._variables = self._variables
        relaxation._constraints = self._constraints
        relaxation._objective = self._objective
        relaxation._minimize = self._minimize
        relaxation._fixed_bounds = dict(self._fixed_bounds)
        # Share the parameter store and compiled lowering: the relaxation
        # differs only in variable *types*, which the compiled path reads
        # fresh on every matrix_form() call.
        relaxation._parameters = self._parameters
        relaxation._param_rows = self._param_rows
        relaxation._structure_rev = self._structure_rev
        relaxation._compile_cache = self._compile_cache
        relaxation._saved_types = {  # type: ignore[attr-defined]
            v: v.vtype for v in self._variables if v.vtype is not VarType.CONTINUOUS
        }
        for var in relaxation._saved_types:  # type: ignore[attr-defined]
            var.vtype = VarType.CONTINUOUS
        return relaxation

    def restore_types(self) -> None:
        """Undo a :meth:`relaxed` transformation (no-op on a base model)."""
        saved = getattr(self, "_saved_types", None)
        if saved:
            for var, vtype in saved.items():
                var.vtype = vtype
            saved.clear()

    # -- compilation ------------------------------------------------------------
    def compile(self) -> CompiledModel:
        """Structural lowering, cached on the model's structure revision.

        The cache is shared with LP relaxations (:meth:`relaxed`), so the
        two-step method's LP and residual-ILP solves lower the expression
        tree exactly once.  Adding variables/constraints or changing the
        objective invalidates it; bound changes and parameter re-stamps
        do not.
        """
        cache = self._compile_cache
        if (
            cache.compiled is None
            or cache.compiled.structure_rev != self._structure_rev
        ):
            cache.compiled = self._lower()
            counter("milp.lowerings").inc()
        else:
            counter("milp.lowering_cache_hits").inc()
        return cache.compiled

    def _lower(self) -> CompiledModel:
        """Vectorized one-pass lowering of the expression tree."""
        constraints = self._constraints
        m = len(constraints)
        n = len(self._variables)
        term_maps = [c.lhs.terms for c in constraints]
        indptr = np.zeros(m + 1, dtype=np.int64)
        np.cumsum(
            np.fromiter((len(t) for t in term_maps), np.int64, count=m),
            out=indptr[1:],
        )
        nnz = int(indptr[-1]) if m else 0
        cols = np.empty(nnz, dtype=np.int64)
        data = np.empty(nnz, dtype=np.float64)
        pos = 0
        for terms in term_maps:
            k = len(terms)
            cols[pos:pos + k] = [var.index for var in terms]
            data[pos:pos + k] = list(terms.values())
            pos += k
        a_matrix = sparse.csr_matrix((data, cols, indptr), shape=(m, n))
        a_matrix.eliminate_zeros()  # terms like (x - x) may carry 0.0 coeffs
        a_matrix.sort_indices()
        rhs = np.fromiter((c.rhs for c in constraints), float, count=m)
        # Parameterized rows carry the registration-time absolute base, so
        # the compiled stamp ``base + coeff*value`` is bit-identical to
        # :meth:`set_parameter`'s live-constraint stamp.
        param_rows: dict[str, tuple[np.ndarray, np.ndarray]] = {}
        for name, bound in self._param_rows.items():
            if not bound:
                continue
            rows_arr = np.fromiter((r for r, _, _ in bound), np.int64, count=len(bound))
            coeffs_arr = np.fromiter((c for _, c, _ in bound), float, count=len(bound))
            rhs[rows_arr] = np.fromiter((b for _, _, b in bound), float, count=len(bound))
            param_rows[name] = (rows_arr, coeffs_arr)
        objective = np.zeros(n, dtype=float)
        for var, coeff in self._objective.terms.items():
            objective[var.index] = coeff  # type: ignore[index]
        if not self._minimize:
            objective = -objective
        return CompiledModel(
            variables=self._variables,
            a_matrix=a_matrix,
            senses=[c.sense for c in constraints],
            rhs_base=rhs,
            param_rows=param_rows,
            objective=objective,
            parameters=self._parameters,
            structure_rev=self._structure_rev,
        )

    def to_matrix_form(self) -> MatrixForm:
        """Compile to the sparse standard form consumed by backends.

        Delegates to the cached :meth:`compile` lowering; only the
        per-call pieces (bounds, integrality, parameterized RHS entries)
        are re-assembled, each in O(rows + cols).
        """
        return self.compile().matrix_form()

    # -- solving ------------------------------------------------------------------
    def solve(self, backend=None) -> Solution:
        """Solve with ``backend`` (default: the scipy/HiGHS backend).

        Limits (time, nodes) are the backend's, set in its constructor.
        """
        if backend is None:
            from repro.milp.scipy_backend import ScipyBackend

            backend = ScipyBackend()
        solution = backend.solve(self)
        if solution.status.has_solution and not self._minimize and self.has_objective():
            solution.objective = -solution.objective
        return solution

    def __repr__(self) -> str:
        return (
            f"Model({self.name!r}, vars={self.num_variables} "
            f"(bin={self.num_binary}), cons={self.num_constraints})"
        )
