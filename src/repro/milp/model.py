"""The :class:`Model` container of the MILP modelling layer.

A model owns columns, rows and an (optional) objective.  The paper's
formulation (3) is a *feasibility* MILP — ``ObjFunc: Null`` — so the
objective defaults to nothing; solvers then search for any feasible point.

Columns live in arrays: the live bounds, the original bounds they are
reset to, and each column's kind.  :meth:`Model.add_binaries` appends a
whole family of columns at once; :meth:`Model.add_var` appends one column
with a :class:`~repro.milp.expr.Variable` handle for
:class:`~repro.milp.expr.LinExpr` algebra, and :meth:`Model.column` makes
such a handle on demand for a column added without one.

Rows come in two kinds, kept in the order they were added:

* a :class:`RowBlock` is a whole constraint family emitted as arrays in
  one pass (Eq. (3)'s assignment, exclusivity and stress rows: one row per
  op, per shared slot, per PE).  Its names and domain tags come from one
  :class:`RowTags` record, built only when a reader asks for a row;
* a :class:`~repro.milp.constraint.Constraint` is one row built from
  ``LinExpr`` algebra (Eq. (5)'s few dozen path and distance rows).

:meth:`Model.compile` lowers both into one CSR, cached on a structure
revision, and derives from it the two column-wise layouts the HiGHS
backend passes in (:meth:`CompiledModel.lp_layout` and
:meth:`CompiledModel.ilp_layout`).  The two-step method's transformations
act on arrays only:

* the LP relaxation is the same lowering with integrality switched off
  (``relax=True`` on :meth:`Model.to_matrix_form` and :meth:`Model.solve`);
* :meth:`Model.fix_columns` pins columns in the bound arrays (the 0.95
  pre-mapping), and :meth:`Model.unfix_all` restores the saved originals;
* rows registered against a named *parameter* (Algorithm 1's per-PE
  ``ST_target`` budget) re-stamp their RHS in O(rows) via
  :meth:`Model.set_parameter`.
"""

from __future__ import annotations

import bisect
import math
from dataclasses import dataclass, field, replace
from typing import Callable, Iterator, Mapping, Sequence

import numpy as np
from scipy import sparse

from repro.errors import ModelError
from repro.milp.constraint import Constraint, Sense
from repro.milp.expr import LinExpr, Variable, VarType
from repro.milp.status import Solution
from repro.obs import counter

#: Column kind codes of :attr:`Model.kinds`, in :class:`VarType` order.
_KIND_OF = {VarType.CONTINUOUS: 0, VarType.INTEGER: 1, VarType.BINARY: 2}
_TYPE_OF = {code: vtype for vtype, code in _KIND_OF.items()}


def _plain(value):
    """A tag value as a plain Python scalar (documents carry them)."""
    return value.item() if isinstance(value, np.generic) else value


@dataclass(frozen=True)
class RowTags:
    """Names and domain tags of a :class:`RowBlock`'s rows.

    ``name`` is a :meth:`str.format` pattern over ``fields``, which hold
    one value per row in tag order (e.g. ``"slot[c{context},pe{pe}]"``
    over ``context`` and ``pe``).  A row's tags are ``family`` followed
    by its field values, as plain Python scalars.
    """

    family: str
    name: str
    fields: Mapping[str, Sequence] = field(default_factory=dict)

    def name_of(self, row: int) -> str:
        return self.name.format(
            **{key: _plain(values[row]) for key, values in self.fields.items()}
        )

    def tags_of(self, row: int) -> dict:
        tags: dict[str, object] = {"family": self.family}
        for key, values in self.fields.items():
            tags[key] = _plain(values[row])
        return tags


@dataclass(frozen=True)
class RowBlock:
    """One constraint family, emitted as ``(row, col, coef)`` triplets.

    Triplets are ordered by row, and by column within a row; a row may
    have none.  Every row shares ``sense``.  With ``parameter``, the
    effective RHS is ``rhs + value`` of that parameter (coefficient 1):
    :meth:`Model.add_block` turns the absolute RHS it is given into that
    base, exactly as :meth:`Model.add_constraint` does for one row.
    """

    sense: Sense
    row: np.ndarray
    col: np.ndarray
    coef: np.ndarray
    rhs: np.ndarray
    tags: RowTags
    parameter: str | None = None

    @property
    def size(self) -> int:
        return len(self.rhs)

    def rhs_at(self, parameters: Mapping[str, float]) -> np.ndarray:
        """The RHS at the given parameter values."""
        if self.parameter is None:
            return self.rhs
        return self.rhs + parameters[self.parameter]


@dataclass(frozen=True)
class RowMeta:
    """Identity of one constraint row, for human-readable audit messages.

    ``rhs`` is the row's RHS when the metadata was taken, so restamped
    parameter rows report their *current* right-hand side.  ``tags``
    carries the row's domain metadata (family, PE coordinates, op/context
    ids — see :mod:`repro.core.constraints`) so diagnostics can speak in
    problem terms.
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


class RowTable(Sequence[RowMeta]):
    """Every row's identity, with names and tags built on request.

    ``families``, ``senses`` and ``rhs`` are per-row arrays for
    vectorised readers (binding attribution); indexing yields a
    :class:`RowMeta`.  Derived from the model's row segments — the block
    records and live ``Constraint`` objects — not from the compiled
    lowering, so :mod:`repro.verify` can label the rows it re-checks
    without touching the cache it audits.
    """

    def __init__(self, segments, parameters: Mapping[str, float]) -> None:
        self._segments = list(segments)
        self._starts: list[int] = []
        families, senses, rhs = [], [], []
        start = 0
        for segment in self._segments:
            self._starts.append(start)
            if isinstance(segment, RowBlock):
                families.append(np.full(segment.size, segment.tags.family))
                senses.append(np.full(segment.size, segment.sense.value))
                rhs.append(segment.rhs_at(parameters))
                start += segment.size
            else:
                families.append(np.array(
                    [str(c.tags.get("family", "untagged")) for c in segment],
                    dtype=object,
                ))
                senses.append(np.array([c.sense.value for c in segment]))
                rhs.append(np.array([c.rhs for c in segment], dtype=float))
                start += len(segment)
        self._size = start
        self.families = (
            np.concatenate(families).astype(str) if families else np.zeros(0, str)
        )
        self.senses = np.concatenate(senses) if senses else np.zeros(0, str)
        self.rhs = np.concatenate(rhs) if rhs else np.zeros(0)

    def __len__(self) -> int:
        return self._size

    def __getitem__(self, index):  # type: ignore[override]
        index = int(index)
        if index < 0:
            index += self._size
        if not 0 <= index < self._size:
            raise IndexError(f"row {index} out of range")
        position = bisect.bisect_right(self._starts, index) - 1
        segment, local = self._segments[position], index - self._starts[position]
        if isinstance(segment, RowBlock):
            return RowMeta(
                index=index,
                name=segment.tags.name_of(local),
                sense=segment.sense.value,
                rhs=float(self.rhs[index]),
                tags=segment.tags.tags_of(local),
            )
        constraint = segment[local]
        return RowMeta(
            index=index,
            name=constraint.name or f"row[{index}]",
            sense=constraint.sense.value,
            rhs=constraint.rhs,
            tags=constraint.tags,
        )

    def __iter__(self) -> Iterator[RowMeta]:
        return (self[i] for i in range(self._size))


@dataclass
class MatrixForm:
    """Sparse standard form of a model.

    ``A x (sense) b`` row-wise, with per-column bounds and integrality
    markers.  ``senses`` holds one ``"<="``/``">="``/``"=="`` per row.
    The arrays are snapshots, except ``a_matrix``, ``senses`` and
    ``objective``, which belong to ``compiled`` (the lowering the form
    came from) and are read-only.
    """

    a_matrix: sparse.csr_matrix
    senses: np.ndarray
    rhs: np.ndarray
    lower: np.ndarray
    upper: np.ndarray
    integrality: np.ndarray  # 1 where the column must be integral, else 0
    objective: np.ndarray
    compiled: "CompiledModel | None" = field(default=None, repr=False)


@dataclass(frozen=True)
class HighsLayout:
    """A column-wise matrix and how its rows map onto the model's.

    Row ``i`` of the layout is row ``rows[i]`` of the model times
    ``scale[i]``, bounded below when ``has_lower[i]`` and above when
    ``has_upper[i]``.
    """

    start: np.ndarray
    index: np.ndarray
    value: np.ndarray
    rows: np.ndarray
    scale: np.ndarray
    has_lower: np.ndarray
    has_upper: np.ndarray

    def row_bounds(self, rhs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """``(row_lower, row_upper)`` of the layout at the model RHS ``rhs``."""
        bound = rhs[self.rows] * self.scale
        return (
            np.where(self.has_lower, bound, -np.inf),
            np.where(self.has_upper, bound, np.inf),
        )


class CompiledModel:
    """The structural lowering of a :class:`Model`, reusable across solves.

    Everything that requires traversing rows — the sparse A matrix, row
    senses, the parameter row maps, the objective vector and integrality
    — is computed once here, per structure revision; the HiGHS layouts
    are derived from it on first use.  :meth:`stamp_rhs` re-stamps the
    parameterised RHS entries from the model's current values.
    """

    __slots__ = (
        "a_matrix", "senses", "rhs_base", "param_rows", "objective",
        "integrality", "parameters", "structure_rev", "_layouts",
    )

    def __init__(
        self,
        a_matrix: sparse.csr_matrix,
        senses: np.ndarray,
        rhs_base: np.ndarray,
        param_rows: dict[str, tuple[np.ndarray, np.ndarray]],
        objective: np.ndarray,
        integrality: np.ndarray,
        parameters: Mapping[str, float],
        structure_rev: int,
    ) -> None:
        self.a_matrix = a_matrix
        self.senses = senses
        #: RHS with every parameter's contribution removed.
        self.rhs_base = rhs_base
        #: ``{parameter: (row_indices, coefficients)}``.
        self.param_rows = param_rows
        self.objective = objective
        self.integrality = integrality
        #: Live reference to the owning model's parameter values.
        self.parameters = parameters
        self.structure_rev = structure_rev
        self._layouts: dict[str, HighsLayout] = {}

    def stamp_rhs(self) -> np.ndarray:
        """RHS vector at the current parameter values (O(rows))."""
        rhs = self.rhs_base.copy()
        for name, (rows, coeffs) in self.param_rows.items():
            rhs[rows] += coeffs * self.parameters[name]
        return rhs

    def ilp_layout(self, rows: np.ndarray | None = None) -> HighsLayout:
        """The model's own row order, each row bounded by its sense; with
        ``rows``, only those rows (uncached: the IIS probes' subsets)."""
        if rows is None and "ilp" in self._layouts:
            return self._layouts["ilp"]
        picked = np.arange(len(self.senses)) if rows is None else rows
        senses = self.senses[picked]
        layout = self._layout(
            picked, np.ones(len(picked)), senses != "<=", senses != ">="
        )
        if rows is None:
            self._layouts["ilp"] = layout
        return layout

    def lp_layout(self) -> HighsLayout:
        """``linprog``'s order: the ``<=`` rows and the negated ``>=``
        rows as they come, then the ``==`` rows.

        Row order steers HiGHS to different vertices among degenerate LP
        optima, and the 0.95 pre-mapping reads that vertex: the LP must
        see this order, the residual ILP the model's own.
        """
        if "lp" not in self._layouts:
            equal = self.senses == "=="
            rows = np.concatenate((np.flatnonzero(~equal), np.flatnonzero(equal)))
            scale = np.where(self.senses[rows] == ">=", -1.0, 1.0)
            self._layouts["lp"] = self._layout(
                rows, scale, equal[rows], np.ones(len(rows), dtype=bool)
            )
        return self._layouts["lp"]

    def _layout(self, rows, scale, has_lower, has_upper) -> HighsLayout:
        matrix = self.a_matrix[np.asarray(rows, dtype=np.intp)]
        if (scale < 0).any():
            matrix = matrix.copy()
            matrix.data *= np.repeat(scale, np.diff(matrix.indptr))
        csc = matrix.tocsc()
        csc.sort_indices()
        return HighsLayout(
            start=csc.indptr, index=csc.indices, value=csc.data,
            rows=rows, scale=scale, has_lower=has_lower, has_upper=has_upper,
        )


class Model:
    """A mixed-integer linear program under construction.

    Parameters
    ----------
    name:
        Used in diagnostics only.
    """

    def __init__(self, name: str = "model") -> None:
        self.name = name
        self._n = 0
        #: Live bounds, original bounds, kind codes and fix marks per
        #: column; grown geometrically, valid up to ``_n``.
        self._lower = np.zeros(0)
        self._upper = np.zeros(0)
        self._lower0 = np.zeros(0)
        self._upper0 = np.zeros(0)
        self._kind = np.zeros(0, dtype=np.int8)
        self._fixed = np.zeros(0, dtype=bool)
        #: Handles of columns that have one (``add_var`` or :meth:`column`).
        self._handles: dict[int, Variable] = {}
        #: ``(first, count, namer)`` of each column family from
        #: :meth:`add_binaries`; ``namer(j)`` names its ``j``-th column.
        self._namers: list[tuple[int, int, Callable[[int], str]]] = []
        #: Rows in order: :class:`RowBlock` records and runs of
        #: ``Constraint`` objects.
        self._segments: list[RowBlock | list[Constraint]] = []
        self._constraints: list[Constraint] = []
        self._num_rows = 0
        self._objective: LinExpr = LinExpr.constant_expr(0.0)
        self._minimize = True
        #: Named RHS parameters and their current values.
        self._parameters: dict[str, float] = {}
        #: Per parameter: ``[(constraint, row, coeff, absolute_rhs_base)]``
        #: of the ``Constraint`` rows bound to it (blocks carry their own).
        self._param_rows: dict[str, list[tuple[Constraint, int, float, float]]] = {}
        #: Bumped whenever the *structure* (columns, rows, objective)
        #: changes; parameter re-stamps and bound changes do not count,
        #: so they reuse the compiled lowering.
        self._structure_rev = 0
        #: Bumped on every effective :meth:`set_parameter` re-stamp; with
        #: ``_structure_rev`` it keys the :meth:`row_metadata` cache.
        self._restamp_rev = 0
        self._row_table: tuple[int, int, RowTable] | None = None
        self._compiled: CompiledModel | None = None

    # -- columns ---------------------------------------------------------------
    def _append_columns(self, lower, upper, kind: int) -> int:
        first, count = self._n, len(lower)
        need = first + count
        if need > self._lower.size:
            capacity = max(need, 2 * self._lower.size, 16)
            for attr in ("_lower", "_upper", "_lower0", "_upper0", "_kind", "_fixed"):
                old = getattr(self, attr)
                grown = np.zeros(capacity, dtype=old.dtype)
                grown[:first] = old[:first]
                setattr(self, attr, grown)
        self._lower[first:need] = self._lower0[first:need] = lower
        self._upper[first:need] = self._upper0[first:need] = upper
        self._kind[first:need] = kind
        self._fixed[first:need] = False
        self._n = need
        self._structure_rev += 1
        return first

    def add_var(
        self,
        name: str,
        lb: float = 0.0,
        ub: float = math.inf,
        vtype: VarType = VarType.CONTINUOUS,
    ) -> Variable:
        """Create and register a decision variable."""
        var = Variable(name, lb=lb, ub=ub, vtype=vtype)
        var.index = self._append_columns([var.lb], [var.ub], _KIND_OF[vtype])
        self._handles[var.index] = var
        return var

    def add_binary(self, name: str) -> Variable:
        """Create a {0, 1} variable."""
        return self.add_var(name, 0.0, 1.0, VarType.BINARY)

    def add_continuous(self, name: str, lb: float = 0.0, ub: float = math.inf) -> Variable:
        """Create a continuous variable (the auxiliary distance variables)."""
        return self.add_var(name, lb, ub, VarType.CONTINUOUS)

    def add_binaries(self, count: int, namer: Callable[[int], str]) -> int:
        """Append ``count`` {0, 1} columns without handles (the ``OP_ijk``
        variables of Eq. 3); returns the first column's index.

        ``namer(j)`` names the ``j``-th new column when a reader asks.
        """
        first = self._append_columns(
            np.zeros(count), np.ones(count), _KIND_OF[VarType.BINARY]
        )
        self._namers.append((first, count, namer))
        return first

    def column(self, index: int) -> Variable:
        """The :class:`Variable` handle of column ``index``, made on demand."""
        var = self._handles.get(index)
        if var is None:
            if not 0 <= index < self._n:
                raise ModelError(f"model {self.name!r} has no column {index}")
            var = Variable(
                self.column_name(index),
                lb=float(self._lower0[index]),
                ub=float(self._upper0[index]),
                vtype=_TYPE_OF[int(self._kind[index])],
            )
            var.index = index
            self._handles[index] = var
        return var

    def column_name(self, index: int) -> str:
        var = self._handles.get(index)
        if var is not None:
            return var.name
        for first, count, namer in self._namers:
            if first <= index < first + count:
                return namer(index - first)
        return f"col[{index}]"

    @property
    def lower(self) -> np.ndarray:
        """Live column lower bounds (a view; pre-mapping fixes included)."""
        return self._lower[: self._n]

    @property
    def upper(self) -> np.ndarray:
        """Live column upper bounds (a view; pre-mapping fixes included)."""
        return self._upper[: self._n]

    @property
    def kinds(self) -> np.ndarray:
        """Per-column kind: 0 continuous, 1 integer, 2 binary."""
        return self._kind[: self._n]

    @property
    def num_variables(self) -> int:
        return self._n

    @property
    def num_binary(self) -> int:
        return int(np.count_nonzero(self.kinds == _KIND_OF[VarType.BINARY]))

    # -- rows --------------------------------------------------------------------
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
            self._check_parameter(parameter)
            coeff = float(parameter_coeff)
            # Absolute base: the RHS with the parameter's current
            # contribution removed.  Stamping is then ``base + coeff*v``
            # — history-free, so any restamp sequence lands on the same
            # bits as a fresh build at ``v`` (exact whenever the RHS is
            # the bare parameter, within 1 ULP otherwise).
            self._param_rows[parameter].append(
                (
                    constraint,
                    self._num_rows,
                    coeff,
                    constraint.rhs - coeff * self._parameters[parameter],
                )
            )
        if self._segments and isinstance(self._segments[-1], list):
            self._segments[-1].append(constraint)
        else:
            self._segments.append([constraint])
        self._constraints.append(constraint)
        self._num_rows += 1
        self._structure_rev += 1
        return constraint

    def add_block(self, block: RowBlock) -> RowBlock:
        """Register a family of rows emitted as arrays.

        With ``block.parameter``, ``block.rhs`` is the RHS at the
        parameter's current value; the stored block carries the base
        ``rhs - value``, stamped as ``base + value``.
        """
        if block.col.size and (block.col.min() < 0 or block.col.max() >= self._n):
            raise ModelError(
                f"row block {block.tags.family!r} names a column outside "
                f"model {self.name!r}"
            )
        if block.parameter is not None:
            self._check_parameter(block.parameter)
            block = replace(
                block, rhs=block.rhs - 1.0 * self._parameters[block.parameter]
            )
        self._segments.append(block)
        self._num_rows += block.size
        self._structure_rev += 1
        return block

    @property
    def constraints(self) -> Sequence[Constraint]:
        """The ``Constraint`` rows (block rows are not listed)."""
        return tuple(self._constraints)

    @property
    def num_constraints(self) -> int:
        """Rows of every kind."""
        return self._num_rows

    def segments(self) -> tuple[RowBlock | tuple[Constraint, ...], ...]:
        """The rows in order: blocks, and runs of ``Constraint`` rows."""
        return tuple(
            seg if isinstance(seg, RowBlock) else tuple(seg)
            for seg in self._segments
        )

    def row_metadata(self) -> RowTable:
        """Per-row identity (index, name, sense, current RHS, tags).

        Cached against the structure and re-stamp revisions: per-solve
        diagnostics (attribution runs after every feasible solve) reuse
        it for free across re-solves of one stamp.
        """
        cache = self._row_table
        if cache is not None and cache[:2] == (self._structure_rev, self._restamp_rev):
            return cache[2]
        table = RowTable(self._segments, self._parameters)
        self._row_table = (self._structure_rev, self._restamp_rev, table)
        return table

    def _check_owned(self, var: Variable) -> None:
        idx = var.index
        if idx is None or idx >= self._n or self._handles.get(idx) is not var:
            raise ModelError(
                f"variable {var.name!r} does not belong to model {self.name!r}"
            )

    # -- parameters -------------------------------------------------------------
    def _check_parameter(self, name: str) -> None:
        if name not in self._parameters:
            raise ModelError(
                f"parameter {name!r} is not declared on model {self.name!r}"
            )

    def declare_parameter(self, name: str, value: float) -> None:
        """Declare a named RHS parameter with its initial value.

        Rows registered against it later track it; :meth:`set_parameter`
        re-stamps them.  Re-declaring an existing parameter just updates
        its value.
        """
        if name in self._parameters:
            self.set_parameter(name, value)
            return
        self._parameters[name] = float(value)
        self._param_rows[name] = []

    def parameter(self, name: str) -> float:
        """Current value of a declared parameter."""
        self._check_parameter(name)
        return self._parameters[name]

    @property
    def parameters(self) -> dict[str, float]:
        return dict(self._parameters)

    def set_parameter(self, name: str, value: float) -> None:
        """Re-stamp every row bound to parameter ``name``.

        O(bound rows): block rows read the value when stamped; the bound
        ``Constraint`` objects get their constant term re-stamped (so
        :mod:`repro.verify` re-checks rows against the live RHS).  The
        compiled lowering is untouched.
        """
        self._check_parameter(name)
        value = float(value)
        if value != self._parameters[name]:
            for constraint, _row, coeff, base in self._param_rows[name]:
                # rhs = -lhs.constant; stamp the absolute RHS so repeated
                # restamps never accumulate rounding.
                constraint.lhs.constant = -(base + coeff * value)
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

    # -- bounds -------------------------------------------------------------------
    def fix_columns(self, columns: np.ndarray, values: np.ndarray) -> None:
        """Pin ``columns`` to ``values`` by collapsing their bounds.

        Used for the paper's pre-mapping step (LP values > 0.95 become 1,
        the rest of their group 0); :meth:`unfix_all` reopens them.
        """
        columns = np.asarray(columns, dtype=np.int64)
        values = np.asarray(values, dtype=float)
        if not columns.size:
            return
        if columns.min() < 0 or columns.max() >= self._n:
            raise ModelError(f"cannot fix a column outside model {self.name!r}")
        lower, upper = self._lower[columns], self._upper[columns]
        outside = (values < lower - 1e-9) | (values > upper + 1e-9)
        fractional = (self._kind[columns] != 0) & (
            np.abs(values - np.round(values)) > 1e-9
        )
        if outside.any():
            at = int(np.flatnonzero(outside)[0])
            raise ModelError(
                f"cannot fix {self.column_name(int(columns[at]))!r} to "
                f"{values[at]}: outside bounds [{lower[at]}, {upper[at]}]"
            )
        if fractional.any():
            at = int(np.flatnonzero(fractional)[0])
            raise ModelError(
                f"cannot fix discrete {self.column_name(int(columns[at]))!r} "
                f"to fractional {values[at]}"
            )
        self._lower[columns] = self._upper[columns] = values
        self._fixed[columns] = True

    def fix_variable(self, var: Variable, value: float) -> None:
        """Pin one variable to ``value`` (see :meth:`fix_columns`)."""
        self._check_owned(var)
        self.fix_columns(np.array([var.index]), np.array([float(value)]))

    def unfix_all(self) -> None:
        """Restore the original bounds of every fixed column.

        Lets one compiled model be reused across Algorithm 1 iterations:
        the two-step method's pre-mapping fixes collapse bounds, and this
        reopens them before the next ``ST_target`` re-stamp.
        """
        n = self._n
        self._lower[:n] = self._lower0[:n]
        self._upper[:n] = self._upper0[:n]
        self._fixed[:n] = False

    @property
    def fixed_variables(self) -> dict[Variable, float]:
        return {
            self.column(int(j)): float(self._lower[j])
            for j in np.flatnonzero(self._fixed[: self._n])
        }

    # -- compilation ------------------------------------------------------------
    def compile(self) -> CompiledModel:
        """Structural lowering, cached on the model's structure revision.

        The two-step method's LP and residual-ILP solves share it, so
        each structure is lowered exactly once.  Adding columns or rows
        or changing the objective invalidates it; bound changes and
        parameter re-stamps do not.
        """
        compiled = self._compiled
        if compiled is None or compiled.structure_rev != self._structure_rev:
            compiled = self._compiled = self._lower_rows()
            counter("milp.lowerings").inc()
        else:
            counter("milp.lowering_cache_hits").inc()
        return compiled

    def _lower_rows(self) -> CompiledModel:
        """One pass over the row segments into a CSR."""
        m, n = self._num_rows, self._n
        counts, cols, data, rhs, senses = [], [], [], [], []
        param_rows: dict[str, tuple[list, list]] = {}
        row = 0
        for segment in self._segments:
            if isinstance(segment, RowBlock):
                size = segment.size
                counts.append(np.bincount(segment.row, minlength=size))
                cols.append(segment.col)
                data.append(segment.coef)
                rhs.append(segment.rhs)
                senses.append(np.full(size, segment.sense.value))
                if segment.parameter is not None:
                    rows_list, coeffs = param_rows.setdefault(
                        segment.parameter, ([], [])
                    )
                    rows_list.append(np.arange(row, row + size))
                    coeffs.append(np.ones(size))
            else:
                size = len(segment)
                term_maps = [c.lhs.terms for c in segment]
                counts.append(np.fromiter(
                    (len(t) for t in term_maps), np.int64, count=size
                ))
                cols.append(np.fromiter(
                    (var.index for t in term_maps for var in t), np.int64
                ))
                data.append(np.fromiter(
                    (coeff for t in term_maps for coeff in t.values()), float
                ))
                rhs.append(np.fromiter((c.rhs for c in segment), float, count=size))
                senses.append(np.array([c.sense.value for c in segment]))
            row += size
        indptr = np.zeros(m + 1, dtype=np.int64)
        if m:
            np.cumsum(np.concatenate(counts), out=indptr[1:])
        a_matrix = sparse.csr_matrix(
            (
                np.concatenate(data) if data else np.zeros(0),
                np.concatenate(cols) if cols else np.zeros(0, np.int64),
                indptr,
            ),
            shape=(m, n),
        )
        a_matrix.eliminate_zeros()  # terms like (x - x) may carry 0.0 coeffs
        a_matrix.sort_indices()
        rhs_base = np.concatenate(rhs) if rhs else np.zeros(0)
        # ``Constraint`` rows bound to a parameter carry their
        # registration-time absolute base, so the stamp ``base +
        # coeff*value`` is bit-identical to set_parameter's live stamp.
        for name, bound in self._param_rows.items():
            if not bound:
                continue
            rows_list, coeffs = param_rows.setdefault(name, ([], []))
            at = np.fromiter((r for _, r, _, _ in bound), np.int64, count=len(bound))
            rhs_base[at] = np.fromiter((b for *_, b in bound), float, count=len(bound))
            rows_list.append(at)
            coeffs.append(np.fromiter((c for _, _, c, _ in bound), float, count=len(bound)))
        objective = np.zeros(n, dtype=float)
        for var, coeff in self._objective.terms.items():
            objective[var.index] = coeff  # type: ignore[index]
        if not self._minimize:
            objective = -objective
        return CompiledModel(
            a_matrix=a_matrix,
            senses=np.concatenate(senses) if senses else np.zeros(0, str),
            rhs_base=rhs_base,
            param_rows={
                name: (np.concatenate(r), np.concatenate(c))
                for name, (r, c) in param_rows.items()
            },
            objective=objective,
            integrality=(self.kinds != 0).astype(np.uint8),
            parameters=self._parameters,
            structure_rev=self._structure_rev,
        )

    def to_matrix_form(self, relax: bool = False) -> MatrixForm:
        """The sparse standard form at current bounds and parameters.

        ``relax=True`` gives the LP relaxation: the same rows and bounds
        with integrality switched off.
        """
        compiled = self.compile()
        return MatrixForm(
            a_matrix=compiled.a_matrix,
            senses=compiled.senses,
            rhs=compiled.stamp_rhs(),
            lower=self.lower.copy(),
            upper=self.upper.copy(),
            integrality=(
                np.zeros_like(compiled.integrality) if relax
                else compiled.integrality.copy()
            ),
            objective=compiled.objective,
            compiled=compiled,
        )

    # -- solving ------------------------------------------------------------------
    def solve(self, backend=None, relax: bool = False) -> Solution:
        """Solve with ``backend`` (default: the HiGHS backend);
        ``relax=True`` solves the LP relaxation.

        Limits (time, nodes) are the backend's, set in its constructor.
        """
        if backend is None:
            from repro.milp.scipy_backend import ScipyBackend

            backend = ScipyBackend()
        solution = backend.solve(self, relax=relax)
        if solution.status.has_solution and not self._minimize and self.has_objective():
            solution.objective = -solution.objective
        return solution

    def __repr__(self) -> str:
        return (
            f"Model({self.name!r}, vars={self.num_variables} "
            f"(bin={self.num_binary}), cons={self.num_constraints})"
        )
