"""LP-relaxation rounding strategies for the two-step MILP method.

The paper (Section V-B, Step 1) relaxes the binary assignment variables
``OP_ijk`` to ``[0, 1]``, solves the LP, then **fixes to 1 every variable
whose LP value exceeds 0.95** before re-solving the remainder as an ILP.
The authors note they "did try other well-known approaches such as
randomized rounding, but they did not work as well" — both strategies are
implemented here so the comparison is reproducible
(``benchmarks/bench_ablation_rounding.py``).

Strategies operate on *assignment groups*: for each operation, the binary
columns (one per candidate PE) that must sum to one, given as contiguous
column ranges by an offsets array — group ``g`` owns columns
``groups[g]:groups[g + 1]``.  Fixing any member to 1 implies the rest of
the group is 0, which the strategies also apply so the follow-up ILP
shrinks as much as possible.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from repro.errors import ModelError
from repro.milp.model import Model
from repro.milp.status import Solution
from repro.obs import counter, get_logger, span

#: The paper's pre-mapping threshold.
DEFAULT_FIX_THRESHOLD = 0.95

_log = get_logger("milp.rounding")


@dataclass
class RoundingReport:
    """What a rounding pass did, for logging and the ablation benches."""

    groups_total: int = 0
    groups_fixed: int = 0
    variables_total: int = 0
    variables_fixed_one: int = 0
    variables_fixed_zero: int = 0
    strategy: str = ""
    details: dict = field(default_factory=dict)

    @property
    def fraction_fixed(self) -> float:
        """Share of assignment groups decided by the LP alone."""
        if self.groups_total == 0:
            return 0.0
        return self.groups_fixed / self.groups_total

    @property
    def variables_fixed(self) -> int:
        """Binary variables the pre-mapping removed from the residual ILP."""
        return self.variables_fixed_one + self.variables_fixed_zero

    @property
    def variables_free(self) -> int:
        """Binary variables that survived the pre-mapping into the ILP."""
        return self.variables_total - self.variables_fixed


def threshold_fix(
    model: Model,
    groups: np.ndarray,
    lp_solution: Solution,
    threshold: float = DEFAULT_FIX_THRESHOLD,
) -> RoundingReport:
    """Fix to 1 every group member whose LP value exceeds ``threshold``.

    This is the paper's strategy.  At most one member per group can exceed
    a threshold above 0.5 (the group sums to 1); should rounding noise let
    two, the first wins.  Remaining members of a fixed group are pinned
    to 0.
    """
    if not 0.5 < threshold <= 1.0:
        raise ModelError(f"threshold must lie in (0.5, 1.0], got {threshold}")
    groups = np.asarray(groups)
    report = _report(groups, "threshold", {"threshold": threshold})
    with span("rounding", strategy="threshold") as round_span:
        above = np.flatnonzero(
            lp_solution.x[groups[0]:groups[-1]] > threshold
        ) + groups[0]
        owner = np.searchsorted(groups, above, side="right") - 1
        fixed, first = np.unique(owner, return_index=True)
        _fix_groups(model, groups, fixed, above[first], report)
        round_span.set(
            groups_fixed=report.groups_fixed, groups_total=report.groups_total
        )
    _record_rounding(report)
    return report


def randomized_round(
    model: Model,
    groups: np.ndarray,
    lp_solution: Solution,
    rng: random.Random,
    min_mass: float = 0.5,
) -> RoundingReport:
    """Randomized rounding: sample each group's winner ∝ its LP mass.

    Groups whose largest LP value is below ``min_mass`` are left to the ILP
    (sampling from a near-uniform distribution would be noise, and this is
    still *more* aggressive than the paper's strategy — matching the
    comparison the authors describe).
    """
    groups = np.asarray(groups)
    report = _report(groups, "randomized", {"min_mass": min_mass})
    values = lp_solution.x.tolist()
    fixed: list[int] = []
    winners: list[int] = []
    with span("rounding", strategy="randomized") as round_span:
        for g, (start, end) in enumerate(zip(groups[:-1].tolist(), groups[1:].tolist())):
            masses = [max(0.0, value) for value in values[start:end]]
            total = sum(masses)
            if total <= 0.0 or max(masses) < min_mass:
                continue
            pick = rng.random() * total
            cumulative = 0.0
            winner = end - 1
            for column, mass in enumerate(masses, start):
                cumulative += mass
                if pick <= cumulative:
                    winner = column
                    break
            fixed.append(g)
            winners.append(winner)
        _fix_groups(
            model, groups, np.array(fixed, dtype=np.int64),
            np.array(winners, dtype=np.int64), report,
        )
        round_span.set(
            groups_fixed=report.groups_fixed, groups_total=report.groups_total
        )
    _record_rounding(report)
    return report


def _report(groups: np.ndarray, strategy: str, details: dict) -> RoundingReport:
    return RoundingReport(
        groups_total=len(groups) - 1,
        variables_total=int(groups[-1] - groups[0]),
        strategy=strategy,
        details=details,
    )


def _record_rounding(report: RoundingReport) -> None:
    """Registry + logging bookkeeping shared by the strategies."""
    counter("rounding.passes").inc()
    counter("rounding.groups_fixed").inc(report.groups_fixed)
    counter("rounding.vars_fixed").inc(
        report.variables_fixed_one + report.variables_fixed_zero
    )
    _log.debug(
        "%s rounding fixed %d/%d groups (%.0f%%)",
        report.strategy, report.groups_fixed, report.groups_total,
        100.0 * report.fraction_fixed,
    )


def _fix_groups(
    model: Model,
    groups: np.ndarray,
    fixed: np.ndarray,
    winners: np.ndarray,
    report: RoundingReport,
) -> None:
    """Pin each ``winners`` column to 1 and the rest of its group
    (``fixed``, same order) to 0."""
    starts = groups[fixed]
    sizes = groups[fixed + 1] - starts
    offsets = np.cumsum(sizes) - sizes
    columns = np.arange(int(sizes.sum())) - np.repeat(offsets - starts, sizes)
    model.fix_columns(columns, columns == np.repeat(winners, sizes))
    report.groups_fixed += len(fixed)
    report.variables_fixed_one += len(fixed)
    report.variables_fixed_zero += int(sizes.sum()) - len(fixed)


def extract_assignment(
    groups: np.ndarray,
    solution: Solution,
    keys: Sequence | None = None,
    tol: float = 1e-4,
) -> np.ndarray:
    """The winning column of each one-hot group of a solved model.

    Raises :class:`ModelError` naming the group (``keys[g]`` when given)
    unless exactly one member is valued at 1 — an argmax that also
    checks the solution is integral on the group.
    """
    groups = np.asarray(groups)
    hits = solution.x[groups[0]:groups[-1]] > 1 - tol
    counts = np.add.reduceat(hits, groups[:-1] - groups[0]) if len(groups) > 1 else hits[:0]
    counts[groups[1:] == groups[:-1]] = 0
    bad = np.flatnonzero(counts != 1)
    if bad.size:
        g = int(bad[0])
        key = keys[g] if keys is not None else g
        raise ModelError(
            f"assignment group {key!r} decoded to {int(counts[g])} winners "
            "(expected exactly 1); solution is not integral"
        )
    return np.flatnonzero(hits) + groups[0]
