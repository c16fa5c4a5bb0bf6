"""Deterministic fault injection for resilience testing.

The flow has a small catalogue of *named injection points* — places where
production deployments have seen real failures (solver crashes, timeouts,
infeasible models, diverging thermal solves, NaN annealing costs).  A
:class:`FaultPlan` arms a subset of them; the library calls
:func:`should_inject` at each point and fails exactly the way the real
fault would, so tests can prove every recovery path actually recovers.

Activation
----------
* Tests: ``with fault_scope("solver_crash"): ...``
* Whole-process (CI jobs, CLI smoke runs): the ``REPRO_FAULTS``
  environment variable, e.g. ``REPRO_FAULTS="solver_crash"`` or
  ``REPRO_FAULTS="thermal_divergence@2,annealing_nan"``.

Syntax: comma-separated point names; ``point@N`` fires only on the N-th
hit of that point (1-based) — e.g. ``thermal_divergence@2`` spares the
Phase 1 baseline evaluation and corrupts the Phase 2 re-evaluation, which
is the recoverable case.  A bare name fires on every hit.

The plan is deterministic: firing depends only on the per-point hit
counter, never on randomness or time.
"""

from __future__ import annotations

import contextlib
import os
from dataclasses import dataclass, field
from typing import Iterator

from repro.errors import ReproError
from repro.obs import counter, event, get_logger

_log = get_logger("resilience.faults")

#: The injection-point catalogue (see docs/robustness.md for the exact
#: failure each point produces and the recovery path it exercises).
FAULT_POINTS = (
    "solver_crash",       # MILP backend raises SolverError mid-solve
    "solver_timeout",     # MILP backend hits its limit with no incumbent
    "infeasible_model",   # MILP backend proves the model infeasible
    "thermal_divergence", # thermal solve returns non-finite temperatures
    "annealing_nan",      # annealing move cost evaluates to NaN
    # Sweep-worker faults: the decision is taken in the *parent* at
    # dispatch time (forked workers would each count hits from zero, so
    # ``worker_crash@N`` would be nondeterministic); the flag rides into
    # the worker, which then dies (``os._exit``) or hangs.  Applied by
    # repro.resilience.isolation.run_isolated for each sweep entry.
    "worker_crash",       # sweep worker exits hard mid-entry (segfault/OOM)
    "worker_hang",        # sweep worker hangs inside a native call
    # Service-layer faults (repro.service): like worker faults, the
    # ``service_worker_crash`` verdict is taken in the *service parent*
    # at dispatch time and rides into the job worker as a flag.
    "service_worker_crash",   # a service job worker dies hard mid-solve
    "service_cache_corrupt",  # an artifact-cache write lands corrupted
    "service_slow_client",    # an HTTP client stalls mid-request body
)

#: Name of the activating environment variable.
ENV_VAR = "REPRO_FAULTS"


class FaultConfigError(ReproError):
    """A fault-plan specification could not be parsed."""


@dataclass
class FaultSpec:
    """One armed injection point.

    ``at`` fires only on that 1-based hit of the point; ``None`` fires on
    every hit.
    """

    point: str
    at: int | None = None

    def fires(self, hit: int) -> bool:
        return self.at is None or hit == self.at


@dataclass
class FaultPlan:
    """A deterministic set of armed injection points with hit counters."""

    specs: list[FaultSpec] = field(default_factory=list)
    _hits: dict[str, int] = field(default_factory=dict)
    _fired: dict[str, int] = field(default_factory=dict)

    @classmethod
    def parse(cls, text: str) -> "FaultPlan":
        """Parse the ``REPRO_FAULTS`` syntax (``point[@N][,point...]``)."""
        specs: list[FaultSpec] = []
        for raw in text.split(","):
            raw = raw.strip()
            if not raw:
                continue
            name, _, index = raw.partition("@")
            if name not in FAULT_POINTS:
                raise FaultConfigError(
                    f"unknown fault point {name!r}; known: {', '.join(FAULT_POINTS)}"
                )
            at: int | None = None
            if index:
                try:
                    at = int(index)
                except ValueError as exc:
                    raise FaultConfigError(
                        f"invalid hit index in {raw!r}; expected point@N"
                    ) from exc
                if at < 1:
                    raise FaultConfigError(f"hit index must be >= 1 in {raw!r}")
            specs.append(FaultSpec(name, at))
        return cls(specs=specs)

    def should_fire(self, point: str) -> bool:
        """Record a hit of ``point`` and decide whether the fault fires."""
        armed = [s for s in self.specs if s.point == point]
        if not armed:
            return False
        hit = self._hits.get(point, 0) + 1
        self._hits[point] = hit
        if any(spec.fires(hit) for spec in armed):
            self._fired[point] = self._fired.get(point, 0) + 1
            return True
        return False

    def hits(self, point: str) -> int:
        """How many times ``point`` was reached under this plan."""
        return self._hits.get(point, 0)

    def fired(self, point: str) -> int:
        """How many times ``point`` actually injected a fault."""
        return self._fired.get(point, 0)


#: Plan installed programmatically (fault_scope); takes precedence over env.
_installed: FaultPlan | None = None
#: Cache of the env-var plan, keyed by the raw string, so hit counters
#: persist across calls within one process.
_env_cache: tuple[str, FaultPlan] | None = None


def active_plan() -> FaultPlan | None:
    """The plan in force: the installed one, else one parsed from the env."""
    global _env_cache
    if _installed is not None:
        return _installed
    raw = os.environ.get(ENV_VAR, "")
    if not raw:
        _env_cache = None
        return None
    if _env_cache is None or _env_cache[0] != raw:
        _env_cache = (raw, FaultPlan.parse(raw))
        _log.warning("fault injection armed from %s=%r", ENV_VAR, raw)
    return _env_cache[1]


def should_inject(point: str) -> bool:
    """Called by the library at each injection point.

    Returns True when the active plan wants this hit to fail; records an
    ``obs`` counter and event on every injection so traces show what was
    injected where.
    """
    plan = active_plan()
    if plan is None:
        return False
    if not plan.should_fire(point):
        return False
    counter(f"faults.injected.{point}").inc()
    event("fault.injected", point=point, hit=plan.hits(point))
    _log.warning("injecting fault %r (hit %d)", point, plan.hits(point))
    return True


def inject_solver_fault(model_name: str):
    """Shared MILP-backend injection site (both backends call this).

    Raises :class:`~repro.errors.SolverError` for ``solver_crash``;
    returns a fabricated no-solution :class:`~repro.milp.status.Solution`
    for ``solver_timeout``/``infeasible_model``; returns ``None`` when no
    solver fault is armed.  Imports are local so arming no faults costs a
    dict lookup, and the resilience package stays import-light.
    """
    if should_inject("solver_crash"):
        from repro.errors import SolverError

        raise SolverError(f"fault injection: solver crash in {model_name!r}")
    if should_inject("solver_timeout"):
        from repro.milp.status import Solution, SolveStatus

        return Solution(
            status=SolveStatus.ERROR,
            message="fault injection: time limit reached without incumbent",
        )
    if should_inject("infeasible_model"):
        from repro.milp.status import Solution, SolveStatus

        return Solution(
            status=SolveStatus.INFEASIBLE,
            message="fault injection: model proven infeasible",
        )
    return None


@contextlib.contextmanager
def fault_scope(plan: "FaultPlan | str") -> Iterator[FaultPlan]:
    """Install a plan for the ``with`` body (tests' entry point).

    Accepts a :class:`FaultPlan` or the ``REPRO_FAULTS`` string syntax.
    """
    global _installed
    if isinstance(plan, str):
        plan = FaultPlan.parse(plan)
    previous = _installed
    _installed = plan
    try:
        yield plan
    finally:
        _installed = previous
