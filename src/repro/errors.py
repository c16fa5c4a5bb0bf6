"""Exception hierarchy for the repro library.

All errors raised by the library derive from :class:`ReproError`, so callers
can catch one type at an API boundary.  Subsystem-specific errors derive from
intermediate classes (e.g. :class:`ModelError` for MILP-modelling mistakes)
so tests can assert on precise failure modes.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for every error raised by the repro library."""


class ModelError(ReproError):
    """An MILP model was constructed or used incorrectly."""


class SolverError(ReproError):
    """A solver backend failed in a way that is not simply 'infeasible'."""


class BudgetInfeasibleError(ModelError):
    """A stress budget is violated by frozen ops alone.

    No assignment of the movable operations can repair this; Algorithm 1
    treats it as an infeasible iteration and relaxes ``ST_target``.
    """


class InfeasibleError(SolverError):
    """The model was proven infeasible (raised only when a solution is required)."""


class ArchitectureError(ReproError):
    """An invalid CGRRA architecture description or mapping."""


class MappingError(ArchitectureError):
    """An op-to-PE mapping violates fabric rules (overlap, out of bounds...)."""


class HLSError(ReproError):
    """Base class for high-level-synthesis frontend errors."""


class LexerError(HLSError):
    """Tokenisation of a mini-C source failed."""

    def __init__(self, message: str, line: int, column: int) -> None:
        super().__init__(f"line {line}, col {column}: {message}")
        self.line = line
        self.column = column


class ParseError(HLSError):
    """Parsing of a mini-C source failed."""

    def __init__(self, message: str, line: int = 0, column: int = 0) -> None:
        location = f"line {line}, col {column}: " if line else ""
        super().__init__(f"{location}{message}")
        self.line = line
        self.column = column


class TypeCheckError(HLSError):
    """Semantic analysis of a mini-C source failed."""


class SchedulingError(HLSError):
    """A dataflow graph could not be scheduled under the given resources."""


class TimingError(ReproError):
    """Static timing analysis failed (cyclic timing graph, missing placement...)."""


class ThermalError(ReproError):
    """The thermal model received inconsistent inputs."""


class AgingError(ReproError):
    """The NBTI/MTTF model received out-of-domain parameters."""


class FlowError(ReproError):
    """The end-to-end CAD flow could not produce a valid floorplan."""


class DeadlineExceededError(FlowError):
    """A wall-clock budget (:class:`repro.resilience.Deadline`) expired.

    Raised at iteration boundaries (Algorithm 1 iterations, MILP solves,
    thermal context solves) when the flow's budget is spent.  Callers with
    a fallback — e.g. Phase 2's degradation ladder — catch this and degrade
    instead of aborting.
    """

    def __init__(self, stage: str, budget_s: float, elapsed_s: float) -> None:
        super().__init__(
            f"deadline of {budget_s:.3f}s exceeded at {stage!r} "
            f"(elapsed {elapsed_s:.3f}s)"
        )
        self.stage = stage
        self.budget_s = budget_s
        self.elapsed_s = elapsed_s


class CertificationError(ReproError):
    """An independently re-checked solution failed certification.

    Raised by :mod:`repro.verify` when a solver solution (or a final
    floorplan) violates a re-derived constraint — feasibility rows,
    per-PE stress budgets, exactly-one-PE bindings, frozen-op pinning,
    or the CPD-preservation invariant.  Algorithm 1 treats it like a
    solver failure: one cold-rebuild re-solve, then the degradation
    ladder.
    """

    def __init__(self, message: str, violations: tuple = ()) -> None:
        super().__init__(message)
        self.violations = tuple(violations)


class SweepError(ReproError):
    """An experiment sweep entry failed permanently (after retries)."""


class WorkerLostError(ReproError):
    """An isolated worker process died, or was killed, before returning.

    Raised by :func:`repro.resilience.isolation.run_isolated`;
    ``timed_out`` tells a worker killed at its timeout from one that died
    on its own (crash, OOM kill, ``os._exit``).
    """

    def __init__(self, message: str, timed_out: bool = False) -> None:
        super().__init__(message)
        self.timed_out = timed_out


class ServiceError(ReproError):
    """The floorplanning service could not handle a request."""


class AdmissionError(ServiceError):
    """A request was shed at admission (queue full, draining, bad tenant).

    Carries ``retry_after_s`` so callers — and the HTTP layer's
    ``Retry-After`` header — can tell the client when another attempt is
    worth making, and ``reason`` (``"queue_full"`` / ``"draining"`` /
    ``"tenant_queue_full"``) so load shedding stays observable and typed.
    """

    def __init__(self, reason: str, retry_after_s: float) -> None:
        super().__init__(
            f"request rejected ({reason}); retry after {retry_after_s:.1f}s"
        )
        self.reason = reason
        self.retry_after_s = retry_after_s


class BenchmarkError(ReproError):
    """A synthetic benchmark request was inconsistent or unsatisfiable."""
