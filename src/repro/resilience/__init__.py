"""Resilient execution layer: deadlines, fault injection, degradation.

Small parts (docs/robustness.md has the full story):

* :mod:`repro.resilience.deadline` — a single wall-clock budget threaded
  through the whole flow via a contextvar, raising a typed
  :class:`~repro.errors.DeadlineExceededError` at iteration boundaries;
* :mod:`repro.resilience.degrade` — Phase 2's graceful-degradation ladder
  (proven → incumbent → greedy stress-levelling → original floorplan);
* :mod:`repro.resilience.faults` — deterministic named-point fault
  injection (``REPRO_FAULTS`` env var or :func:`fault_scope`) used to
  prove every recovery path actually recovers;
* :mod:`repro.resilience.checkpoint` — per-entry JSONL journals making
  experiment sweeps crash-isolated and resumable;
* :mod:`repro.resilience.isolation` — one call in a fresh worker
  process, killed on timeout: the attempt both the service and the
  sweeps make;
* :mod:`repro.resilience.atomic` — the shared crash-safe
  ``write-tmp → fsync → rename`` helper every durable JSON write uses.
"""

from repro.resilience.atomic import (
    atomic_write_bytes,
    atomic_write_json,
    atomic_write_text,
)
from repro.resilience.checkpoint import CheckpointError, SweepCheckpoint
from repro.resilience.deadline import (
    Deadline,
    current_deadline,
    deadline_scope,
    shielded,
)
from repro.resilience.degrade import (
    DEGRADATION_LEVELS,
    greedy_stress_level_remap,
    worse_level,
)
from repro.resilience.faults import (
    ENV_VAR,
    FAULT_POINTS,
    FaultConfigError,
    FaultPlan,
    FaultSpec,
    active_plan,
    fault_scope,
    inject_solver_fault,
    should_inject,
)

__all__ = [
    "DEGRADATION_LEVELS",
    "ENV_VAR",
    "FAULT_POINTS",
    "CheckpointError",
    "Deadline",
    "FaultConfigError",
    "FaultPlan",
    "FaultSpec",
    "SweepCheckpoint",
    "active_plan",
    "atomic_write_bytes",
    "atomic_write_json",
    "atomic_write_text",
    "current_deadline",
    "deadline_scope",
    "fault_scope",
    "greedy_stress_level_remap",
    "inject_solver_fault",
    "shielded",
    "should_inject",
    "worse_level",
]
