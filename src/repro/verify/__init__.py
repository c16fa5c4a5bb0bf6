"""Trust-but-verify: independent certification of solver results.

The fast path (incremental compilation, RHS restamping, LP pre-mapping
fixes) is never allowed to be its own judge.  This package re-checks accepted
solutions row-by-row against the *uncompiled* model, re-derives the
paper's domain invariants (stress budget, exactly-one-PE, frozen pinning,
CPD preservation) from first principles, certifies saved run artifacts
(``repro verify``), and cross-checks the two solver backends against each
other.  See ``docs/robustness.md`` ("Certification").
"""

from repro.verify.certifier import (
    ABS_TOL,
    INT_TOL,
    KIND_BOUNDS,
    KIND_CPD,
    KIND_FROZEN,
    KIND_INTEGRALITY,
    KIND_MISSING_VALUE,
    KIND_ROW,
    KIND_SCHEDULE,
    KIND_SLOT,
    KIND_STRESS,
    KIND_UNASSIGNED,
    REL_TOL,
    Certificate,
    Violation,
    certify_floorplan,
    certify_remap,
    certify_solution,
)
from repro.verify.artifact import KIND_SUMMARY, certify_artifact
from repro.verify.differential import (
    BACKEND_NAMES,
    differential_solve,
    make_backend,
)

__all__ = [
    "ABS_TOL",
    "BACKEND_NAMES",
    "Certificate",
    "INT_TOL",
    "KIND_BOUNDS",
    "KIND_CPD",
    "KIND_FROZEN",
    "KIND_INTEGRALITY",
    "KIND_MISSING_VALUE",
    "KIND_ROW",
    "KIND_SCHEDULE",
    "KIND_SLOT",
    "KIND_STRESS",
    "KIND_SUMMARY",
    "KIND_UNASSIGNED",
    "REL_TOL",
    "Violation",
    "certify_artifact",
    "certify_floorplan",
    "certify_remap",
    "certify_solution",
    "differential_solve",
    "make_backend",
]
