"""Solver root-cause diagnostics: explain *why* a solve went the way it did.

Three layers, all speaking in domain terms (PEs, ops, contexts, paths)
via the :class:`~repro.milp.model.RowMeta` domain tags stamped by the
constraint builders in :mod:`repro.core.constraints`:

* :mod:`repro.explain.attribution` — on *feasible* solves, per-family
  slack histograms and the top-k binding rows (which PEs are
  stress-saturated, which paths are wire-length-critical), exposed on
  ``SolveStats.attribution`` and mirrored into solver span attrs;
* :mod:`repro.explain.iis` — on *infeasible* verdicts, deletion-filtering
  over the compiled CSR to an irreducible infeasible subsystem, with an
  independent :func:`~repro.explain.iis.verify_iis` re-check;
* :mod:`repro.explain.probe` — deterministic forced-infeasible stress
  probe (pigeonhole over the conserved total stress) used by CI and
  ``repro explain --probe-infeasible``.

Diagnostics always run.  The attribution pass is a handful of numpy
mat-vecs per solve; IIS extraction runs only on terminal infeasible
outcomes, never on the happy path.
"""

from __future__ import annotations

from repro.explain.attribution import attribute_solution, attribution_brief
from repro.explain.iis import IISMember, IISResult, find_iis, verify_iis

__all__ = [
    "attribute_solution",
    "attribution_brief",
    "find_iis",
    "IISMember",
    "IISResult",
    "verify_iis",
]
