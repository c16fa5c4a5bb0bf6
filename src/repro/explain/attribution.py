"""Binding/slack attribution of a feasible solution against the CSR.

Pure numpy over the already-compiled matrix form — no solver calls, no
imports from the rest of the library (both MILP backends import this
module, so it must stay a leaf).  Senses are compared through their
string values (``"<="``/``">="``/``"=="``) to avoid importing the enum.

The result is a JSON-safe dict answering the questions Algorithm 1's
operator actually asks after a feasible solve: *which constraint
families are tight, which PEs have no stress headroom left, which
monitored paths are wire-length-critical*.
"""

from __future__ import annotations

from typing import Mapping, Sequence

import numpy as np

#: A row is "binding" when its slack is at most this.
BINDING_TOL = 1e-6

#: Histogram bucket edges for per-family slack distributions.
_HIST_EDGES = (0.0, 1e-6, 1e-3, 1e-2, 1e-1, 1.0, float("inf"))


def attribute_solution(
    form,
    x: np.ndarray,
    metas: Sequence,
    top_k: int = 10,
    tol: float = BINDING_TOL,
) -> dict:
    """Attribute a feasible solution ``x`` to its binding constraints.

    ``form`` is a :class:`~repro.milp.model.MatrixForm` (duck-typed:
    ``a_matrix``, ``senses`` as ``"<="``/``">="``/``"=="`` strings,
    ``rhs``); ``metas`` the matching
    :meth:`~repro.milp.model.Model.row_metadata` table (per-row
    ``families`` plus a :class:`~repro.milp.model.RowMeta` per index,
    read only for the rows reported).  Returns a JSON-safe dict with
    per-family slack histograms, the ``top_k`` tightest binding
    inequality rows in domain terms, and the derived ``saturated_pes`` /
    ``tight_paths`` shortlists.
    """
    m = form.a_matrix.shape[0]
    if m == 0 or len(metas) != m:
        return {"rows": m, "binding": 0, "families": {}, "top_binding": []}
    sense_arr = np.asarray(form.senses)
    activity = form.a_matrix @ np.asarray(x, float)
    rhs = np.asarray(form.rhs, float)
    slack = np.where(
        sense_arr == "<=",
        rhs - activity,
        np.where(sense_arr == ">=", activity - rhs, -np.abs(activity - rhs)),
    )
    eq_mask = sense_arr == "=="
    binding = slack <= tol
    labels = _bucket_indices(slack)
    family_arr = np.asarray(metas.families)
    names, first, inverse = np.unique(
        family_arr, return_index=True, return_inverse=True
    )
    families: dict[str, dict] = {}
    for k in np.argsort(first, kind="stable"):
        rows = inverse == k
        min_slack = float(slack[rows].min())
        bucket_ids, bucket_first, counts = np.unique(
            labels[rows], return_index=True, return_counts=True
        )
        families[str(names[k])] = {
            "rows": int(rows.sum()),
            "binding": int(binding[rows].sum()),
            "min_slack": 0.0 if min_slack == float("inf") else min_slack,
            "histogram": {
                _label(bucket_ids[j]): int(counts[j])
                for j in np.argsort(bucket_first, kind="stable")
            },
        }
    # Equalities are binding by construction; rank only inequality rows.
    candidates = np.flatnonzero(binding & ~eq_mask)
    ranked = candidates[np.argsort(slack[candidates])]
    top_binding = []
    for i in ranked[:top_k]:
        meta = metas[int(i)]
        top_binding.append({
            "row": int(i),
            "name": meta.name,
            "family": str(meta.tags.get("family", "untagged")),
            "sense": meta.sense,
            "rhs": float(meta.rhs),
            "slack": float(slack[i]),
            "tags": dict(meta.tags),
        })
    saturated_pes = sorted({
        int(metas[int(i)].tags["pe"])
        for i in np.flatnonzero(binding & (family_arr == "stress"))
        if "pe" in metas[int(i)].tags
    })
    tight_paths = []
    for i in ranked[family_arr[ranked] == "path"][:top_k]:
        tags = metas[int(i)].tags
        tight_paths.append({
            "path": int(tags.get("path", -1)),
            "context": tags.get("context"),
            "slack": float(slack[i]),
        })
    return {
        "rows": int(m),
        "binding": int(binding.sum()),
        "families": families,
        "top_binding": top_binding,
        "saturated_pes": saturated_pes,
        "tight_paths": tight_paths,
    }


#: Bucket display labels, index-aligned with the gaps between edges.
_HIST_LABELS = tuple(
    f"[{lo:g},{hi:g})" if hi != float("inf") else f">={lo:g}"
    for lo, hi in zip(_HIST_EDGES, _HIST_EDGES[1:])
)


def _bucket_indices(slack: np.ndarray) -> np.ndarray:
    """Histogram bucket of each slack: -1 below zero, else an index
    into :data:`_HIST_LABELS`."""
    indices = np.searchsorted(_HIST_EDGES[1:-1], slack, side="right")
    return np.where(slack < 0, -1, indices)


def _label(index: int) -> str:
    return "<0" if index < 0 else _HIST_LABELS[index]


def attribution_brief(attribution: Mapping | None) -> dict | None:
    """Compact mirror for solver span attrs (keeps trace lines small)."""
    if not attribution:
        return None
    return {
        "binding": attribution.get("binding", 0),
        "families": {
            family: bucket.get("binding", 0)
            for family, bucket in attribution.get("families", {}).items()
        },
        "top": [row["name"] for row in attribution.get("top_binding", [])[:5]],
        "saturated_pes": attribution.get("saturated_pes", [])[:8],
    }
