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


def _sense_str(sense: object) -> str:
    return getattr(sense, "value", sense)  # Sense enum or plain string


def _sense_array(senses: Sequence[object]) -> np.ndarray:
    return np.asarray([_sense_str(s) for s in senses])


def attribute_solution(
    form,
    x: np.ndarray,
    metas: Sequence,
    top_k: int = 10,
    tol: float = BINDING_TOL,
) -> dict:
    """Attribute a feasible solution ``x`` to its binding constraints.

    ``form`` is a :class:`~repro.milp.model.MatrixForm` (duck-typed:
    ``a_matrix``, ``senses``, ``rhs``); ``metas`` the matching
    :meth:`~repro.milp.model.Model.row_metadata` tuple.  Returns a
    JSON-safe dict with per-family slack histograms, the ``top_k``
    tightest binding inequality rows in domain terms, and the derived
    ``saturated_pes`` / ``tight_paths`` shortlists.
    """
    m = form.a_matrix.shape[0]
    if m == 0 or len(metas) != m:
        return {"rows": m, "binding": 0, "families": {}, "top_binding": []}
    sense_arr = _sense_array(form.senses)
    activity = form.a_matrix @ np.asarray(x, float)
    rhs = np.asarray(form.rhs, float)
    slack = np.where(
        sense_arr == "<=",
        rhs - activity,
        np.where(sense_arr == ">=", activity - rhs, -np.abs(activity - rhs)),
    )
    eq_mask = sense_arr == "=="
    binding = slack <= tol
    labels = _bucket_labels(slack)
    families: dict[str, dict] = {}
    for i, meta in enumerate(metas):
        family = str(meta.tags.get("family", "untagged"))
        bucket = families.setdefault(
            family,
            {"rows": 0, "binding": 0, "min_slack": float("inf"), "histogram": {}},
        )
        bucket["rows"] += 1
        if binding[i]:
            bucket["binding"] += 1
        if slack[i] < bucket["min_slack"]:
            bucket["min_slack"] = float(slack[i])
        edge = labels[i]
        bucket["histogram"][edge] = bucket["histogram"].get(edge, 0) + 1
    for bucket in families.values():
        if bucket["min_slack"] == float("inf"):
            bucket["min_slack"] = 0.0
    # Equalities are binding by construction; rank only inequality rows.
    candidates = np.flatnonzero(binding & ~eq_mask)
    order = candidates[np.argsort(slack[candidates])][:top_k]
    top_binding = [
        {
            "row": int(i),
            "name": metas[i].name,
            "family": str(metas[i].tags.get("family", "untagged")),
            "sense": metas[i].sense,
            "rhs": float(metas[i].rhs),
            "slack": float(slack[i]),
            "tags": dict(metas[i].tags),
        }
        for i in order
    ]
    saturated_pes = sorted(
        {
            int(metas[i].tags["pe"])
            for i in np.flatnonzero(binding)
            if metas[i].tags.get("family") == "stress" and "pe" in metas[i].tags
        }
    )
    tight_paths = [
        {
            "path": int(metas[i].tags.get("path", -1)),
            "context": metas[i].tags.get("context"),
            "slack": float(slack[i]),
        }
        for i in candidates[np.argsort(slack[candidates])]
        if metas[i].tags.get("family") == "path"
    ][:top_k]
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


def _bucket_label(slack: float) -> str:
    if slack < 0:
        return "<0"
    return _HIST_LABELS[
        int(np.searchsorted(_HIST_EDGES[1:-1], slack, side="right"))
    ]


def _bucket_labels(slack: np.ndarray) -> list[str]:
    """Vectorized :func:`_bucket_label` over a slack vector."""
    indices = np.searchsorted(_HIST_EDGES[1:-1], slack, side="right")
    return [
        "<0" if value < 0 else _HIST_LABELS[index]
        for value, index in zip(slack, indices)
    ]


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
