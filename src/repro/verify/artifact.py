"""Certification of saved run artifacts (``repro verify``).

A ``flow_result`` document (written by ``repro flow ... -o record.json``)
carries the design, both floorplans and the summary the run *claimed*.
:func:`certify_artifact` re-derives every claim from the raw floorplans —
fresh STA for both CPDs, plain-loop stress re-accumulation, slot/schedule
invariants — and flags any disagreement with the stored summary.

With ``certify_backend`` set, a sampled subset of contexts is additionally
re-solved as small restricted Eq. (3) models (each op choosing between its
original and its remapped PE, other contexts pinned as committed stress)
on *both* backends, and the objectives are compared within tolerance
(:mod:`repro.verify.differential`).
"""

from __future__ import annotations

import random

from repro.errors import CertificationError
from repro.obs import get_logger, span
from repro.verify.certifier import (
    ABS_TOL,
    CPD_EPS,
    Certificate,
    Violation,
    certify_floorplan,
)
from repro.verify.differential import differential_solve, make_backend

_log = get_logger("verify.artifact")

#: Violation kind for summary fields that disagree with re-derived values.
KIND_SUMMARY = "summary_mismatch"

#: Tolerance for re-derived scalar summary fields (ns / ratios round-trip
#: exactly through JSON, so this only absorbs re-accumulation order noise).
SUMMARY_TOL = 1e-6


def _check_summary_field(
    cert: Certificate, name: str, claimed, derived: float, tol: float = SUMMARY_TOL
) -> None:
    if claimed is None:
        return
    if abs(float(claimed) - derived) > tol:
        cert.violations.append(
            Violation(
                kind=KIND_SUMMARY,
                subject=name,
                detail=f"summary claims {float(claimed):.9g}, re-derived {derived:.9g}",
                magnitude=abs(float(claimed) - derived),
            )
        )


def certify_artifact(
    document: dict,
    certify_backend: str | None = None,
    sample: int = 2,
    seed: int = 0,
    time_limit_s: float = 30.0,
) -> dict:
    """Re-check a saved flow result from first principles.

    Returns a JSON-ready report: ``{"ok", "certificate", "differential"}``.
    Raises :class:`CertificationError` for documents that are not
    ``flow_result`` artifacts (nothing to certify).
    """
    from repro.io.serialize import design_from_dict, floorplan_from_dict
    from repro.timing.sta import analyze, build_timing_graphs

    if document.get("kind") != "flow_result":
        raise CertificationError(
            f"cannot certify a {document.get('kind')!r} document: "
            "expected kind 'flow_result' (repro flow ... -o record.json)"
        )
    design = design_from_dict(document["design"])
    original = floorplan_from_dict(document["original_floorplan"])
    remapped = floorplan_from_dict(document["remapped_floorplan"])
    summary = document.get("summary", {})

    with span("certify_artifact", benchmark=design.name):
        # One set of timing graphs serves both floorplans' STA.
        graphs = build_timing_graphs(design)
        baseline = analyze(design, original, graphs)
        # Independent stress re-accumulation (plain dict loop).
        stress_by_pe: dict[int, float] = {}
        for op in design.ops.values():
            pe_index = remapped.pe_of.get(op.op_id)
            if pe_index is not None:
                stress_by_pe[pe_index] = (
                    stress_by_pe.get(pe_index, 0.0) + op.stress_ns
                )
        max_stress = max(stress_by_pe.values(), default=0.0)

        cert = certify_floorplan(
            design,
            remapped,
            st_target_ns=max_stress + ABS_TOL,
            baseline_cpd_ns=baseline.cpd_ns + CPD_EPS,
            graphs=graphs,
        )
        _check_summary_field(
            cert, "original_cpd_ns", summary.get("original_cpd_ns"), baseline.cpd_ns
        )
        _check_summary_field(
            cert, "final_cpd_ns", summary.get("final_cpd_ns"), cert.cpd_ns
        )
        _check_summary_field(
            cert,
            "remapped_max_stress_ns",
            summary.get("remapped_max_stress_ns"),
            max_stress,
        )
        mttf = summary.get("mttf_increase")
        if mttf is not None and float(mttf) < 1.0 - SUMMARY_TOL:
            cert.violations.append(
                Violation(
                    kind=KIND_SUMMARY,
                    subject="mttf_increase",
                    detail=f"claimed MTTF increase {float(mttf):.6g} < 1.0",
                )
            )
        cert.checks.append("summary fields re-derived (CPDs, max stress, MTTF)")

        differential = None
        if certify_backend is not None:
            differential = _differential_contexts(
                design, original, remapped, certify_backend,
                sample=sample, seed=seed, time_limit_s=time_limit_s,
                max_stress_ns=max_stress, cpd_ns=baseline.cpd_ns,
            )

    report = {
        "ok": cert.ok and (differential is None or differential["ok"]),
        "benchmark": design.name,
        "certificate": cert.to_dict(),
        "differential": differential,
    }
    return report


def _differential_contexts(
    design,
    original,
    remapped,
    certify_backend: str,
    sample: int,
    seed: int,
    time_limit_s: float,
    max_stress_ns: float,
    cpd_ns: float,
) -> dict:
    """Re-solve a sampled subset of contexts on both backends.

    Each sampled context becomes a restricted Eq. (3) model: its ops choose
    between their original and their remapped PE, every other context is
    pinned at its remapped position (committed stress), the budget is the
    artifact's own max accumulated stress.  The remapped binding is a
    feasible point of that model, so both backends must find a solution,
    and on a model this small both prove optimality — the objectives must
    agree.
    """
    from repro.core.remap import build_remap_model
    from repro.core.rotation import FrozenPlan

    contexts = sorted({op.context for op in design.ops.values()})
    rng = random.Random(seed)
    chosen = sorted(rng.sample(contexts, min(sample, len(contexts))))
    backends = {
        "highs": make_backend("highs", time_limit_s),
        certify_backend: make_backend(certify_backend, time_limit_s),
    }
    reports = {}
    ok = True
    for context in chosen:
        pinned = {
            op_id: remapped.pe_of[op_id]
            for op_id, op in design.ops.items()
            if op.context != context and op_id in remapped.pe_of
        }
        candidates = {}
        for op_id, op in design.ops.items():
            if op.context != context:
                continue
            pes = [original.pe_of[op_id]]
            if remapped.pe_of[op_id] not in pes:
                pes.append(remapped.pe_of[op_id])
            candidates[op_id] = pes
        if not candidates:
            continue
        frozen = FrozenPlan(positions=pinned, orientation_of_context={})
        model, _variables, _stats = build_remap_model(
            design,
            remapped.fabric,
            frozen,
            candidates,
            monitored_paths=[],
            cpd_ns=cpd_ns,
            st_target_ns=max_stress_ns + ABS_TOL,
            name=f"verify_ctx{context}",
            objective="wirelength",
        )
        result = differential_solve(model, backends)
        reports[str(context)] = result
        ok = ok and result["ok"]
        _log.info(
            "context %d differential: %s (objectives %s)",
            context,
            "ok" if result["ok"] else "MISMATCH",
            result["objectives"],
        )
    return {"ok": ok, "sampled_contexts": chosen, "contexts": reports}
