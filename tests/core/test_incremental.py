"""Incremental-solving tests for Algorithm 1's relax loop.

The Eq. (3) model must be assembled (lowered) exactly once per
Algorithm 1 run; every further relaxation iteration only re-stamps the
``st_target`` RHS parameter on the cached compiled model and runs the
cold two-step pipeline on it.
"""

from __future__ import annotations

import pytest

from repro.aging import compute_stress_map
from repro.arch.fabric import Fabric
from repro.benchgen.sources import kernel_source
from repro.core import Algorithm1Config, RemapConfig, run_algorithm1
from repro.core.flow import AgingAwareFlow, flow_config
from repro.core.targets import StressTargetResult
from repro.hls import compile_source, schedule_dfg, tech_map
from repro.obs import CollectorSink, attached
from repro.obs.spans import PATH_SEP
from repro.timing import analyze


def spans_named(records, name, model=None):
    return [
        r for r in records
        if r["type"] == "span" and r["name"] == name
        and (model is None or r["attrs"].get("model") == model)
    ]


@pytest.fixture(scope="class")
def forced_relax_run(request, synth_design, synth_floorplan, fabric4):
    """Run Algorithm 1 with Step 1 pinned to a too-tight (but buildable)
    target, so the relax loop is guaranteed to execute at least twice —
    the scenario the incremental-compilation contract is about."""
    stress = compute_stress_map(synth_design, synth_floorplan)
    # Above the frozen per-PE stress (the model builds) yet below any
    # achievable levelling (the first solve is infeasible).
    target = stress.max_accumulated_ns * 0.40

    def fake_step1(*args, **kwargs):
        return StressTargetResult(
            st_target_ns=target,
            st_low_ns=stress.mean_accumulated_ns,
            st_up_ns=stress.max_accumulated_ns,
        )

    patch = pytest.MonkeyPatch()
    request.addfinalizer(patch.undo)
    patch.setattr(
        "repro.core.algorithm1.stress_target_lower_bound", fake_step1
    )
    patch.setattr(
        "repro.core.algorithm1.default_delta_ns",
        lambda stress_map: stress_map.max_accumulated_ns / 8.0,
    )
    collector = CollectorSink()
    config = Algorithm1Config(remap=RemapConfig(time_limit_s=30))
    with attached(collector):
        result = run_algorithm1(
            synth_design, fabric4, synth_floorplan, config
        )
    return result, collector.records


class TestOneBuildPerRun:
    def test_forced_scenario_relaxes(self, forced_relax_run):
        result, _ = forced_relax_run
        assert result.iterations >= 2
        log = result.stats["iterations"]
        assert log[0]["result"] == "infeasible"
        assert log[-1]["result"] == "accepted"

    def test_exactly_one_model_build(self, forced_relax_run):
        _, records = forced_relax_run
        builds = spans_named(records, "milp_build", model="remap")
        assert len(builds) == 1

    def test_later_iterations_restamp(self, forced_relax_run):
        result, records = forced_relax_run
        restamps = spans_named(records, "milp_restamp", model="remap")
        assert len(restamps) == result.iterations - 1
        log = result.stats["iterations"]
        assert all(entry.get("restamped") for entry in log[1:])
        assert "restamped" not in log[0]

    def test_result_still_valid(self, forced_relax_run, synth_design):
        result, _ = forced_relax_run
        assert not result.fell_back
        report = analyze(synth_design, result.floorplan)
        assert report.cpd_ns <= result.original_cpd_ns + 1e-6


class TestColdPipeline:
    """Every relax-loop solve runs the paper's LP -> pre-map -> residual
    ILP pipeline, also when it re-solves after an infeasible verdict."""

    def test_resolve_after_infeasible_relaxes_the_lp(self):
        # fir8 on a 3x3 fabric re-solves after several infeasible verdicts.
        fabric = Fabric(3, 3)
        dfg = compile_source(kernel_source("fir8"), "fir8")
        design = tech_map(schedule_dfg(dfg, capacity=fabric.num_pes))
        collector = CollectorSink()
        with attached(collector):
            result = AgingAwareFlow(flow_config("rotate", 30.0)).run(
                design, fabric
            )
        verdicts = [
            entry["result"] for entry in result.remap.stats["iterations"]
        ]
        assert "infeasible" in verdicts[:-1]
        relax_solve = PATH_SEP.join(("iteration", "milp_solve"))
        pipeline = {
            "lp_relax", "greedy_complete", "rounding", "ilp_fix", "ilp_unfixed",
        }
        solves = lp_children = 0
        for record in collector.records:
            if record["type"] != "span":
                continue
            if (record["parent"] or "").endswith(relax_solve):
                # No stage outside the cold pipeline, e.g. a re-solve
                # that re-applies an earlier pre-mapping.
                assert record["name"] in pipeline, record["name"]
                lp_children += record["name"] == "lp_relax"
            elif record["path"].endswith(relax_solve):
                solves += 1
                # Children close before their parent: one LP per solve.
                assert lp_children == solves
        assert solves >= 2
