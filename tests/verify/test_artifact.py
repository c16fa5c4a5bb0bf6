"""Artifact certification (``repro verify``): round-trip, corruption,
differential mode and the CLI exit codes."""

from __future__ import annotations

import copy
import json

import pytest

from repro.errors import CertificationError
from repro.verify import KIND_SUMMARY, certify_artifact

pytest.importorskip("scipy")


@pytest.fixture(scope="module")
def flow_document(synth_design, fabric4):
    from repro.core.flow import AgingAwareFlow
    from repro.io.serialize import flow_summary_to_dict
    from repro.report.experiments import flow_config

    result = AgingAwareFlow(flow_config("rotate", 30.0)).run(
        synth_design, fabric4
    )
    # JSON round-trip: certify exactly what a reader of the file sees.
    return json.loads(json.dumps(flow_summary_to_dict(result)))


class TestCertifyArtifact:
    def test_saved_run_certifies(self, flow_document):
        report = certify_artifact(flow_document)
        assert report["ok"], report["certificate"]["violations"]
        assert report["certificate"]["checks"]

    def test_corrupted_summary_is_flagged(self, flow_document):
        corrupted = copy.deepcopy(flow_document)
        corrupted["summary"]["final_cpd_ns"] -= 0.5
        report = certify_artifact(corrupted)
        assert not report["ok"]
        kinds = {
            v["kind"] for v in report["certificate"]["violations"]
        }
        assert KIND_SUMMARY in kinds

    def test_dropped_binding_is_flagged(self, flow_document):
        corrupted = copy.deepcopy(flow_document)
        corrupted["remapped_floorplan"]["bindings"].pop()
        report = certify_artifact(corrupted)
        assert not report["ok"]
        kinds = {
            v["kind"] for v in report["certificate"]["violations"]
        }
        assert "unassigned" in kinds

    def test_one_graph_build_and_one_sta_per_floorplan(
        self, flow_document, monkeypatch
    ):
        import repro.timing.sta as sta

        calls = {"build_timing_graphs": 0, "analyze": 0}

        def counted(name):
            real = getattr(sta, name)

            def wrapper(*args, **kwargs):
                calls[name] += 1
                return real(*args, **kwargs)

            return wrapper

        for name in calls:
            monkeypatch.setattr(sta, name, counted(name))
        assert certify_artifact(flow_document)["ok"]
        assert calls == {"build_timing_graphs": 1, "analyze": 2}

    def test_wrong_kind_raises(self):
        with pytest.raises(CertificationError, match="flow_result"):
            certify_artifact({"kind": "bench_record"})

    def test_differential_backends_agree(self, flow_document):
        report = certify_artifact(
            flow_document, certify_backend="branch-bound", sample=1,
            time_limit_s=20.0,
        )
        assert report["ok"]
        differential = report["differential"]
        assert differential["ok"]
        assert differential["sampled_contexts"]
        for result in differential["contexts"].values():
            assert result["agree"]


class TestVerifyCli:
    def test_cli_pass_and_fail_exit_codes(
        self, flow_document, tmp_path, capsys
    ):
        from repro.cli import main

        good = tmp_path / "good.json"
        good.write_text(json.dumps(flow_document))
        assert main(["verify", str(good)]) == 0
        assert "PASS" in capsys.readouterr().out

        corrupted = copy.deepcopy(flow_document)
        corrupted["summary"]["remapped_max_stress_ns"] += 1.0
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(corrupted))
        assert main(["verify", str(bad)]) == 4
        assert "FAIL" in capsys.readouterr().out
