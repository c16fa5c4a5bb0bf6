"""CLI tests: each subcommand end to end through temporary files."""

from __future__ import annotations

import json

import pytest

from repro.cli import build_parser, main
from repro.io import load_design, load_floorplan
from repro.service import FloorplanRequest, comparable_view, run_request


@pytest.fixture
def kernel_file(tmp_path):
    path = tmp_path / "tiny.c"
    path.write_text("in int a, b; out int y = a * 3 + (b >> 1);")
    return path


class TestCompile:
    def test_compile_file(self, kernel_file, tmp_path, capsys):
        out = tmp_path / "design.json"
        assert main(["compile", str(kernel_file), "-o", str(out)]) == 0
        design = load_design(out)
        assert design.num_ops > 0
        assert "tiny" in capsys.readouterr().out

    def test_compile_library_kernel(self, tmp_path):
        out = tmp_path / "design.json"
        assert main(["compile", "checksum", "-o", str(out)]) == 0
        assert load_design(out).name == "checksum"

    def test_unknown_kernel(self, tmp_path):
        with pytest.raises(SystemExit):
            main(["compile", "not_a_kernel", "-o", str(tmp_path / "x.json")])


class TestPlaceRemapAnalyze:
    @pytest.fixture
    def design_path(self, kernel_file, tmp_path):
        out = tmp_path / "design.json"
        main(["compile", str(kernel_file), "-o", str(out)])
        return out

    def test_place(self, design_path, tmp_path, capsys):
        out = tmp_path / "fp.json"
        assert main(["place", str(design_path), "--fabric", "3x3",
                     "-o", str(out)]) == 0
        floorplan = load_floorplan(out)
        assert floorplan.fabric.rows == 3
        assert "utilization" in capsys.readouterr().out

    def test_remap_and_analyze(self, design_path, tmp_path, capsys):
        fp = tmp_path / "fp.json"
        main(["place", str(design_path), "--fabric", "4x4", "-o", str(fp)])
        remapped = tmp_path / "remapped.json"
        code = main([
            "remap", str(design_path), str(fp), "-o", str(remapped),
            "--time-limit", "20",
        ])
        assert code in (0, 2)  # 2 = fell back, still a valid floorplan
        assert load_floorplan(remapped).num_ops == load_floorplan(fp).num_ops
        assert main(["analyze", str(design_path), str(remapped)]) == 0
        out = capsys.readouterr().out
        assert "MTTF (years)" in out

    def test_invalid_fabric_string(self, design_path, tmp_path):
        with pytest.raises(SystemExit):
            main(["place", str(design_path), "--fabric", "banana"])


class TestFlowAndBench:
    def test_flow_with_record(self, kernel_file, tmp_path, capsys):
        record = tmp_path / "result.json"
        assert main([
            "flow", str(kernel_file), "--fabric", "4x4",
            "--time-limit", "20", "-o", str(record),
        ]) == 0
        data = json.loads(record.read_text())
        assert data["kind"] == "flow_result"
        assert data["summary"]["mttf_increase"] >= 1.0
        assert "MTTF increase" in capsys.readouterr().out

    def test_bench_command(self, capsys):
        assert main(["bench", "B1", "--time-limit", "20"]) == 0
        out = capsys.readouterr().out
        assert "paper reference" in out

    def test_bench_unknown_name_reports_error(self, capsys):
        assert main(["bench", "B99"]) == 1
        assert "error" in capsys.readouterr().err

    def test_flow_record_is_run_requests_document(self, kernel_file, tmp_path):
        record = tmp_path / "r.json"
        assert main([
            "flow", str(kernel_file), "--fabric", "4x4",
            "--time-limit", "20", "-o", str(record),
        ]) == 0
        request = FloorplanRequest(
            kernel="tiny", source=kernel_file.read_text(), fabric="4x4",
            time_limit_s=20.0,
        )
        assert comparable_view(json.loads(record.read_text())) == (
            comparable_view(run_request(request))
        )

    @pytest.mark.parametrize("flag", ["--time-limit", "--deadline"])
    @pytest.mark.parametrize("command", ["flow", "bench"])
    def test_non_positive_budget_is_a_typed_error(self, command, flag, capsys):
        argv = [command, "fir8" if command == "flow" else "B1", flag, "0"]
        assert main(argv) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "must be > 0" in err


class TestDeadlineFlag:
    @pytest.mark.parametrize("argv", [
        ["remap", "d.json", "fp.json"],
        ["flow", "fir8"],
        ["bench", "B1"],
    ])
    def test_flow_commands_take_a_budget(self, argv):
        args = build_parser().parse_args([*argv, "--deadline", "5"])
        assert args.deadline == 5.0

    def test_serve_rejects_it(self, capsys):
        # A served job's budget is its request's deadline_s.
        with pytest.raises(SystemExit) as excinfo:
            build_parser().parse_args(["serve", "--deadline", "5"])
        assert excinfo.value.code == 2
        assert "--deadline" in capsys.readouterr().err


class TestTraceAndProfile:
    def test_trace_summarize_shows_convergence_table(
        self, kernel_file, tmp_path, capsys
    ):
        trace = tmp_path / "t.jsonl"
        assert main([
            "flow", str(kernel_file), "--fabric", "4x4",
            "--time-limit", "20", "--trace", str(trace),
        ]) == 0
        capsys.readouterr()
        assert main(["trace", "summarize", str(trace)]) == 0
        out = capsys.readouterr().out
        assert "## Solver convergence" in out
        assert "## Algorithm 1 relaxation trajectory" in out
        assert "| iteration | ST_target (ns) | verdict | rows added |" in out
        assert "**benchmark (mode)**: tiny (rotate)" in out
        assert "floor skips" in out
        assert "grid bumps (incl. floor skips)" in out
        assert "cert cold rebuilds" in out
        assert "## Metrics" in out
        # One renderer: the summary is the trace's explain report.
        assert main(["explain", str(trace)]) == 0
        assert capsys.readouterr().out == out

    def test_trace_summarize_rejects_a_missing_file(self, tmp_path, capsys):
        assert main(["trace", "summarize", str(tmp_path / "nope.jsonl")]) == 1
        assert capsys.readouterr().err.startswith("error: ")

    def test_profile_writes_pstats_and_hotspots(
        self, kernel_file, tmp_path, capsys
    ):
        pstats_path = tmp_path / "flow.pstats"
        assert main([
            "flow", str(kernel_file), "--fabric", "4x4",
            "--time-limit", "20", "--profile", str(pstats_path),
        ]) == 0
        assert pstats_path.exists() and pstats_path.stat().st_size > 0
        err = capsys.readouterr().err
        assert "profile ->" in err
        assert "cumulative" in err

    def test_metrics_flag_prints_quantiles(self, kernel_file, capsys):
        assert main([
            "flow", str(kernel_file), "--fabric", "4x4",
            "--time-limit", "20", "--metrics",
        ]) == 0
        out = capsys.readouterr().out
        assert "p50=" in out and "p95=" in out
