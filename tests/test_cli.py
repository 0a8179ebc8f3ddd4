"""Tests for the command-line interface.

Exit-code contract: every ``cmd_*`` handler returns an int — 0 on
success, 1 when the command ran but found failures, 2 on usage errors
(unknown workload/input names, missing files), which must surface as a
one-line stderr message, never a traceback.
"""

import json

import pytest

from repro.cli import main


class TestList:
    def test_lists_suite(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        assert "256.bzip2" in out and "175.vpr" in out
        assert "inputs = graphic, program" in out


class TestRun:
    def test_runs_workload(self, capsys):
        assert main(["run", "gzip", "--max-instructions", "5000"]) == 0
        out = capsys.readouterr().out
        assert "5,000 instructions" in out

    def test_input_selection(self, capsys):
        assert main(
            ["run", "bzip2", "--input", "program",
             "--max-instructions", "2000"]
        ) == 0
        assert "bzip2.program" in capsys.readouterr().out

    def test_opt_level_flag(self, capsys):
        assert main(["run", "gzip", "-O1",
                     "--max-instructions", "5000"]) == 0
        assert "5,000 instructions" in capsys.readouterr().out


class TestUsageErrors:
    """Unknown names and missing files: one-line error, exit code 2."""

    def _assert_one_line_error(self, capsys, fragment):
        captured = capsys.readouterr()
        assert fragment in captured.err
        assert captured.err.startswith("repro: ")
        assert captured.err.count("\n") == 1

    def test_run_unknown_workload(self, capsys):
        assert main(["run", "doom"]) == 2
        self._assert_one_line_error(capsys, "unknown benchmark")

    def test_run_unknown_input(self, capsys):
        assert main(["run", "gzip", "--input", "reference"]) == 2
        self._assert_one_line_error(capsys, "unknown input")

    def test_simulate_unknown_workload(self, capsys):
        assert main(["simulate", "doom"]) == 2
        self._assert_one_line_error(capsys, "unknown benchmark")

    def test_characterize_unknown_workload(self, capsys):
        assert main(["characterize", "doom"]) == 2
        self._assert_one_line_error(capsys, "unknown benchmark")

    def test_trace_unknown_workload(self, capsys, tmp_path):
        assert main(["trace", "doom", str(tmp_path / "t.svft")]) == 2
        self._assert_one_line_error(capsys, "unknown benchmark")

    def test_report_unknown_benchmark(self, capsys, tmp_path):
        assert main(["report", "--output", str(tmp_path / "r.md"),
                     "--benchmarks", "doom"]) == 2
        self._assert_one_line_error(capsys, "unknown benchmark")

    def test_compile_missing_file(self, capsys):
        assert main(["compile", "/no/such/file.mc"]) == 2
        self._assert_one_line_error(capsys, "no such source file")

    def test_replay_missing_file(self, capsys):
        assert main(["replay", "/no/such/trace.svft"]) == 2
        self._assert_one_line_error(capsys, "no such trace file")

    def test_every_handler_returns_int(self, tmp_path, capsys):
        # The cheap commands, exercised end to end: handlers must
        # return int (argparse-level SystemExit is a separate path).
        source = tmp_path / "p.mc"
        source.write_text("int main() { return 0; }")
        for argv in (
            ["list"],
            ["run", "mcf", "--max-instructions", "1000"],
            ["compile", str(source)],
            ["lint", "mcf"],
            ["experiment", "table2"],
        ):
            code = main(argv)
            assert isinstance(code, int) and code == 0, argv
        capsys.readouterr()


class TestNonPositiveWindows:
    """Windows and instruction caps below 1 are usage errors (exit 2)."""

    @pytest.mark.parametrize("argv", [
        ["run", "gzip", "--max-instructions", "0"],
        ["characterize", "--max-instructions", "-1"],
        ["simulate", "gzip", "--max-instructions", "0"],
        ["compile", "p.mc", "--max-instructions", "0"],
        ["certify", "gzip", "--max-instructions", "0"],
        ["chaos", "--timing-window", "0"],
        ["chaos", "--functional-window", "-1"],
        ["experiment", "fig5", "--window", "0"],
        ["report", "--timing-window", "-5"],
        ["report", "--functional-window", "0"],
        ["profile", "gzip", "--max-instructions", "0"],
        ["predict", "--max-instructions", "-3"],
        ["trace", "gzip", "t.svft", "--max-instructions", "0"],
    ])
    def test_rejected_by_argparse(self, argv, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(argv)
        assert excinfo.value.code == 2
        assert "must be a positive integer" in capsys.readouterr().err


class TestBadMachineValues:
    """Machine values the models cannot build are usage errors (exit 2,
    one line), caught before any trace is recorded."""

    @pytest.mark.parametrize("argv, fragment", [
        (["simulate", "gzip", "--capacity", "100", "--svf", "svf"],
         "multiple of the granularity"),
        (["simulate", "gzip", "--ports", "0", "--svf", "svf"],
         "SVF ports"),
        (["simulate", "gzip", "--capacity", "520", "--svf", "stack_cache"],
         "multiple of the line"),
        (["simulate", "gzip", "--dl1-ports", "0"], "DL1 ports"),
        (["replay", "/no/such/trace.svft", "--svf", "svf", "--ports", "0"],
         "SVF ports"),
        (["predict", "--capacity", "0", "--benchmarks", "mcf",
          "--max-instructions", "1000"], "capacity"),
        (["predict", "--capacity", "520", "--benchmarks", "mcf",
          "--max-instructions", "1000"], "multiple of the line"),
    ])
    def test_rejected_before_any_work(self, argv, fragment, capsys,
                                      monkeypatch):
        from repro.workloads.registry import Workload

        def no_trace(*args, **kwargs):
            raise AssertionError("a trace was recorded")

        monkeypatch.setattr(Workload, "trace", no_trace)
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("repro: ")
        assert fragment in err
        assert err.count("\n") == 1


class TestCharacterize:
    def test_single_workload(self, capsys):
        assert main(
            ["characterize", "gzip", "--max-instructions", "8000"]
        ) == 0
        out = capsys.readouterr().out
        assert "Figure 1" in out
        assert "Figure 2" in out
        assert "Figure 3" in out

    def test_json_format_is_versioned(self, capsys):
        from repro.api import SCHEMA_VERSION

        assert main(
            ["characterize", "gzip", "--max-instructions", "5000",
             "--format", "json"]
        ) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["schema_version"] == SCHEMA_VERSION
        assert set(payload["figures"]) == {"fig1", "fig2", "fig3"}


class TestSimulate:
    def test_baseline_only(self, capsys):
        assert main(
            ["simulate", "gzip", "--max-instructions", "6000"]
        ) == 0
        out = capsys.readouterr().out
        assert "baseline" in out and "IPC" in out

    def test_with_svf(self, capsys):
        assert main(
            ["simulate", "crafty", "--svf", "svf", "--ports", "2",
             "--max-instructions", "6000"]
        ) == 0
        out = capsys.readouterr().out
        assert "speedup" in out and "morphed" in out

    def test_stack_cache_mode(self, capsys):
        assert main(
            ["simulate", "gzip", "--svf", "stack_cache",
             "--max-instructions", "6000"]
        ) == 0
        assert "speedup" in capsys.readouterr().out

    def test_width_choices_enforced(self):
        with pytest.raises(SystemExit):
            main(["simulate", "gzip", "--width", "7"])


class TestCompile:
    SOURCE = "int main() { print(6 * 7); return 0; }"

    def test_emit_asm(self, tmp_path, capsys):
        source_file = tmp_path / "answer.mc"
        source_file.write_text(self.SOURCE)
        assert main(["compile", str(source_file)]) == 0
        out = capsys.readouterr().out
        assert ".text" in out and "bsr main" in out

    def test_emit_run(self, tmp_path, capsys):
        source_file = tmp_path / "answer.mc"
        source_file.write_text(self.SOURCE)
        assert main(["compile", str(source_file), "--emit", "run"]) == 0
        assert "[42]" in capsys.readouterr().out

    def test_opt_level_same_output(self, tmp_path, capsys):
        source_file = tmp_path / "answer.mc"
        source_file.write_text(
            "int main() { int x; int y; x = 6; y = 7; print(x * y); "
            "return 0; }"
        )
        assert main(["compile", str(source_file), "--emit", "run",
                     "-O1"]) == 0
        assert "[42]" in capsys.readouterr().out


class TestTraceReplay:
    def test_record_and_replay(self, tmp_path, capsys):
        trace_file = str(tmp_path / "gzip.svft")
        assert main(
            ["trace", "gzip", trace_file, "--max-instructions", "4000"]
        ) == 0
        assert "4,000 records" in capsys.readouterr().out
        assert main(["replay", trace_file, "--svf", "svf"]) == 0
        out = capsys.readouterr().out
        assert "4,000 instructions" in out
        assert "speedup" in out


class TestReport:
    def test_generates_full_report(self, tmp_path, capsys):
        output = str(tmp_path / "report.md")
        assert main(
            ["report", "--output", output,
             "--timing-window", "4000", "--functional-window", "4000",
             "--benchmarks", "gzip"]
        ) == 0
        text = open(output).read()
        for marker in ("Table 1", "Figure 5", "Figure 9", "Table 3",
                       "First-touch"):
            assert marker in text, marker
        assert "wrote" in capsys.readouterr().out

    def test_profile_flag_prints_breakdown_not_in_document(
        self, tmp_path, capsys
    ):
        output = str(tmp_path / "report.md")
        # Own cache dir: cells must actually run (a warm cache hit
        # ships no phase snapshot, correctly leaving only "render").
        assert main(
            ["report", "--output", output,
             "--timing-window", "3000", "--functional-window", "3000",
             "--benchmarks", "mcf", "--profile",
             "--cache-dir", str(tmp_path / "cache")]
        ) == 0
        out = capsys.readouterr().out
        assert "Phase profile — full report" in out
        for phase in ("compile", "emulate", "timing", "traffic",
                      "analysis", "render"):
            assert phase in out, phase
        # Cold run against a private cache: every trace and cell is a
        # miss, and the counter block names them.
        assert "cache counters:" in out
        for counter in ("cell_cache_misses", "trace_cache_misses",
                        "sections_rendered"):
            assert counter in out, counter
        # The breakdown goes to stdout only: the document stays
        # byte-comparable with and without --profile.
        assert "Phase profile" not in open(output).read()

    def test_incremental_warm_run_reports_reuse(self, tmp_path, capsys):
        output = str(tmp_path / "report.md")
        argv = ["report", "--output", output,
                "--timing-window", "3000", "--functional-window", "3000",
                "--benchmarks", "mcf", "--profile", "--incremental",
                "--cache-dir", str(tmp_path / "cache")]
        assert main(argv) == 0
        cold = open(output).read()
        capsys.readouterr()
        assert main(argv) == 0
        out = capsys.readouterr().out
        assert "sections_reused" in out
        assert "section_cache_hits" in out
        assert open(output).read() == cold


class TestProfile:
    def test_profiles_one_workload(self, capsys):
        assert main(["profile", "gzip", "--max-instructions", "3000"]) == 0
        out = capsys.readouterr().out
        assert "gzip.graphic: 3,000 instructions traced" in out
        assert "Phase profile — gzip.graphic" in out
        for phase in ("compile", "emulate", "timing", "traffic",
                      "analysis"):
            assert phase in out, phase
        assert "MIPS" in out

    def test_renders_superblock_replay_counters(self, capsys):
        # The emulator's decode/replay counters surface through the
        # same "cache counters:" block the cache tallies use.
        assert main(["profile", "gzip", "--max-instructions", "4000"]) == 0
        out = capsys.readouterr().out
        assert "cache counters:" in out
        for counter in ("superblock_builds", "superblock_build_us",
                        "superblock_replays",
                        "superblock_replayed_instructions"):
            assert counter in out, counter

    def test_renders_batch_counters(self, capsys):
        # The baseline and SVF runs share one batched trace pass, so
        # the batch counters show up in the "cache counters:" block.
        assert main(["profile", "gzip", "--max-instructions", "3000"]) == 0
        out = capsys.readouterr().out
        assert "batch_configs" in out
        assert "batch_walks_saved" in out

    def test_unknown_workload(self, capsys):
        assert main(["profile", "doom"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("repro: ") and "unknown benchmark" in err


class TestPredict:
    def test_prediction_report(self, capsys):
        code = main(["predict", "--benchmarks", "gzip",
                     "--max-instructions", "4000", "--jobs", "1"])
        captured = capsys.readouterr()
        assert code == 0, captured.out
        assert "predicted" in captured.out
        # Progress goes to stderr, never stdout.
        assert "[predict]" in captured.err
        assert "[predict]" not in captured.out

    def test_output_file(self, tmp_path, capsys):
        output = str(tmp_path / "predict.md")
        assert main(["predict", "--benchmarks", "mcf",
                     "--max-instructions", "4000", "--jobs", "1",
                     "--output", output]) == 0
        assert "wrote" in capsys.readouterr().out
        assert "predicted" in open(output).read()

    def test_bad_jobs_rejected(self, capsys):
        assert main(["predict", "--jobs", "0"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("repro: ") and "--jobs" in err

    def test_unknown_benchmark(self, capsys):
        assert main(["predict", "--benchmarks", "doom"]) == 2
        assert "unknown benchmark" in capsys.readouterr().err


class TestExperiment:
    def test_static_tables(self, capsys):
        assert main(["experiment", "table1"]) == 0
        assert "Table 1" in capsys.readouterr().out
        assert main(["experiment", "table2"]) == 0
        assert "Table 2" in capsys.readouterr().out

    def test_unknown_experiment_rejected(self):
        with pytest.raises(SystemExit):
            main(["experiment", "fig12"])

    def test_json_format_is_versioned(self, capsys):
        from repro.api import SCHEMA_VERSION

        assert main(["experiment", "table1", "--format", "json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["schema_version"] == SCHEMA_VERSION
        assert payload["experiment"] == "table1"
        assert "Table 1" in payload["text"]


class TestSweep:
    SUITE = {
        "suite": "cli-unit",
        "kind": "timing",
        "workloads": ["gzip"],
        "window": 2000,
        "base": {"machine": {"svf_mode": "svf"}},
        "grid": {"svf_ports": [1, 2]},
    }

    def write_suite(self, tmp_path, **overrides):
        data = dict(self.SUITE)
        data.update(overrides)
        path = tmp_path / "suite.json"
        path.write_text(json.dumps(data))
        return str(path)

    def test_missing_descriptor_is_usage_error(self, capsys):
        assert main(["sweep", "/no/such/suite.yaml"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("repro: ")
        assert "no such suite descriptor" in err
        assert len(err.strip().splitlines()) == 1

    def test_bad_svf_geometry_exits_before_running(self, tmp_path, capsys):
        path = self.write_suite(
            tmp_path, kind="traffic", base={"machine": {"svf_capacity": 100}},
            grid={"svf_granularity": [16]},
        )
        assert main(["sweep", path]) == 2
        err = capsys.readouterr().err
        assert "multiple of the granularity" in err
        assert len(err.strip().splitlines()) == 1

    def test_invalid_descriptor_is_usage_error(self, tmp_path, capsys):
        path = self.write_suite(tmp_path, grid={"bogus_axis": [1]})
        assert main(["sweep", path]) == 2
        err = capsys.readouterr().err
        assert "unknown grid axis" in err
        assert len(err.strip().splitlines()) == 1

    def test_dry_run_prints_plan_without_running(self, tmp_path, capsys):
        path = self.write_suite(tmp_path)
        assert main(["sweep", path, "--dry-run"]) == 0
        out = capsys.readouterr().out
        assert "2 cells" in out
        assert "svf_ports=1" in out and "svf_ports=2" in out

    def test_end_to_end_writes_artifacts(self, tmp_path, capsys):
        from repro.api import SCHEMA_VERSION

        path = self.write_suite(tmp_path)
        out_dir = tmp_path / "artifacts"
        assert main(["sweep", path, "--jobs", "1", "--no-cache",
                     "--out", str(out_dir), "--format", "json"]) == 0
        captured = capsys.readouterr()
        payload = json.loads(captured.out)
        assert payload["schema_version"] == SCHEMA_VERSION
        assert payload["kind"] == "sweep"
        assert payload["ok"] is True
        assert len(payload["rows"]) == 2
        # Progress goes to stderr, never stdout.
        assert "[sweep]" in captured.err
        assert "[sweep]" not in captured.out
        assert sorted(p.name for p in out_dir.iterdir()) == [
            "run_meta.json", "run_table.json", "summary.txt",
        ]
        # The on-disk run table is the printed payload.
        assert json.loads(
            (out_dir / "run_table.json").read_text()
        ) == payload
