"""Tests for the parallel experiment engine, trace cache, and the
harness hardening against bad benchmark subsets.

Covers the regression contract of the bugfix PR:

* unknown benchmark names fail fast with one UsageError naming them
  all (CLI: exit 2, one-line stderr);
* an empty subset renders an explicit placeholder table, never a bare
  StopIteration;
* every report section agrees on the validated subset;
* ``jobs=1`` and ``jobs=4`` reports are byte-identical;
* failed cells degrade to annotated gaps instead of crashing.
"""

from __future__ import annotations

import errno
import os
import pathlib
import tempfile

import pytest

from repro.cli import main
from repro.errors import UsageError
from repro.harness.experiments import (
    Fig5Result,
    Fig6Result,
    Fig7Result,
    Fig9Result,
    Table3Result,
    Table4Result,
    _suite,
)
from repro.harness.parallel import (
    EngineOptions,
    TaskCell,
    TraceCache,
    run_cells,
)
from repro.harness.runall import generate_report
from repro.profiling import PhaseProfiler
from repro.workloads import clear_trace_cache, validate_benchmarks, workload


class TestSuiteValidation:
    def test_none_is_full_suite(self):
        assert len(_suite(None)) == 12

    def test_short_and_full_names_canonicalize(self):
        assert _suite(["gzip", "181.mcf"]) == ["164.gzip", "181.mcf"]

    def test_duplicates_deduplicate(self):
        assert _suite(["gzip", "164.gzip", "gzip"]) == ["164.gzip"]

    def test_unknown_name_raises_usage_error(self):
        with pytest.raises(UsageError, match="unknown benchmark: nope"):
            _suite(["nope"])

    def test_all_unknown_names_listed_at_once(self):
        with pytest.raises(UsageError, match="nope, doom"):
            validate_benchmarks(["nope", "gzip", "doom"])

    def test_extension_workload_resolves(self):
        assert validate_benchmarks(["x86mix"]) == ["ext.x86mix"]


class TestEmptySuiteRenders:
    """Filtering to an empty suite must render, not raise StopIteration."""

    @pytest.mark.parametrize("result", [
        Fig5Result(), Fig6Result(), Fig7Result(), Fig9Result(),
        Table3Result(), Table4Result(),
    ])
    def test_placeholder_table(self, result):
        text = result.render()
        assert "(no benchmarks selected)" in text

    def test_fig8_placeholder(self):
        assert "(no benchmarks selected)" in Fig7Result().render_fig8()

    def test_empty_render_survives_generator_context(self):
        # A bare StopIteration inside a generator would silently end
        # it (PEP 479 turns it into RuntimeError); rendering must not
        # depend on that.
        rendered = list(
            result.render()
            for result in (Fig5Result(), Fig9Result())
        )
        assert len(rendered) == 2


class TestTraceCache:
    KEY = ("164.gzip", "graphic", 0, 1500)

    def test_round_trip(self, tmp_path):
        cache = TraceCache(str(tmp_path))
        trace = workload("gzip").trace(max_instructions=1_500)
        assert cache.load(self.KEY) is None
        cache.store(self.KEY, trace)
        loaded = cache.load(self.KEY)
        assert len(loaded) == len(trace)
        assert loaded[7].pc == trace[7].pc
        assert cache.stats.hits == 1 and cache.stats.misses == 1
        assert cache.stats.stores == 1

    def test_corrupt_entry_is_dropped(self, tmp_path):
        cache = TraceCache(str(tmp_path))
        cache.store(self.KEY, workload("gzip").trace(max_instructions=500))
        cache.path_for(self.KEY).write_bytes(b"not a pickle")
        assert cache.load(self.KEY) is None
        assert not cache.path_for(self.KEY).exists()

    def test_versioned_layout(self, tmp_path):
        from repro.api import SCHEMA_VERSION

        cache = TraceCache(str(tmp_path))
        assert cache.root == tmp_path / f"v{SCHEMA_VERSION}"
        path = cache.path_for(self.KEY)
        assert path.name == "164.gzip.graphic.O0.w1500.trace.bin"

    def test_cell_payload_round_trip(self, tmp_path):
        from repro.harness.parallel import _MISS

        cache = TraceCache(str(tmp_path))
        cell = TaskCell("table4", "164.gzip", 1_000, (("period", 3200),))
        assert cache.load_cell(cell) is _MISS
        cache.store_cell(cell, (1.5, 2.5))
        assert cache.load_cell(cell) == (1.5, 2.5)
        path = cache.cell_path_for(cell)
        assert path.name == "table4.164.gzip.w1000.period-3200.cell.pkl"
        assert path.parent.name == "cells"

    def test_warm_engine_run_skips_recompute(self, tmp_path, monkeypatch):
        from repro.harness import parallel as parallel_module

        cell = TaskCell("fig5", "164.gzip", 1_000)
        options = EngineOptions(jobs=1, cache_dir=str(tmp_path))
        first = run_cells([cell], options)[0]
        calls = []
        monkeypatch.setitem(
            parallel_module._CELL_RUNNERS, "fig5",
            lambda c: calls.append(c) or {},
        )
        second = run_cells([cell], options)[0]
        assert not calls  # payload came from the cell cache, not the runner
        assert second.payload == first.payload

    def test_cached_trace_uses_disk_level(self, tmp_path):
        from repro.workloads import cached_trace, set_disk_trace_cache

        cache = TraceCache(str(tmp_path))
        set_disk_trace_cache(cache)
        try:
            clear_trace_cache()
            first = cached_trace(workload("mcf"), 1_000)
            clear_trace_cache()  # force the second lookup to disk
            second = cached_trace(workload("mcf"), 1_000)
        finally:
            set_disk_trace_cache(None)
            clear_trace_cache()
        assert cache.stats.stores == 1 and cache.stats.hits == 1
        assert len(first) == len(second) == 1_000


class TestCacheWriteFaults:
    """A disk that fails after the ``usable_cache_dir`` probe costs the
    entry, never the cell.  Faults are injected errnos: the suite may
    run as root, where a chmod-based test would pass vacuously."""

    KEY = TestTraceCache.KEY

    @staticmethod
    def _refuse(code):
        def refuse(*args, **kwargs):
            raise OSError(code, os.strerror(code))

        return refuse

    @pytest.mark.parametrize("target", ["mkstemp", "mkdir"])
    def test_failed_writes_are_skipped_and_counted(
        self, tmp_path, monkeypatch, target
    ):
        cache = TraceCache(str(tmp_path))
        trace = workload("gzip").trace(max_instructions=500)
        if target == "mkstemp":
            monkeypatch.setattr(
                tempfile, "mkstemp", self._refuse(errno.ENOSPC)
            )
        else:
            monkeypatch.setattr(
                pathlib.Path, "mkdir", self._refuse(errno.EROFS)
            )
        cell = TaskCell("table4", "164.gzip", 1_000, (("period", 3200),))
        cache.store(self.KEY, trace)
        cache.store_cell(cell, (1.5, 2.5))
        cache.store_section("fig5", "key", "text")
        stats = cache.stats
        assert stats.write_errors == 3
        assert stats.stores == stats.cell_stores == 0
        assert stats.section_stores == 0
        assert not [
            path for path in tmp_path.rglob("*") if path.is_file()
        ]

    def test_cell_survives_a_full_disk(self, tmp_path, monkeypatch):
        cell = TaskCell("fig5", "164.gzip", 1_000)
        uncached = run_cells([cell], EngineOptions(jobs=1))[0]
        monkeypatch.setattr(tempfile, "mkstemp", self._refuse(errno.ENOSPC))
        outcome = run_cells(
            [cell], EngineOptions(jobs=1, cache_dir=str(tmp_path))
        )[0]
        assert outcome.ok, outcome.error
        assert outcome.payload == uncached.payload


class TestEngine:
    CELL = TaskCell("fig5", "164.gzip", 1_500)

    def test_serial_and_pool_payloads_match(self, tmp_path):
        serial = run_cells(
            [self.CELL], EngineOptions(jobs=1, cache_dir=str(tmp_path))
        )
        pooled = run_cells(
            [self.CELL, TaskCell("fig6", "164.gzip", 1_500)],
            EngineOptions(jobs=2, cache_dir=str(tmp_path)),
        )
        assert serial[0].ok and pooled[0].ok and pooled[1].ok
        assert serial[0].payload == pooled[0].payload

    def test_outcomes_keep_submission_order(self):
        cells = [
            TaskCell("fig5", "164.gzip", 1_000),
            TaskCell("fig5", "181.mcf", 1_000),
        ]
        outcomes = run_cells(cells, EngineOptions(jobs=2))
        assert [o.cell.benchmark for o in outcomes] == [
            "164.gzip", "181.mcf",
        ]

    def test_failed_cell_degrades_with_retry(self):
        bad = TaskCell("no_such_section", "164.gzip", 1_000)
        outcome = run_cells([bad], EngineOptions(jobs=1, retries=1))[0]
        assert not outcome.ok
        assert "no_such_section" in outcome.error
        assert outcome.attempts == 2  # original + one retry

    def test_failed_cell_degrades_in_pool(self):
        cells = [
            TaskCell("no_such_section", "164.gzip", 1_000),
            TaskCell("fig5", "164.gzip", 1_000),
        ]
        outcomes = run_cells(cells, EngineOptions(jobs=2))
        assert not outcomes[0].ok and outcomes[0].attempts == 2
        assert outcomes[1].ok

    def test_progress_reports_each_cell(self):
        notes = []
        run_cells(
            [TaskCell("fig5", "164.gzip", 1_000)],
            EngineOptions(jobs=1),
            progress=notes.append,
        )
        assert any("fig5×164.gzip" in note and "ok" in note
                   for note in notes)


class TestReportDeterminism:
    WINDOWS = dict(timing_window=1_500, functional_window=1_500)

    def test_jobs_1_and_4_byte_identical(self, tmp_path):
        serial = generate_report(
            benchmarks=["gzip", "mcf"], jobs=1,
            cache_dir=str(tmp_path / "a"), **self.WINDOWS,
        )
        parallel = generate_report(
            benchmarks=["gzip", "mcf"], jobs=4,
            cache_dir=str(tmp_path / "b"), **self.WINDOWS,
        )
        assert serial == parallel

    def test_cache_off_is_also_identical(self):
        cached_off = generate_report(
            benchmarks=["gzip"], jobs=1, cache_dir=None, **self.WINDOWS,
        )
        pooled = generate_report(
            benchmarks=["gzip"], jobs=2, cache_dir=None, **self.WINDOWS,
        )
        assert cached_off == pooled

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_unusable_cache_dir_runs_uncached(self, tmp_path, jobs):
        # A regular file where the cache root should go: mkdir fails
        # with ENOTDIR even for root, where a chmod-based test would
        # pass vacuously.
        blocker = tmp_path / "not-a-dir"
        blocker.write_text("")
        notes = []
        profiler = PhaseProfiler()
        degraded = generate_report(
            benchmarks=["gzip"], jobs=jobs, cache_dir=str(blocker),
            progress=notes.append, profiler=profiler, incremental=True,
            **self.WINDOWS,
        )
        uncached = generate_report(
            benchmarks=["gzip"], jobs=1, cache_dir=None, **self.WINDOWS,
        )
        assert degraded == uncached
        assert sum("cache disabled" in note for note in notes) == 1
        assert profiler.counters["cache_disabled"] == 1

    def test_engine_probes_the_cache_root(self, tmp_path):
        blocker = tmp_path / "not-a-dir"
        blocker.write_text("")
        notes = []
        (outcome,) = run_cells(
            [TaskCell("fig5", "164.gzip", 1_000)],
            EngineOptions(jobs=1, cache_dir=str(blocker)),
            progress=notes.append,
        )
        assert outcome.ok, outcome.error
        assert sum("cache disabled" in note for note in notes) == 1

    def test_warm_cache_changes_nothing(self, tmp_path):
        cold = generate_report(
            benchmarks=["mcf"], jobs=1, cache_dir=str(tmp_path),
            **self.WINDOWS,
        )
        warm = generate_report(
            benchmarks=["mcf"], jobs=1, cache_dir=str(tmp_path),
            **self.WINDOWS,
        )
        assert cold == warm


class TestSubsetConsistency:
    """All report sections agree on the validated subset (Table 3 used
    to silently drop misspelled names while other sections crashed)."""

    def test_sections_share_the_subset(self, tmp_path):
        text = generate_report(
            timing_window=1_500, functional_window=1_500,
            benchmarks=["gzip", "mcf"], jobs=1,
            cache_dir=str(tmp_path),
        )
        per_bench = [
            segment for segment in text.split("## ")
            if segment.startswith((
                "Figure 1", "Figure 5", "Figure 6", "Figure 7",
                "Figure 8", "Figure 9", "Table 3", "Table 4",
            ))
        ]
        assert len(per_bench) == 8
        for segment in per_bench:
            assert "gzip" in segment, segment.splitlines()[0]
            assert "mcf" in segment, segment.splitlines()[0]
            assert "crafty" not in segment, segment.splitlines()[0]

    def test_table3_covers_every_input_of_the_subset(self, tmp_path):
        text = generate_report(
            timing_window=1_500, functional_window=1_500,
            benchmarks=["gzip"], jobs=1, cache_dir=str(tmp_path),
        )
        table3 = text.split("Table 3")[-1].split("##")[0]
        for row in ("gzip.graphic", "gzip.program", "gzip.log"):
            assert row in table3
        assert "mcf.inp" not in table3

    def test_unknown_name_rejected_before_any_work(self):
        with pytest.raises(UsageError, match="nope"):
            generate_report(
                timing_window=1_500, functional_window=1_500,
                benchmarks=["gzip", "nope"], jobs=1,
            )


class TestReportDegradation:
    def test_failed_cell_renders_annotated_gap(self, monkeypatch):
        from repro.harness import parallel as parallel_module

        def explode(cell):
            raise RuntimeError("injected fault")

        monkeypatch.setitem(
            parallel_module._CELL_RUNNERS, "fig5", explode
        )
        text = generate_report(
            timing_window=1_200, functional_window=1_200,
            benchmarks=["gzip"], jobs=1,
        )
        assert "degraded: cell fig5×164.gzip" in text
        assert "injected fault" in text
        # Other sections are intact.
        assert "Figure 6" in text and "Table 4" in text


class TestPredictionParallel:
    def test_rows_merge_in_suite_order(self):
        from repro.harness.prediction import traffic_prediction_report

        report = traffic_prediction_report(
            benchmarks=["164.gzip", "181.mcf"],
            max_instructions=2_000,
            jobs=2,
        )
        assert [row.name for row in report.rows] == [
            "gzip.graphic", "mcf.inp",
        ]


class TestCli:
    def test_unknown_benchmark_exits_2_one_line(self, capsys, tmp_path):
        code = main(["report", "--output", str(tmp_path / "r.md"),
                     "--benchmarks", "nope"])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.err.startswith("repro: unknown benchmark: nope")
        assert captured.err.count("\n") == 1

    def test_bad_jobs_exits_2(self, capsys, tmp_path):
        code = main(["report", "--output", str(tmp_path / "r.md"),
                     "--jobs", "0"])
        assert code == 2
        assert "--jobs" in capsys.readouterr().err

    def test_report_with_jobs_and_cache(self, capsys, tmp_path):
        output = tmp_path / "r.md"
        code = main([
            "report", "--output", str(output),
            "--timing-window", "1500", "--functional-window", "1500",
            "--benchmarks", "gzip", "--jobs", "2",
            "--cache-dir", str(tmp_path / "cache"),
        ])
        assert code == 0
        assert "Figure 5" in output.read_text()
        assert (tmp_path / "cache").exists()
        capsys.readouterr()

    def test_no_cache_skips_cache_dir(self, capsys, tmp_path):
        output = tmp_path / "r.md"
        code = main([
            "report", "--output", str(output),
            "--timing-window", "1200", "--functional-window", "1200",
            "--benchmarks", "mcf", "--jobs", "1", "--no-cache",
            "--cache-dir", str(tmp_path / "cache"),
        ])
        assert code == 0
        assert not (tmp_path / "cache").exists()
        capsys.readouterr()

    def test_characterize_unknown_name_lists_choices(self, capsys):
        assert main(["characterize", "doom"]) == 2
        err = capsys.readouterr().err
        assert "unknown benchmark: doom" in err and "choose from" in err
