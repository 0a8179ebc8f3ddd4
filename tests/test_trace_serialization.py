"""Tests for binary trace serialization."""

import pytest

from repro.trace.serialization import (
    TraceFormatError,
    load_trace,
    save_trace,
)
from repro.uarch.config import table2_config
from repro.uarch.pipeline import simulate


FIELDS = (
    "pc", "op", "srcs", "dst", "is_load", "is_store", "addr", "size",
    "base_reg", "displacement", "is_branch", "is_conditional", "taken",
    "next_pc", "sp_value", "sp_update", "sp_update_immediate",
)


class TestRoundTrip:
    def test_records_identical(self, gzip_trace, tmp_path):
        path = str(tmp_path / "gzip.svft")
        count = save_trace(gzip_trace, path)
        assert count == len(gzip_trace)
        restored = load_trace(path)
        assert len(restored) == len(gzip_trace)
        for original, copy in zip(gzip_trace, restored):
            for field in FIELDS:
                assert getattr(copy, field) == getattr(original, field), (
                    field
                )
            assert copy.op_class is original.op_class

    def test_timing_simulation_identical(self, crafty_trace, tmp_path):
        """A reloaded trace must time exactly like the original."""
        path = str(tmp_path / "crafty.svft")
        save_trace(crafty_trace, path)
        restored = load_trace(path)
        config = table2_config(16).with_svf(mode="svf", ports=2)
        original_stats = simulate(crafty_trace, config)
        restored_stats = simulate(restored, config)
        assert restored_stats.cycles == original_stats.cycles
        assert restored_stats.svf_fast_loads == original_stats.svf_fast_loads


class TestErrors:
    def test_bad_magic_rejected(self, tmp_path):
        path = tmp_path / "bogus.svft"
        path.write_bytes(b"NOTATRACE")
        with pytest.raises(TraceFormatError, match="header"):
            load_trace(str(path))

    def test_truncated_file_rejected(self, gzip_trace, tmp_path):
        path = tmp_path / "cut.svft"
        save_trace(gzip_trace[:10], str(path))
        blob = path.read_bytes()
        path.write_bytes(blob[:-7])
        with pytest.raises(TraceFormatError, match="truncated"):
            load_trace(str(path))

    def test_empty_trace_round_trips(self, tmp_path):
        path = str(tmp_path / "empty.svft")
        assert save_trace([], path) == 0
        assert load_trace(path) == []
