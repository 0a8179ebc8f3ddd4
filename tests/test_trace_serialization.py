"""Tests for binary trace serialization."""

import struct
import zlib

import pytest

from repro.trace.serialization import (
    MAGIC,
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
        # The CRC is recomputed, so only the length check can catch it.
        path = _saved(gzip_trace[:10], tmp_path)
        _rewrite(path, lambda body: body[:-7])
        with pytest.raises(TraceFormatError, match="^truncated trace file"):
            load_trace(str(path))

    def test_trailing_bytes_rejected(self, gzip_trace, tmp_path):
        path = _saved(gzip_trace[:10], tmp_path)
        _rewrite(path, lambda body: body + b"\0" * 3)
        with pytest.raises(TraceFormatError, match="^trailing bytes"):
            load_trace(str(path))

    @pytest.mark.parametrize("cut", [0, 7, -7])
    def test_corrupt_file_reports_checksum(self, gzip_trace, tmp_path, cut):
        # A flipped bit, alone or in a file that is also cut short or
        # padded: the checksum is what any corrupt file reports.
        path = _saved(gzip_trace[:10], tmp_path)
        blob = bytearray(path.read_bytes())
        blob[40] ^= 1
        if cut > 0:
            blob += b"\0" * cut
        elif cut < 0:
            blob = blob[:cut]
        path.write_bytes(bytes(blob))
        with pytest.raises(TraceFormatError, match="^checksum mismatch"):
            load_trace(str(path))

    def test_first_bad_opcode_reported_by_value(self, gzip_trace, tmp_path):
        path = _saved(gzip_trace[:10], tmp_path)

        def corrupt(body):
            opcodes = 8 + 8 * 10  # count, then the pc column
            body[opcodes + 3] = 250
            body[opcodes + 6] = 0
            return body

        _rewrite(path, corrupt)
        with pytest.raises(TraceFormatError, match="^bad opcode 250 in"):
            load_trace(str(path))

    def test_empty_trace_round_trips(self, tmp_path):
        path = str(tmp_path / "empty.svft")
        assert save_trace([], path) == 0
        assert load_trace(path) == []


def _saved(trace, tmp_path):
    path = tmp_path / "t.svft"
    save_trace(trace, str(path))
    return path


def _rewrite(path, edit):
    """Apply ``edit`` to the bytes after the CRC field, then re-sign."""
    blob = path.read_bytes()
    header = len(MAGIC) + 4
    body = bytes(edit(bytearray(blob[header:])))
    path.write_bytes(MAGIC + struct.pack("<I", zlib.crc32(body)) + body)
