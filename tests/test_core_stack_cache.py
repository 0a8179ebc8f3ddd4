"""Unit tests for the decoupled stack-cache baseline."""

import pytest

from repro.core.stack_cache import StackCache, StackCacheAccess

BASE = 0x7FFF0000


class TestGeometry:
    def test_line_count(self):
        cache = StackCache(8192, line_size=32)
        assert cache.num_lines == 256
        assert cache.line_words == 4

    def test_invalid_capacity(self):
        with pytest.raises(ValueError):
            StackCache(100, line_size=32)


class TestMissSemantics:
    def test_read_miss_fills_whole_line(self):
        cache = StackCache(2048)
        outcome = cache.access(BASE, 8, is_store=False)
        assert not outcome.hit
        assert outcome.filled == 4
        assert cache.qw_in == 4

    def test_write_miss_also_fills_line(self):
        """The paper's key contrast: a stack cache must read the rest
        of the line before a write — even for freshly allocated space."""
        cache = StackCache(2048)
        outcome = cache.access(BASE, 8, is_store=True)
        assert outcome.filled == 4
        assert cache.qw_in == 4

    def test_hit_after_fill(self):
        cache = StackCache(2048)
        cache.access(BASE, 8, is_store=False)
        outcome = cache.access(BASE + 8, 8, is_store=False)  # same line
        assert outcome.hit
        assert cache.qw_in == 4

    def test_dirty_eviction_writes_whole_line(self):
        cache = StackCache(2048)
        cache.access(BASE, 8, is_store=True)
        conflicting = BASE + 2048  # same index, different tag
        outcome = cache.access(conflicting, 8, is_store=False)
        assert outcome.written_back == 4
        assert cache.qw_out == 4

    def test_clean_eviction_writes_nothing(self):
        cache = StackCache(2048)
        cache.access(BASE, 8, is_store=False)
        cache.access(BASE + 2048, 8, is_store=False)
        assert cache.qw_out == 0

    def test_store_to_clean_resident_line_sets_dirty(self):
        cache = StackCache(2048)
        cache.access(BASE, 8, is_store=False)  # fill clean
        cache.access(BASE, 8, is_store=True)  # dirty it
        cache.access(BASE + 2048, 8, is_store=False)  # evict
        assert cache.qw_out == 4

    def test_direct_mapped_conflicts(self):
        cache = StackCache(2048)
        cache.access(BASE, 8, is_store=False)
        cache.access(BASE + 2048, 8, is_store=False)
        outcome = cache.access(BASE, 8, is_store=False)
        assert not outcome.hit  # conflict evicted it
        assert cache.misses == 3


class TestContextSwitch:
    def test_flushes_whole_dirty_lines(self):
        """One dirty word costs a full line of writeback (vs the SVF's
        per-word granularity) — the Table 4 contrast."""
        cache = StackCache(2048, line_size=32)
        cache.access(BASE, 8, is_store=True)  # one dirty word
        flushed = cache.context_switch()
        assert flushed == 32  # whole line
        assert cache.valid_lines == 0

    def test_clean_lines_not_written(self):
        cache = StackCache(2048)
        cache.access(BASE, 8, is_store=False)
        assert cache.context_switch() == 0

    def test_switch_invalidates(self):
        cache = StackCache(2048)
        cache.access(BASE, 8, is_store=False)
        cache.context_switch()
        outcome = cache.access(BASE, 8, is_store=False)
        assert not outcome.hit


class TestVsSVF:
    def test_frame_lifecycle_costs_traffic_unlike_svf(self):
        """Same access pattern, opposite traffic outcome (Table 3)."""
        from repro.core.svf import StackValueFile

        cache = StackCache(2048)
        svf = StackValueFile(2048)
        svf.update_sp(BASE)
        # Allocate, write, read, deallocate a 128-byte frame.
        svf.update_sp(BASE - 128)
        for offset in range(0, 128, 8):
            addr = BASE - 128 + offset
            cache.access(addr, 8, is_store=True)
            svf.access(addr, 8, is_store=True)
        svf.update_sp(BASE)
        switch_cache = cache.context_switch()
        switch_svf = svf.context_switch()
        assert cache.qw_in > 0  # line fills on write misses
        assert svf.qw_in == 0  # allocation semantics: no fills
        assert switch_cache > switch_svf  # dead frame already killed


class TestSharedOutcomes:
    def test_outcomes_equal_fresh_instances(self):
        cache = StackCache(2048)
        assert cache.access(BASE, 8, is_store=True) == StackCacheAccess(
            hit=False, filled=4
        )
        assert cache.access(BASE, 8, is_store=False) == StackCacheAccess(
            hit=True
        )
        # Same line index, other tag: the dirty line is written back.
        assert cache.access(BASE + 2048, 8, is_store=False) == (
            StackCacheAccess(hit=False, filled=4, written_back=4)
        )
        # The refilled line came in clean: no writeback on eviction.
        assert cache.access(BASE, 8, is_store=False) == StackCacheAccess(
            hit=False, filled=4
        )
