"""Unit tests for the Stack Value File (paper Section 3)."""

import pytest

from repro.core.svf import SVFAccess, StackValueFile

BASE = 0x7FFF0000


def svf_at(tos=BASE, capacity=1024):
    svf = StackValueFile(capacity_bytes=capacity)
    svf.update_sp(tos)
    return svf


class TestGeometry:
    def test_entry_count(self):
        assert StackValueFile(8192).num_entries == 1024
        assert StackValueFile(2048).num_entries == 256

    def test_page_tags_match_paper(self):
        """Paper Section 3: an 8KB SVF needs only 3 tags for 4KB pages."""
        assert StackValueFile(8192, page_size=4096).num_page_tags == 3

    def test_invalid_capacity_rejected(self):
        with pytest.raises(ValueError):
            StackValueFile(0)
        with pytest.raises(ValueError):
            StackValueFile(100)

    def test_bounds_check(self):
        svf = svf_at(BASE, capacity=1024)
        assert svf.covers(BASE)
        assert svf.covers(BASE + 1016)
        assert not svf.covers(BASE + 1024)
        assert not svf.covers(BASE - 8)

    def test_uninitialized_covers_nothing(self):
        assert not StackValueFile(1024).covers(BASE)


class TestAccessSemantics:
    def test_store_needs_no_fill(self):
        """Writes to newly allocated stack space avoid the read (§2)."""
        svf = svf_at()
        outcome = svf.access(BASE + 16, 8, is_store=True)
        assert outcome.in_range and outcome.filled == 0
        assert svf.qw_in == 0
        assert svf.dirty_words == 1

    def test_load_of_invalid_word_fills(self):
        svf = svf_at()
        outcome = svf.access(BASE + 16, 8, is_store=False)
        assert outcome.in_range and not outcome.hit
        assert outcome.filled == 1
        assert svf.qw_in == 1

    def test_load_after_store_hits(self):
        svf = svf_at()
        svf.access(BASE + 16, 8, is_store=True)
        outcome = svf.access(BASE + 16, 8, is_store=False)
        assert outcome.hit
        assert svf.qw_in == 0

    def test_load_after_fill_hits(self):
        svf = svf_at()
        svf.access(BASE + 16, 8, is_store=False)
        outcome = svf.access(BASE + 16, 8, is_store=False)
        assert outcome.hit
        assert svf.qw_in == 1

    def test_subword_store_to_invalid_word_fills(self):
        """A 4-byte store to an invalid 8-byte word must read-merge."""
        svf = svf_at()
        outcome = svf.access(BASE + 16, 4, is_store=True)
        assert outcome.filled == 1

    def test_subword_store_to_valid_word_no_fill(self):
        svf = svf_at()
        svf.access(BASE + 16, 8, is_store=True)
        outcome = svf.access(BASE + 16, 4, is_store=True)
        assert outcome.filled == 0

    def test_out_of_range_access(self):
        svf = svf_at(BASE, capacity=1024)
        outcome = svf.access(BASE + 4096, 8, is_store=False)
        assert not outcome.in_range
        assert svf.out_of_range == 1
        assert svf.qw_in == 0


class TestStackPointerTracking:
    def test_growth_exposes_invalid_words(self):
        """New allocations are uninitialized: no fill reads (§5.3.2)."""
        svf = svf_at(BASE, capacity=1024)
        svf.update_sp(BASE - 256)  # grow by 256 bytes
        assert svf.qw_in == 0
        assert svf.tos == BASE - 256

    def test_growth_writes_back_dirty_top(self):
        svf = svf_at(BASE, capacity=256)
        # Dirty the topmost covered word.
        svf.access(BASE + 248, 8, is_store=True)
        written = svf.update_sp(BASE - 64)
        assert written == 1
        assert svf.qw_out == 1

    def test_growth_does_not_write_clean_top(self):
        svf = svf_at(BASE, capacity=256)
        svf.access(BASE + 248, 8, is_store=False)  # fill, stays clean
        written = svf.update_sp(BASE - 64)
        assert written == 0

    def test_shrink_kills_dirty_words_without_writeback(self):
        """Deallocated frames are dead: dirty data is dropped (§5.3.2)."""
        svf = svf_at(BASE - 256, capacity=1024)
        svf.access(BASE - 256, 8, is_store=True)
        svf.access(BASE - 248, 8, is_store=True)
        written = svf.update_sp(BASE)  # shrink past both words
        assert written == 0
        assert svf.qw_out == 0
        assert svf.killed_words == 2

    def test_shrink_then_reload_fills_on_demand(self):
        svf = svf_at(BASE - 2048, capacity=1024)
        svf.update_sp(BASE)  # shrink: top of window now above old data
        outcome = svf.access(BASE + 512, 8, is_store=False)
        assert outcome.filled == 1  # valid bit was cleared

    def test_call_return_cycle_is_traffic_free(self):
        """A frame written inside its lifetime costs no traffic."""
        svf = svf_at(BASE, capacity=1024)
        svf.update_sp(BASE - 128)  # prologue
        for offset in range(0, 128, 8):
            svf.access(BASE - 128 + offset, 8, is_store=True)
            svf.access(BASE - 128 + offset, 8, is_store=False)
        svf.update_sp(BASE)  # epilogue kills the frame
        assert svf.qw_in == 0
        assert svf.qw_out == 0

    def test_deep_recursion_writes_back_only_live_dirty(self):
        svf = svf_at(BASE, capacity=256)
        # Write a caller word near the top of the window.
        svf.access(BASE + 192, 8, is_store=True)
        # Deep growth pushes it out of the window: one writeback.
        svf.update_sp(BASE - 1024)
        assert svf.qw_out == 1

    def test_sp_unchanged_is_noop(self):
        svf = svf_at(BASE)
        svf.access(BASE + 8, 8, is_store=True)
        assert svf.update_sp(BASE) == 0
        assert svf.dirty_words == 1

    def test_first_update_sets_tos_without_traffic(self):
        svf = StackValueFile(1024)
        assert svf.update_sp(BASE) == 0
        assert svf.tos == BASE


class TestContextSwitch:
    def test_writes_back_dirty_words_only(self):
        svf = svf_at(BASE, capacity=1024)
        svf.access(BASE + 0, 8, is_store=True)
        svf.access(BASE + 8, 8, is_store=True)
        svf.access(BASE + 64, 8, is_store=False)  # valid but clean
        flushed = svf.context_switch()
        assert flushed == 16  # 2 dirty words * 8 bytes
        assert svf.valid_words == 0
        assert svf.context_switches == 1

    def test_reload_after_switch_fills(self):
        svf = svf_at(BASE)
        svf.access(BASE + 8, 8, is_store=True)
        svf.context_switch()
        outcome = svf.access(BASE + 8, 8, is_store=False)
        assert outcome.filled == 1

    def test_empty_switch_costs_nothing(self):
        svf = svf_at(BASE)
        assert svf.context_switch() == 0


class TestInvariants:
    def test_valid_words_bounded_by_capacity(self):
        svf = svf_at(BASE, capacity=256)
        for offset in range(0, 256, 8):
            svf.access(BASE + offset, 8, is_store=True)
        assert svf.valid_words == 32
        # Slide the window many times; occupancy never exceeds entries.
        for step in range(1, 30):
            svf.update_sp(BASE - 64 * step)
            for offset in range(0, 64, 8):
                svf.access(svf.tos + offset, 8, is_store=True)
            assert svf.valid_words <= svf.num_entries

    def test_all_valid_words_are_covered(self):
        svf = svf_at(BASE, capacity=256)
        for offset in range(0, 256, 8):
            svf.access(BASE + offset, 8, is_store=True)
        svf.update_sp(BASE - 104)
        svf.update_sp(BASE + 72)
        for word in svf._words:
            assert svf.covers(word)


class TestWritebackOrder:
    """The order of ``writeback_sink`` calls sets DL1 LRU state in the
    timing model, so both eviction strategies pin it."""

    def _sinking(self, capacity=1024):
        svf = svf_at(BASE, capacity=capacity)
        calls = []
        svf.writeback_sink = calls.append
        return svf, calls

    def test_small_range_is_written_back_in_ascending_order(self):
        # Fewer granules in the range than valid words: the range is
        # walked in ascending address order, whatever the insertion
        # order of the words.
        svf, calls = self._sinking()
        svf.access(BASE + 1016, 8, is_store=True)
        svf.access(BASE + 1008, 8, is_store=True)
        for offset in range(0, 64, 8):
            svf.access(BASE + offset, 8, is_store=True)
        assert svf.update_sp(BASE - 16) == 2
        assert calls == [BASE + 1008, BASE + 1016]

    def test_large_range_is_written_back_in_insertion_order(self):
        # More granules in the range than valid words: the valid words
        # are walked in the order they became valid.
        svf, calls = self._sinking()
        for offset in (1016, 8, 512, 256):
            svf.access(BASE + offset, 8, is_store=True)
        svf.access(BASE + 24, 8, is_store=False)  # clean: not written
        assert svf.update_sp(BASE - 4096) == 4
        assert calls == [BASE + 1016, BASE + 8, BASE + 512, BASE + 256]

    def test_shrink_kills_without_calling_the_sink(self):
        svf, calls = self._sinking()
        svf.access(BASE + 8, 8, is_store=True)
        svf.update_sp(BASE + 64)
        assert calls == []
        assert svf.killed_dirty_words == 1


class TestSharedOutcomes:
    def test_outcomes_equal_fresh_instances(self):
        svf = svf_at(BASE, capacity=1024)
        assert svf.access(BASE - 8, 8, is_store=False) == SVFAccess(
            in_range=False
        )
        assert svf.access(BASE, 8, is_store=False) == SVFAccess(
            in_range=True, hit=False, filled=1
        )
        assert svf.access(BASE, 8, is_store=False) == SVFAccess(
            in_range=True, hit=True
        )
        assert svf.access(BASE + 8, 8, is_store=True) == SVFAccess(
            in_range=True, hit=True
        )

    def test_coarse_fill_outcome_carries_granule_words(self):
        svf = StackValueFile(1024, granularity=32)
        svf.update_sp(BASE)
        assert svf.access(BASE, 8, is_store=True) == SVFAccess(
            in_range=True, hit=False, filled=4
        )
