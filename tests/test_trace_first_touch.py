"""Tests for the first-touch analysis."""

from repro.emulator.memory import STACK_BASE
from repro.isa.instructions import OpClass
from repro.isa.registers import SP
from repro.trace.columnar import ColumnarTrace, SharedColumnarTrace
from repro.trace.first_touch import FirstTouchProfile
from repro.trace.records import TraceRecord
from repro.trace.serialization import pack_shared, shared_payload_size


def rec(index, *, sp, load_at=None, store_at=None, sp_update=False):
    is_load = load_at is not None
    is_store = store_at is not None
    return TraceRecord(
        index=index, pc=0x1000 + 4 * index,
        op="ldq" if is_load else ("stq" if is_store else "lda"),
        op_class=OpClass.LOAD if is_load
        else (OpClass.STORE if is_store else OpClass.IALU),
        srcs=(), dst=(SP if sp_update else None),
        is_load=is_load, is_store=is_store,
        addr=(load_at if is_load else (store_at or 0)),
        size=8, base_reg=SP if (is_load or is_store) else None,
        sp_value=sp, sp_update=sp_update,
    )


class TestSyntheticSequences:
    def test_store_first_after_allocation(self):
        profile = FirstTouchProfile()
        base = STACK_BASE
        profile.append(rec(0, sp=base))
        profile.append(rec(1, sp=base - 64, sp_update=True))
        profile.append(rec(2, sp=base - 64, store_at=base - 64))
        profile.append(rec(3, sp=base - 64, load_at=base - 64))
        assert profile.stack_first_stores == 1
        assert profile.stack_first_loads == 0
        assert profile.stack_first_store_fraction == 1.0

    def test_load_first_counted(self):
        profile = FirstTouchProfile()
        base = STACK_BASE
        profile.append(rec(0, sp=base))
        profile.append(rec(1, sp=base - 64, sp_update=True))
        profile.append(rec(2, sp=base - 64, load_at=base - 56))
        assert profile.stack_first_loads == 1
        assert profile.stack_first_store_fraction == 0.0

    def test_deallocation_kills_untouched_words(self):
        profile = FirstTouchProfile()
        base = STACK_BASE
        profile.append(rec(0, sp=base))
        profile.append(rec(1, sp=base - 64, sp_update=True))
        profile.append(rec(2, sp=base, sp_update=True))
        # Reallocate and touch: still counted as a fresh first touch.
        profile.append(rec(3, sp=base - 64, sp_update=True))
        profile.append(rec(4, sp=base - 64, store_at=base - 32))
        assert profile.stack_first_stores == 1

    def test_non_stack_words_counted_separately(self):
        profile = FirstTouchProfile()
        base = STACK_BASE
        profile.append(rec(0, sp=base))
        record = rec(1, sp=base, load_at=0x10000000)
        record.base_reg = 3
        profile.append(record)
        assert profile.other_first_loads == 1
        assert profile.stack_first_loads == 0


class TestOnRealTraces:
    def test_stack_words_are_written_first(self, crafty_trace):
        """The paper's claim: stack first-touches are mostly stores."""
        profile = FirstTouchProfile()
        for record in crafty_trace:
            profile.append(record)
        total = profile.stack_first_stores + profile.stack_first_loads
        assert total > 100
        assert profile.stack_first_store_fraction > 0.8

    def test_stack_beats_other_regions(self, eon_trace):
        profile = FirstTouchProfile()
        for record in eon_trace:
            profile.append(record)
        assert (
            profile.stack_first_store_fraction
            >= profile.other_first_store_fraction
        )


_FIELDS = (
    "stack_first_stores",
    "stack_first_loads",
    "other_first_stores",
    "other_first_loads",
)


def _state(profile):
    return (
        tuple(getattr(profile, name) for name in _FIELDS),
        sorted(profile._pending),
        profile._previous_sp,
    )


def _columns(records):
    trace = ColumnarTrace()
    for record in records:
        trace.append(record)
    return trace


def _assert_batched_matches_append(records, **options):
    """``consume_columns`` in one pass and in every 2-way split agrees
    with ``append`` on counters, pending words and ``$sp``."""
    reference = FirstTouchProfile(**options)
    for record in records:
        reference.append(record)
    trace = _columns(records)
    for split in range(len(records) + 1):
        batched = FirstTouchProfile(**options)
        batched.consume_columns(trace, 0, split)
        batched.consume_columns(trace, split)
        assert _state(batched) == _state(reference), split
    return reference


class TestBatchedEdges:
    """``consume_columns`` against ``append`` where its range-based
    frame bookkeeping has to fall back or reset."""

    def test_misaligned_sp(self):
        base = STACK_BASE
        # An allocation to a misaligned $sp exposes misaligned words;
        # later aligned frames mix alignments in the pending set, so a
        # deallocation cannot drop them by an aligned range.
        records = [
            rec(0, sp=base),
            rec(1, sp=base - 100, sp_update=True),
            rec(2, sp=base - 100, store_at=base - 100),
            rec(3, sp=base - 60, sp_update=True),
            rec(4, sp=base - 128, sp_update=True),
            rec(5, sp=base - 128, store_at=base - 128),
            rec(6, sp=base, sp_update=True),
            rec(7, sp=base - 64, sp_update=True),
            rec(8, sp=base - 64, load_at=base - 52),
            rec(9, sp=base - 64, store_at=base - 56),
        ]
        profile = _assert_batched_matches_append(records)
        assert (profile.stack_first_stores, profile.stack_first_loads) == (
            1, 1,
        )
        # The return to ``base`` dropped the misaligned words too.
        assert all(word % 8 == 0 for word in profile._pending)

    def test_deallocation_past_more_words_than_pending(self):
        base = STACK_BASE
        records = [
            rec(0, sp=base - 4096),
            rec(1, sp=base - 4112, sp_update=True),
            rec(2, sp=base - 4112, store_at=base - 4112),
            rec(3, sp=base, sp_update=True),  # 514 words, 1 pending
            rec(4, sp=base - 16, sp_update=True),
            rec(5, sp=base - 16, load_at=base - 8),
        ]
        profile = _assert_batched_matches_append(records)
        assert profile._pending == {base - 16}
        assert profile.stack_first_loads == 1

    def test_frame_larger_than_allocation_cap(self):
        base = STACK_BASE
        records = [
            rec(0, sp=base),
            rec(1, sp=base - 512, sp_update=True),  # 64 words, cap 4
            rec(2, sp=base - 512, store_at=base - 512),
            rec(3, sp=base - 512, store_at=base - 480),  # untracked
            rec(4, sp=base - 256, sp_update=True),
            rec(5, sp=base - 320, sp_update=True),
            rec(6, sp=base - 320, load_at=base - 304),
            rec(7, sp=base, sp_update=True),
        ]
        profile = _assert_batched_matches_append(
            records, allocation_cap=4
        )
        assert profile.stack_first_stores == 1
        assert profile.stack_first_loads == 1

    def test_sp_returning_to_zero(self):
        base = STACK_BASE
        # $sp = 0 makes the next row's $sp the new baseline, whatever
        # the row; the words exposed on the way to 0 then lie below it.
        records = [
            rec(0, sp=0),
            rec(1, sp=0),
            rec(2, sp=base),
            rec(3, sp=base - 32, sp_update=True),
            rec(4, sp=0, sp_update=True),  # exposes words 0..56
            rec(5, sp=0, store_at=8),
            rec(6, sp=base - 64),  # the new baseline
            rec(7, sp=base - 64, store_at=base - 64),
            rec(8, sp=base - 128, sp_update=True),
            rec(9, sp=base - 128, store_at=base - 120),
            rec(10, sp=base - 32, sp_update=True),
            rec(11, sp=base - 40, sp_update=True),
            rec(12, sp=base - 40, store_at=base - 40),
        ]
        profile = _assert_batched_matches_append(records, allocation_cap=8)
        assert profile.stack_first_stores == 2

    def test_chunked_real_trace_matches_single_pass(self, crafty_trace):
        single = FirstTouchProfile()
        single.consume_columns(crafty_trace)
        for chunk in (1, 97, 4096):
            chunked = FirstTouchProfile()
            for lo in range(0, len(crafty_trace), chunk):
                chunked.consume_columns(crafty_trace, lo, lo + chunk)
            assert _state(chunked) == _state(single)
        reference = FirstTouchProfile()
        for record in crafty_trace:
            reference.append(record)
        assert _state(single) == _state(reference)

    def test_read_only_shared_view_matches_owned_trace(self, crafty_trace):
        # Workers read traces as memoryview columns over shared memory.
        buffer = bytearray(shared_payload_size(len(crafty_trace)))
        pack_shared(buffer, crafty_trace)
        view = SharedColumnarTrace.from_buffer(buffer)
        owned = FirstTouchProfile()
        owned.consume_columns(crafty_trace)
        shared = FirstTouchProfile()
        shared.consume_columns(view, 0, 20_000)
        shared.consume_columns(view, 20_000)
        assert _state(shared) == _state(owned)
        view.close()
