"""First-touch analysis of stack words (paper Section 7, contribution 1).

The paper lists among the distinguishing characteristics of stack
references "a much higher percentage of first reference store
operations (making per word valid bits attractive)": a word exposed by
stack growth is uninitialized, so its first access after allocation is
almost always a store.  A conventional cache cannot exploit this (it
fills the line either way); the SVF's valid bits turn it into zero
fill traffic.

:class:`FirstTouchProfile` measures it directly: it tracks allocation
events via ``$sp`` decreases and classifies the first reference to
each newly exposed quad-word.  For contrast it also classifies first
touches to non-stack (global/heap) words, where loads come first far
more often.

``append`` is the reference state machine; ``consume_columns`` has a
python walk of the same machine and, with numpy, a vectorized leg that
needs no per-row state because the machine has a closed form.  While
every ``$sp`` update is aligned and nonzero, a stack access on row
``i`` to word ``w`` is a first touch iff all of these hold:

* ``w`` is at or above ``$sp`` at row ``i`` (deallocation dropped
  every pending word below it);
* take the last ``$sp`` update ``t`` before row ``i`` whose pre-update
  ``$sp`` was above ``w``: it exposed ``w``, i.e. ``w < new_sp[t] +
  8 * min((prev_sp[t] - new_sp[t]) // 8, allocation_cap)``;
* no access to ``w`` falls on a row after ``t`` and before ``i`` (an
  access on row ``t`` itself precedes that row's update);
* if there is no such ``t``, ``w`` was pending when the chunk began
  and nothing touched it earlier in the chunk.

``t`` is found for all accesses at once with a sparse-table max over
the pre-update ``$sp`` values (binary lifting).  The pending set at a
chunk's end is the same rule with the end as the access row, over the
words between the final ``$sp`` and the highest ``$sp`` of the chunk.
Non-stack first touches are the first occurrence of each word.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import compress
from typing import Dict, Optional, Set

from repro.trace.columnar import ColumnarTrace
from repro.trace.records import TraceRecord
from repro.trace.regions import STACK_REGION_FLOOR, is_stack_address

#: ``flags`` byte -> 1 for the rows first-touch tracking reads (loads,
#: stores and ``$sp`` updates), else 0.
_TOUCH_ROWS = bytes(1 if flags & 0b100011 else 0 for flags in range(256))


#: Most rows one vectorized pass takes; bounds the sparse table.
_SLAB_ROWS = 1 << 20

#: Fewest rows worth a vectorized pass: below this the fixed cost of
#: its numpy calls outweighs the python walk (on an eon trace the
#: crossover was 2-4k rows; 2-CPU x86-64, CPython 3.11, numpy 2.4).
_MIN_ARRAY_ROWS = 4096


def _max_table(values):
    """Sparse table: level ``j`` holds ``max(values[x : x + 2**j])``."""
    import numpy as np

    levels = [values] if len(values) else []
    step = 1
    while 2 * step <= len(values):
        level = levels[-1]
        levels.append(np.maximum(level[:-step], level[step:]))
        step *= 2
    return levels


def _last_above(levels, end, words):
    """Per query, the last index below ``end`` whose value exceeds
    ``word`` (-1: none): binary lifting over ``_max_table`` levels."""
    import numpy as np

    position = end
    for level in range(len(levels) - 1, -1, -1):
        start = position - (1 << level)
        block_max = levels[level][np.maximum(start, 0)]
        position = np.where(
            (start >= 0) & (block_max <= words), start, position
        )
    return position - 1


def _slot(sorted_values, values):
    """Per value, the index of its match in a sorted, non-empty array
    if it has one (check ``sorted_values[slot] == value``)."""
    import numpy as np

    return np.minimum(
        np.searchsorted(sorted_values, values), len(sorted_values) - 1
    )


def _exposed_end(prev_sps, new_sps, cap):
    """One past the highest word each ``$sp`` update exposes."""
    import numpy as np

    gap = np.where(prev_sps > new_sps, prev_sps - new_sps, 0)
    return new_sps + (np.minimum(gap >> 3, cap) << 3)


def _governed_exposures(prev_sps, new_sps, cap):
    """Per update, the exposed words it still governs at the end.

    A word ``w`` at or above the final ``$sp`` is governed by the last
    update whose pre-update ``$sp`` lies above it.  That update is
    ``k`` for ``w`` in ``[max(prev_sps[k+1:], final $sp), prev_sps[k])``;
    this returns the words of those ranges that update ``k`` exposed,
    with ``k`` for each.
    """
    import numpy as np

    if not len(prev_sps):
        return np.empty(0, np.uint64), np.empty(0, np.int64)
    floor = np.empty_like(prev_sps)
    floor[:-1] = np.maximum.accumulate(prev_sps[:0:-1])[::-1]
    floor[-1] = 0
    lower = np.maximum(np.maximum(floor, new_sps[-1]), new_sps)
    upper = _exposed_end(prev_sps, new_sps, cap)
    counts = np.where(upper > lower, (upper - lower) >> 3, 0).astype(np.int64)
    exposer = np.repeat(np.arange(len(counts)), counts)
    offsets = np.arange(len(exposer)) - np.repeat(
        np.cumsum(counts) - counts, counts
    )
    return lower[exposer] + (offsets.astype(np.uint64) << 3), exposer


@dataclass
class FirstTouchProfile:
    """Streaming trace sink measuring first-touch store fractions."""

    #: stack words allocated (exposed by an $sp decrease) but untouched
    _pending: Set[int] = field(default_factory=set)
    _previous_sp: int = 0
    _seen_other: Dict[int, bool] = field(default_factory=dict)
    #: max words tracked per allocation (guards giant frames)
    allocation_cap: int = 4096
    #: every pending word is 8-aligned and at or above ``_previous_sp``
    #: (lets the python walk drop a frame by range, and the numpy leg
    #: apply its closed form)
    _ranges_exact: bool = True

    stack_first_stores: int = 0
    stack_first_loads: int = 0
    other_first_stores: int = 0
    other_first_loads: int = 0

    def append(self, record: TraceRecord) -> None:
        """Reference walk: one record (``consume_columns`` must match)."""
        if self._previous_sp == 0:
            self._previous_sp = record.sp_value
        if record.is_load or record.is_store:
            word = record.addr & ~7
            if is_stack_address(record.addr):
                if word in self._pending:
                    self._pending.discard(word)
                    if record.is_store:
                        self.stack_first_stores += 1
                    else:
                        self.stack_first_loads += 1
            elif word not in self._seen_other:
                self._seen_other[word] = True
                if record.is_store:
                    self.other_first_stores += 1
                else:
                    self.other_first_loads += 1
        if record.sp_update:
            new_sp = record.sp_value
            if new_sp < self._previous_sp:
                exposed = min(
                    (self._previous_sp - new_sp) // 8, self.allocation_cap
                )
                for index in range(exposed):
                    self._pending.add(new_sp + 8 * index)
            else:
                # Deallocation kills pending-but-untouched words.
                for word in [
                    w for w in self._pending if w < new_sp
                ]:
                    self._pending.discard(word)
            self._previous_sp = new_sp

    def consume_columns(
        self, trace: ColumnarTrace, lo: int = 0, hi: Optional[int] = None
    ) -> None:
        """Batched form of ``append`` over ``trace[lo:hi)``.

        Walks the numpy column views in slabs of at most
        ``_SLAB_ROWS`` rows (which bounds the sparse table's memory).
        A slab the vectorized rule does not cover, one shorter than
        ``_MIN_ARRAY_ROWS``, and every slab without numpy go to the
        python walk; the two legs hand each other the same state, so
        chunks compose whichever leg each one takes.
        """
        hi = len(trace) if hi is None else min(hi, len(trace))
        arrays = trace.as_arrays()
        if arrays is None:
            self._consume_python(trace, lo, hi)
            return
        for start in range(lo, hi, _SLAB_ROWS):
            end = min(start + _SLAB_ROWS, hi)
            if end - start < _MIN_ARRAY_ROWS or not self._consume_arrays(
                arrays, start, end
            ):
                self._consume_python(trace, start, end)

    def _consume_python(self, trace: ColumnarTrace, lo: int, hi: int) -> None:
        """Reference batched walk: ``append``'s state machine per row.

        It visits only load, store and ``$sp``-update rows (picked
        with a ``bytes.translate`` mask), and does a frame's worth of
        pending words per set operation:

        * an allocation adds its exposed words with one ``update``;
        * a deallocation to ``new_sp`` drops the words below it.  Every
          pending word lies at or above the current ``$sp`` and is
          8-aligned, so those are exactly the words of
          ``range(previous_sp, new_sp, 8)``: one ``difference_update``.
          When that range is longer than the pending set, or the
          invariant may not hold (a misaligned ``$sp`` exposed words,
          or ``$sp`` was re-read after reaching 0), it scans the
          pending set as ``append`` does.
        """
        col_flags = trace.flags
        col_addr = trace.addr
        col_sp = trace.sp
        stack_floor = STACK_REGION_FLOOR
        pending = self._pending
        seen_other = self._seen_other
        previous_sp = self._previous_sp
        cap = self.allocation_cap
        ranges_exact = self._ranges_exact
        stack_stores = stack_loads = other_stores = other_loads = 0
        # Rows from here on still owe ``append``'s reset of a zero
        # previous_sp to the row's $sp (None: previous_sp is set).
        zero_from = lo if previous_sp == 0 else None
        rows = compress(
            range(lo, hi), bytes(col_flags[lo:hi]).translate(_TOUCH_ROWS)
        )
        for index in rows:
            flags = col_flags[index]
            if zero_from is not None:
                previous_sp, ranges_exact = self._reset_sp(
                    col_sp, zero_from, index + 1, ranges_exact
                )
                zero_from = None if previous_sp else index + 1
            if flags & 3:  # load or store
                addr = col_addr[index]
                word = addr & ~7
                if addr >= stack_floor:
                    if word in pending:
                        pending.discard(word)
                        if flags & 2:
                            stack_stores += 1
                        else:
                            stack_loads += 1
                elif word not in seen_other:
                    seen_other[word] = True
                    if flags & 2:
                        other_stores += 1
                    else:
                        other_loads += 1
            if flags & 32:  # sp_update
                new_sp = col_sp[index]
                if new_sp < previous_sp:
                    exposed = min((previous_sp - new_sp) // 8, cap)
                    if exposed:
                        pending.update(
                            range(new_sp, new_sp + 8 * exposed, 8)
                        )
                        if new_sp & 7:
                            ranges_exact = False
                elif (
                    ranges_exact
                    and (new_sp - previous_sp) >> 3 <= len(pending)
                ):
                    pending.difference_update(
                        range((previous_sp + 7) & ~7, new_sp, 8)
                    )
                elif pending:
                    for word in [w for w in pending if w < new_sp]:
                        pending.discard(word)
                previous_sp = new_sp
                zero_from = None if new_sp else index + 1
        if zero_from is not None and zero_from < hi:
            previous_sp, ranges_exact = self._reset_sp(
                col_sp, zero_from, hi, ranges_exact
            )
        self._previous_sp = previous_sp
        self._ranges_exact = ranges_exact
        self.stack_first_stores += stack_stores
        self.stack_first_loads += stack_loads
        self.other_first_stores += other_stores
        self.other_first_loads += other_loads

    def _consume_arrays(self, arrays, lo: int, hi: int) -> bool:
        """Vectorized batched path over rows [lo, hi) of the views.

        Applies the first-touch rule of the module docstring to every
        access at once.  Returns False, having changed nothing, where
        the python walk special-cases a row: the rule assumes aligned,
        nonzero ``$sp`` updates and a pending set at or above ``$sp``.
        """
        import numpy as np

        pending = self._pending
        previous_sp = self._previous_sp
        if previous_sp == 0:
            previous_sp = int(arrays.sp[lo])
            if previous_sp == 0 or (pending and min(pending) < previous_sp):
                return False
        if not self._ranges_exact:
            return False
        flags = arrays.flags[lo:hi]
        update_rows = np.flatnonzero(flags & 32)
        # sps[k] is $sp before update k; sps[-1] is $sp after the last.
        sps = np.empty(len(update_rows) + 1, dtype=np.uint64)
        sps[0] = previous_sp
        sps[1:] = arrays.sp[lo:hi][update_rows]
        prev_sps, new_sps = sps[:-1], sps[1:]
        if (new_sps & 7).any() or not new_sps.all():
            return False
        self._previous_sp = int(sps[-1])
        access = np.flatnonzero(flags & 3)
        if not len(access) and not len(update_rows):
            return True
        cap = self.allocation_cap
        addr = arrays.addr[lo:hi][access]
        words = addr - (addr & 7)
        is_store = (flags[access] & 2) != 0
        stack = addr >= STACK_REGION_FLOOR

        if not stack.all():
            # Non-stack words: the first access of the slab counts
            # unless an earlier slab saw the word.
            other = ~stack
            other_words, first_index = np.unique(
                words[other], return_index=True
            )
            seen_other = self._seen_other
            fresh = np.array(
                [word not in seen_other for word in other_words.tolist()],
                dtype=bool,
            )
            fresh_stores = int(is_store[other][first_index[fresh]].sum())
            self.other_first_stores += fresh_stores
            self.other_first_loads += int(fresh.sum()) - fresh_stores
            seen_other.update(
                dict.fromkeys(other_words[fresh].tolist(), True)
            )
            rows = access[stack]
            words, is_store = words[stack], is_store[stack]
        else:
            rows = access

        # Each stack access's previous access to the same word (row -1:
        # none), from a stable sort by word.
        order = np.argsort(words, kind="stable")
        sorted_words = words[order]
        same = sorted_words[1:] == sorted_words[:-1]
        previous_row = np.full(len(rows), -1, dtype=np.int64)
        previous_row[order[1:][same]] = rows[order[:-1][same]]

        before = np.searchsorted(update_rows, rows)
        live = np.flatnonzero(words >= sps[before])
        live_words = words[live]
        exposer = _last_above(_max_table(prev_sps), before[live], live_words)
        carried = exposer < 0
        exposed = np.empty(len(live), dtype=bool)
        exposed[carried] = [
            word in pending for word in live_words[carried].tolist()
        ]
        by = exposer[~carried]
        exposed[~carried] = live_words[~carried] < _exposed_end(
            prev_sps[by], new_sps[by], cap
        )
        exposer_row = np.full(len(live), -1, dtype=np.int64)
        exposer_row[~carried] = update_rows[by]
        first = exposed & (previous_row[live] <= exposer_row)
        first_stores = int(is_store[live][first].sum())
        self.stack_first_stores += first_stores
        self.stack_first_loads += int(first.sum()) - first_stores

        # Pending words at the slab's end: the same rule, with the end
        # of the slab as the access row.
        last = np.flatnonzero(np.append(~same, True))[: len(words)]
        touched = sorted_words[last]
        last_row = rows[order[last]]
        if pending:
            # Carried words stay unless accessed or below the highest
            # $sp of the slab (re-exposed ones are added back below).
            carried_words = np.fromiter(pending, np.uint64, len(pending))
            dropped = carried_words < sps.max()
            if len(touched):
                dropped |= touched[_slot(touched, carried_words)] == (
                    carried_words
                )
            pending.difference_update(carried_words[dropped].tolist())
        exposed_words, exposer = _governed_exposures(prev_sps, new_sps, cap)
        if len(touched) and len(exposed_words):
            slot = _slot(touched, exposed_words)
            consumed = (touched[slot] == exposed_words) & (
                last_row[slot] > update_rows[exposer]
            )
            exposed_words = exposed_words[~consumed]
        pending.update(exposed_words.tolist())
        return True

    def _reset_sp(self, col_sp, lo, hi, ranges_exact):
        """``append``'s zero-``previous_sp`` reset over rows [lo, hi).

        Returns the first nonzero ``$sp`` of those rows (0 if none) and
        whether the pending set still lies at or above it.
        """
        for sp in col_sp[lo:hi]:
            if sp:
                if self._pending and min(self._pending) < sp:
                    ranges_exact = False
                return sp, ranges_exact
        return 0, ranges_exact

    @property
    def stack_first_store_fraction(self) -> float:
        """Fraction of freshly allocated stack words written first."""
        total = self.stack_first_stores + self.stack_first_loads
        if total == 0:
            return 0.0
        return self.stack_first_stores / total

    @property
    def other_first_store_fraction(self) -> float:
        """Same metric for global/heap words (the contrast)."""
        total = self.other_first_stores + self.other_first_loads
        if total == 0:
            return 0.0
        return self.other_first_stores / total
