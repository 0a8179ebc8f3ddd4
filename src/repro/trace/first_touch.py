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
    #: (lets ``consume_columns`` drop a frame by range)
    _ranges_exact: bool = True

    stack_first_stores: int = 0
    stack_first_loads: int = 0
    other_first_stores: int = 0
    other_first_loads: int = 0

    def append(self, record: TraceRecord) -> None:
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

        This analysis is an inherently sequential state machine (each
        instruction's effect depends on the pending-word set left by
        all earlier ones), so there is no vectorized variant.  The
        batched walk visits only load, store and ``$sp``-update rows
        (picked with a ``bytes.translate`` mask), and does a frame's
        worth of pending words per set operation:

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
        hi = len(trace) if hi is None else hi
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
