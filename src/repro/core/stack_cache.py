"""Decoupled stack cache baseline (Cho, Yew & Lee — paper Section 5.3).

A direct-mapped, write-back, write-allocate cache dedicated to stack
references, sitting beside the L1 and refilled from the L2.  It is the
best-performing prior approach the paper compares the SVF against.

The crucial contrast with the SVF (paper Section 5.3.2):

1. **Allocations** — on a write miss the stack cache must fetch the
   rest of the line before the write can complete, even though a newly
   allocated stack frame is by definition uninitialized.
2. **Dirty replacements** — when a line is evicted the whole line must
   be written back if any word is dirty, even when the frame it held
   has already been deallocated (dead data).

Traffic is counted in quad-words, matching the paper's Table 3.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Set


@dataclass(frozen=True)
class StackCacheAccess:
    """Outcome of one reference presented to the stack cache."""

    hit: bool
    #: quad-words read from the L2 (line fill)
    filled: int = 0
    #: quad-words written back to the L2 (dirty eviction)
    written_back: int = 0


#: Shared outcome of every hit (misses are per-cache, below).
_HIT = StackCacheAccess(hit=True)


def check_geometry(capacity_bytes: int, line_size: int) -> None:
    """Raise ``ValueError`` unless a stack cache can have this geometry."""
    if capacity_bytes <= 0 or capacity_bytes % line_size:
        raise ValueError(
            f"capacity must be a positive multiple of the line "
            f"({line_size}), not {capacity_bytes}"
        )


class StackCache:
    """Direct-mapped decoupled stack cache."""

    def __init__(self, capacity_bytes: int = 8192, line_size: int = 32):
        check_geometry(capacity_bytes, line_size)
        self.capacity = capacity_bytes
        self.line_size = line_size
        self.num_lines = capacity_bytes // line_size
        self.line_words = line_size // 8
        #: line index -> resident line number (-1 = invalid)
        self._tags: List[int] = [-1] * self.num_lines
        #: line indices holding a dirty line
        self._dirty: Set[int] = set()
        self._miss = StackCacheAccess(hit=False, filled=self.line_words)
        self._dirty_miss = StackCacheAccess(
            hit=False, filled=self.line_words, written_back=self.line_words
        )
        # Traffic counters (quad-words between the stack cache and L2).
        self.qw_in = 0
        self.qw_out = 0
        # Behaviour counters.
        self.hits = 0
        self.misses = 0
        self.writebacks = 0
        self.context_switches = 0

    def access(self, addr: int, size: int, is_store: bool) -> StackCacheAccess:
        """Present one stack reference; updates state and traffic.

        Both read and write misses fill the whole line from the L2
        (write-allocate): with only per-line state the cache cannot
        know that a freshly allocated frame needs no fill.
        """
        line = addr // self.line_size
        index = line % self.num_lines
        tags = self._tags
        if tags[index] == line:
            self.hits += 1
            if is_store:
                self._dirty.add(index)
            return _HIT
        self.misses += 1
        self.qw_in += self.line_words
        tags[index] = line
        dirty = self._dirty
        if index in dirty:
            self.qw_out += self.line_words
            self.writebacks += 1
            if not is_store:
                dirty.remove(index)
            return self._dirty_miss
        if is_store:
            dirty.add(index)
        return self._miss

    def context_switch(self) -> int:
        """Flush for a context switch; returns bytes written back.

        Every dirty line is written back *whole* — the stack cache has
        per-line dirty bits, so one dirty word costs a full line of
        writeback traffic (contrast with the SVF's per-word bits).
        """
        self.context_switches += 1
        dirty_lines = len(self._dirty)
        self._tags = [-1] * self.num_lines
        self._dirty.clear()
        self.qw_out += dirty_lines * self.line_words
        return dirty_lines * self.line_size

    @property
    def valid_lines(self) -> int:
        return self.num_lines - self._tags.count(-1)

    @property
    def dirty_lines(self) -> int:
        return len(self._dirty)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<StackCache {self.capacity}B direct-mapped "
            f"lines={self.valid_lines}/{self.num_lines}>"
        )
