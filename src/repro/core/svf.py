"""The Stack Value File (paper Section 3) — the primary contribution.

The SVF is a non-architected register file holding the quad-words of
stack memory nearest the top of stack.  It is a circular buffer indexed
by low-order address bits covering the single contiguous address window
``[TOS, TOS + capacity)``; because the window is contiguous it needs no
per-line tags, only a bounds check (plus one page tag per spanned page,
which we track for area accounting only).

Per-quad-word **valid** and **dirty** bits exploit stack semantics
(Section 3.3):

* growing the stack (``$sp`` decreases) exposes *uninitialized* words
  at the bottom of the window — they are marked invalid and never read
  from the cache (a conventional cache must fill the line on a write
  miss);
* shrinking the stack (``$sp`` increases) *kills* the words between
  the old and new TOS — they are dropped without writeback, even when
  dirty (a conventional cache must write the dirty line back);
* words that slide off the *top* of the window while still live are
  written back only if dirty, at 8-byte granularity.

The class is a pure state machine: it counts quad-word traffic in/out
(the paper's Table 3 metric) and reports hit/fill behaviour so the
timing model in :mod:`repro.uarch.pipeline` can attach latencies.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional


@dataclass(frozen=True)
class SVFAccess:
    """Outcome of one reference presented to the SVF."""

    #: the address fell inside the covered window
    in_range: bool
    #: the word was valid (no demand fill needed)
    hit: bool = False
    #: quad-words read from the L1 to satisfy this access
    filled: int = 0


#: Shared outcomes: the immutable results ``access`` returns instead of
#: building a new instance per reference (fills are per-file, below).
_OUT_OF_RANGE = SVFAccess(in_range=False)
_HIT = SVFAccess(in_range=True, hit=True)


def check_geometry(capacity_bytes: int, granularity: int) -> None:
    """Raise ``ValueError`` unless an SVF can have this geometry.

    Granules are found by masking low address bits, so the granularity
    must be a power of two (and at least one 8-byte word).
    """
    if granularity < StackValueFile.WORD or granularity & (granularity - 1):
        raise ValueError(
            f"granularity must be a power of two of at least 8 bytes, "
            f"not {granularity}"
        )
    if capacity_bytes <= 0 or capacity_bytes % granularity:
        raise ValueError(
            f"capacity must be a positive multiple of the granularity "
            f"({granularity}), not {capacity_bytes}"
        )


class StackValueFile:
    """Circular-buffer stack value file with per-word valid/dirty bits.

    ``granularity`` is the size in bytes tracked by one valid/dirty
    bit pair.  The paper (Section 3.3) argues 64 bits (8 bytes, the
    Alpha's natural data size) is the right choice and that coarser
    granularity increases memory traffic — which the granularity
    ablation benchmark demonstrates.
    """

    WORD = 8

    def __init__(
        self,
        capacity_bytes: int = 8192,
        page_size: int = 4096,
        granularity: int = 8,
    ):
        check_geometry(capacity_bytes, granularity)
        self.granularity = granularity
        self.capacity = capacity_bytes
        self._granule_mask = ~(granularity - 1)
        self._words_per_granule = granularity // self.WORD
        self._fill = SVFAccess(
            in_range=True, hit=False, filled=self._words_per_granule
        )
        self.page_size = page_size
        #: optional callable(addr) invoked for every granule written
        #: back to the L1 (lets a timing model install the line there)
        self.writeback_sink = None
        #: current TOS; None until the first $sp value is observed
        self.tos: Optional[int] = None
        #: covered quad-word address -> dirty flag (absent = invalid)
        self._words: Dict[int, bool] = {}
        #: granule addresses exposed by a TOS decrease and not yet
        #: validated — "freshly allocated" stack whose fill the valid
        #: bits can skip.  Granules re-entering after an eviction or a
        #: shrink are *not* fresh: their memory image is live.
        self._fresh: set = set()
        # Traffic counters (quad-words between the SVF and the L1).
        self.qw_in = 0
        self.qw_out = 0
        # Behaviour counters.
        self.hits = 0
        self.fills = 0
        self.out_of_range = 0
        self.killed_words = 0
        self.context_switches = 0
        #: full-granule stores that validated a *fresh* granule — the
        #: fill reads a conventional write-allocate cache would have
        #: issued for newly allocated frame words (checked against the
        #: static per-function bounds of repro.analysis.predict).
        self.fills_avoided = 0
        #: subset of killed_words that were dirty — the writebacks the
        #: kill actually elided (Table 3's traffic win at frame death).
        self.killed_dirty_words = 0

    # -- geometry ------------------------------------------------------------

    @property
    def num_entries(self) -> int:
        """Number of 64-bit registers in the file."""
        return self.capacity // self.WORD

    @property
    def num_page_tags(self) -> int:
        """Page tags needed to cover the window (paper: 8 KB -> 3 tags)."""
        return self.capacity // self.page_size + 1

    def covers(self, addr: int) -> bool:
        """Bounds check: is ``addr`` inside the covered window?"""
        if self.tos is None:
            return False
        return self.tos <= addr < self.tos + self.capacity

    # -- stack-pointer tracking ------------------------------------------------

    def update_sp(self, new_sp: int) -> int:
        """Slide the window to a new TOS; returns quad-words written back.

        Growing (``new_sp < tos``): live words fall off the *top* of
        the window — dirty ones are written back.  The newly exposed
        words at the bottom are uninitialized and enter invalid.

        Shrinking (``new_sp > tos``): words between old and new TOS are
        dead — dropped with no writeback.  Words entering at the top
        are live but unknown — they enter invalid and fill on demand.
        """
        old = self.tos
        if old is None:
            self.tos = new_sp
            return 0
        if new_sp == old:
            return 0
        capacity = self.capacity
        written = 0
        if new_sp < old:
            # Stack grows: window slides down; top range leaves coverage.
            written = self._evict_range(new_sp + capacity, old + capacity, True)
            # Words entering at the bottom are freshly allocated frame
            # space: invalid, and a full-granule store may validate
            # them without any fill.
            fresh_hi = min(old, new_sp + capacity)
            self._fresh.update(
                range(new_sp & self._granule_mask, fresh_hi, self.granularity)
            )
        else:
            # Stack shrinks: words between old and new TOS die.
            self._evict_range(old, min(new_sp, old + capacity), False)
        self.tos = new_sp
        return written

    def _evict_range(self, lo: int, hi: int, writeback: bool) -> int:
        """Drop coverage of [lo, hi); returns quad-words written back.

        Granules straddling the range edge are evicted whole — with
        coarse granularity this is one source of the extra traffic the
        paper warns about.  ``writeback_sink`` sees the dirty granules
        in ascending address order when the range is the smaller side,
        else in ``_words`` insertion order.
        """
        if hi <= lo:
            return 0
        granularity = self.granularity
        words = self._words
        span_granules = (hi - lo) // granularity + 2
        # Granule addresses are aligned, so the aligned values in
        # (lo - granularity, hi) are exactly range(start, hi, granularity).
        start = lo & ~(granularity - 1)
        if span_granules < len(words):
            addresses = list(
                filter(words.__contains__, range(start, hi, granularity))
            )
        else:
            addresses = list(filter(range(start, hi).__contains__, words))
        pop = words.pop
        sink = self.writeback_sink
        if writeback and sink is not None:
            dirty = 0
            for addr in addresses:
                if pop(addr):
                    dirty += 1
                    sink(addr)
        else:
            dirty = sum(map(pop, addresses))
        # Granules leaving coverage (either edge) are no longer fresh.
        fresh = self._fresh
        if len(fresh) > span_granules:
            fresh.difference_update(range(start, hi, granularity))
        elif fresh:
            fresh.difference_update(
                list(filter(range(start, hi).__contains__, fresh))
            )
        words_per_granule = self._words_per_granule
        if not writeback:
            self.killed_words += len(addresses) * words_per_granule
            self.killed_dirty_words += dirty * words_per_granule
            return 0
        written = dirty * words_per_granule
        self.qw_out += written
        return written

    # -- data access -----------------------------------------------------------

    def access(self, addr: int, size: int, is_store: bool) -> SVFAccess:
        """Present one stack reference; updates state and traffic."""
        tos = self.tos
        if tos is None or not tos <= addr < tos + self.capacity:
            self.out_of_range += 1
            return _OUT_OF_RANGE
        granule = addr & self._granule_mask
        words = self._words
        if granule in words:
            if is_store:
                words[granule] = True
            self.hits += 1
            return _HIT
        fresh = self._fresh
        if is_store:
            words[granule] = True
            if size < self.granularity:
                # Sub-granule store to an invalid granule: read-merge
                # fill (never happens at the natural 8-byte/quad-word
                # granularity for quad-word stores).
                fresh.discard(granule)
                return self._filled()
            if granule in fresh:
                # Full-granule store validating freshly allocated stack
                # without any fill: the win the valid bits exist for.
                self.fills_avoided += 1
                fresh.remove(granule)
            self.hits += 1
            return _HIT
        words[granule] = False
        fresh.discard(granule)
        return self._filled()

    def _filled(self) -> SVFAccess:
        self.qw_in += self._words_per_granule
        self.fills += 1
        return self._fill

    # -- context switches -------------------------------------------------------

    def context_switch(self) -> int:
        """Flush for a context switch; returns bytes written back.

        Only valid *and* dirty words are written, at 64-bit granularity
        — the paper's Table 4 metric.  All words are invalidated.
        """
        self.context_switches += 1
        sink = self.writeback_sink
        if sink is None:
            dirty = sum(self._words.values())
        else:
            dirty = 0
            for addr, is_dirty in self._words.items():
                if is_dirty:
                    dirty += 1
                    sink(addr)
        self._words.clear()
        self._fresh.clear()
        self.qw_out += dirty * self._words_per_granule
        return dirty * self.granularity

    # -- introspection -----------------------------------------------------------

    @property
    def valid_words(self) -> int:
        return len(self._words) * (self.granularity // self.WORD)

    @property
    def dirty_words(self) -> int:
        return sum(
            1 for is_dirty in self._words.values() if is_dirty
        ) * (self.granularity // self.WORD)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        tos = f"0x{self.tos:x}" if self.tos is not None else "unset"
        return (
            f"<StackValueFile {self.capacity}B tos={tos} "
            f"valid={self.valid_words} dirty={self.dirty_words}>"
        )
