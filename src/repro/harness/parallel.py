"""Parallel experiment engine: picklable task cells over a process pool.

The report/prediction sweeps decompose into independent
(benchmark × experiment × window) :class:`TaskCell` units.  The engine
fans cells out over a ``ProcessPoolExecutor`` (``jobs`` workers,
default ``os.cpu_count()``), then the caller merges the picklable
payloads back **in suite order**, so the rendered document is
byte-identical to a serial (``jobs=1``) run — worker scheduling can
reorder execution but never the merge.

Failure semantics: a cell that raises inside a worker is retried once
(``EngineOptions.retries``); a cell that exhausts its retries or its
per-cell timeout degrades to a :class:`CellOutcome` with ``error`` set,
which the report renders as an annotated gap instead of crashing the
whole sweep.  ``task_timeout`` is a **per-attempt deadline measured
from submission**: each worker slot is a single-process executor, so
a submitted cell starts immediately and the deadline bounds its real
runtime; a cell that blows its deadline (or whose worker dies) has
its worker killed and replaced, so one hung cell can never hold a
pool slot hostage, and ``elapsed`` always reports real wall time.
``EngineOptions.fault_plan`` installs a :mod:`repro.harness.chaos`
fault plan in every worker, which is how the chaos harness proves all
of the above deterministically.

The engine is backed by :class:`TraceCache`, a shared on-disk
compile/trace cache keyed by (benchmark, input, opt level, window) and
versioned by :data:`repro.api.SCHEMA_VERSION`: worker processes and
repeated invocations reuse each functional trace instead of
re-emulating it.  The cache installs itself as the second level behind
the per-process cache of :func:`repro.workloads.cached_trace`, and it
also memoizes finished cell payloads, so a warm re-run skips the
timing model as well.
"""

from __future__ import annotations

import hashlib
import os
import pickle
import tempfile
import time
from collections import deque
from concurrent.futures import FIRST_COMPLETED, ProcessPoolExecutor, wait
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional, Sequence, Set, Tuple

from repro import profiling
from repro.harness import chaos
from repro.trace.columnar import SharedColumnarTrace
from repro.trace.serialization import (
    TraceFormatError,
    load_trace,
    pack_shared,
    shared_payload_size,
    write_trace,
)
from repro.workloads import (
    get_disk_trace_cache,
    input_names,
    set_disk_trace_cache,
    set_shm_trace_cache,
    workload,
)

try:  # unavailable on exotic platforms; the engine degrades to pickle
    from multiprocessing import shared_memory as _shared_memory
except ImportError:  # pragma: no cover - all CI hosts have it
    _shared_memory = None


# ---------------------------------------------------------------------------
# Shared on-disk trace cache
# ---------------------------------------------------------------------------


def default_cache_dir() -> str:
    """``$XDG_CACHE_HOME``/repro-svf (or ~/.cache/repro-svf)."""
    base = os.environ.get("XDG_CACHE_HOME") or os.path.join(
        os.path.expanduser("~"), ".cache"
    )
    return os.path.join(base, "repro-svf")


@dataclass
class CacheStats:
    """Per-namespace cache traffic.

    ``hits``/``misses``/``stores`` count functional-trace operations
    (the historical meaning); cell payloads and report sections have
    their own counters so ``--profile`` can attribute a warm run to
    the level that actually absorbed it.

    ``corrupt_dropped`` and ``transient_errors`` split the two ways a
    read can go wrong, across all namespaces: a **corrupt** entry
    (truncated/bit-flipped payload) is unlinked so it can never be
    served, while a **transient** I/O error (EINTR, a permission blip,
    a reader racing a writer) leaves the entry on disk — it may be
    perfectly valid for the next reader.  Both degrade to a miss.
    ``write_errors`` counts writes that failed and were skipped (a
    read-only or full disk, an unpicklable payload): the value is
    simply not cached.
    """

    hits: int = 0
    misses: int = 0
    stores: int = 0
    cell_hits: int = 0
    cell_misses: int = 0
    cell_stores: int = 0
    section_hits: int = 0
    section_misses: int = 0
    section_stores: int = 0
    corrupt_dropped: int = 0
    transient_errors: int = 0
    write_errors: int = 0


#: distinguishes "entry absent" from a legitimately-None payload.
_MISS = object()


def _escape_key_part(value: Any) -> str:
    """Escape the structural separators of cell-cache file names.

    Cell keys join parts with ``.`` and bind names to values with
    ``-``; a param value containing either (a float machine field, a
    dotted label) could otherwise make two distinct cells share one
    path and serve each other's payloads.  Escaping only the three
    special characters keeps every existing key for plain values
    byte-identical, so warm caches stay warm.
    """
    return (
        str(value)
        .replace("%", "%25")
        .replace(".", "%2E")
        .replace("-", "%2D")
    )


class TraceCache:
    """On-disk store under ``<root>/v<SCHEMA_VERSION>/``, two namespaces:

    * functional traces, one ``.trace.bin`` file per (benchmark,
      input, opt level, window) key in the columnar binary format of
      :mod:`repro.trace.serialization` — shared by every section that
      replays the same trace, and loaded straight into the packed
      columns the hot loops consume (no per-record unpickling);
    * finished cell payloads (pickled) under ``cells/`` — a warm
      report skips the timing model entirely, not just emulation;
    * rendered report sections (pickled) under ``sections/``, keyed by
      a content digest of everything that feeds the section (see
      :func:`repro.harness.runall.section_content_key`) — the
      ``--incremental`` report mode reuses these without touching the
      cells at all.

    Writes are atomic (temp file + ``os.replace``) so concurrent
    workers can race on the same key safely — worst case both compute
    and one wins.  A corrupt or truncated entry is dropped and treated
    as a miss.  Invalidation is by schema version only: the directory
    name pins ``SCHEMA_VERSION``, which any payload- or
    trace-affecting change must bump (the columnar format itself
    bumped it to 2, so stale pickled caches are simply never seen).
    """

    def __init__(self, root: str):
        # Imported lazily: repro.api imports the harness package, so a
        # module-level import here would be circular.
        from repro.api import SCHEMA_VERSION

        self.root = Path(root) / f"v{SCHEMA_VERSION}"
        self.root.mkdir(parents=True, exist_ok=True)
        self.cells_root = self.root / "cells"
        self.sections_root = self.root / "sections"
        self.stats = CacheStats()

    def path_for(self, key) -> Path:
        benchmark, input_name, opt_level, window = key
        window_tag = "full" if window is None else str(window)
        return self.root / (
            f"{benchmark}.{input_name}.O{opt_level}.w{window_tag}.trace.bin"
        )

    def cell_path_for(self, cell: "TaskCell") -> Path:
        window_tag = "full" if cell.window is None else str(cell.window)
        parts = [cell.section, cell.benchmark, f"w{window_tag}"]
        parts += [
            f"{_escape_key_part(name)}-{_escape_key_part(value)}"
            for name, value in cell.params
        ]
        return self.cells_root / (".".join(parts) + ".cell.pkl")

    def _read(self, path: Path, kind: str) -> Any:
        try:
            blob = path.read_bytes()
        except FileNotFoundError:
            self._bump(kind, "misses")
            return _MISS
        except OSError:
            # Transient I/O error (EINTR, permission blip, reader
            # racing a writer): the entry may be perfectly valid, so
            # it must survive for the next reader.
            self.stats.transient_errors += 1
            self._bump(kind, "misses")
            return _MISS
        try:
            # The digest prefix catches what unpickling alone cannot:
            # a flipped bit inside a pickled str/int often still
            # unpickles — to the wrong value.
            digest, payload = blob[:32], blob[32:]
            if hashlib.sha256(payload).digest() != digest:
                raise ValueError("cache entry digest mismatch")
            value = pickle.loads(payload)
        except Exception:
            # Genuine corruption (truncated/bit-flipped payload): drop
            # the entry so it can never be served.
            self.stats.corrupt_dropped += 1
            try:
                path.unlink()
            except OSError:
                pass
            self._bump(kind, "misses")
            return _MISS
        self._bump(kind, "hits")
        return value

    def _write(self, path: Path, value: Any, kind: str) -> None:
        def write(handle) -> None:
            blob = pickle.dumps(value, protocol=pickle.HIGHEST_PROTOCOL)
            handle.write(hashlib.sha256(blob).digest())
            handle.write(blob)

        if self._write_atomically(path, write):
            self._bump(kind, "stores")

    def _write_atomically(self, path: Path, write) -> bool:
        """Temp file + ``os.replace``; False (and counted) on failure.

        Every disk call is inside the ``try``: a disk that turns
        read-only or full after :func:`usable_cache_dir` probed it
        costs the entry, never the cell.
        """
        temp_path = None
        try:
            path.parent.mkdir(parents=True, exist_ok=True)
            descriptor, temp_path = tempfile.mkstemp(
                dir=str(path.parent), suffix=".tmp"
            )
            with os.fdopen(descriptor, "wb") as handle:
                write(handle)
            os.replace(temp_path, path)
        except Exception:
            self.stats.write_errors += 1
            if temp_path is not None:
                try:
                    os.unlink(temp_path)
                except OSError:
                    pass
            return False
        return True

    def _bump(self, kind: str, event: str) -> None:
        setattr(
            self.stats,
            f"{kind}_{event}",
            getattr(self.stats, f"{kind}_{event}") + 1,
        )

    def load(self, key):
        """Columnar trace for ``key``, or None on miss/corruption."""
        path = self.path_for(key)
        try:
            trace = load_trace(str(path))
        except FileNotFoundError:
            self.stats.misses += 1
            return None
        except (TraceFormatError, ValueError):
            # Corrupt format: unlink so the entry is never served.
            self.stats.corrupt_dropped += 1
            try:
                path.unlink()
            except OSError:
                pass
            self.stats.misses += 1
            return None
        except OSError:
            # Transient I/O error: a valid entry must not be lost.
            self.stats.transient_errors += 1
            self.stats.misses += 1
            return None
        self.stats.hits += 1
        return trace

    def store(self, key, trace) -> None:
        """Atomically persist a trace in the columnar binary format."""
        if self._write_atomically(
            self.path_for(key), lambda handle: write_trace(handle, trace)
        ):
            self.stats.stores += 1

    def load_cell(self, cell: "TaskCell") -> Any:
        """Finished payload for ``cell``, or the ``_MISS`` sentinel."""
        return self._read(self.cell_path_for(cell), "cell")

    def store_cell(self, cell: "TaskCell", payload: Any) -> None:
        self._write(self.cell_path_for(cell), payload, "cell")

    def section_path_for(self, section: str, key: str) -> Path:
        return self.sections_root / f"{section}.{key}.section.pkl"

    def load_section(self, section: str, key: str) -> Any:
        """Rendered payload for a section content key, or ``_MISS``.

        The content key bakes in every input of the section (workload
        sources, compile options, machine specs, windows, analysis
        version), so a stale entry is simply never addressed — there
        is no in-place invalidation to get wrong.
        """
        return self._read(self.section_path_for(section, key), "section")

    def store_section(self, section: str, key: str, payload: Any) -> None:
        self._write(self.section_path_for(section, key), payload, "section")


def usable_cache_dir(
    cache_dir: Optional[str],
    note: Callable[[str], None],
    profiler: Optional[profiling.PhaseProfiler] = None,
) -> Optional[str]:
    """``cache_dir`` if its cache root can be created, else ``None``.

    Probed before any cell runs.  An unusable root (a regular file in
    the way, a read-only or full disk) degrades the run to uncached
    with one warning and one ``cache_disabled`` count.
    """
    if not cache_dir:
        return None
    try:
        TraceCache(cache_dir)
    except OSError as exc:
        note(f"warning: cache disabled, cannot use {cache_dir}: {exc}")
        if profiler is not None:
            profiler.count("cache_disabled")
        return None
    return cache_dir


# ---------------------------------------------------------------------------
# Shared-memory trace fan-out
# ---------------------------------------------------------------------------

#: where POSIX shared memory shows up as files (Linux); the prefix
#: sweep and the chaos leak check both scan it.
_SHM_DIR = Path("/dev/shm")


def shm_available() -> bool:
    """True when the shared-memory fan-out path can work on this host.

    Needs :mod:`multiprocessing.shared_memory` *and* a scannable
    ``/dev/shm`` — the engine guarantees cleanup by sweeping its
    run-scoped name prefix, which requires segments to be enumerable.
    Anything else falls back to the pickle/disk path.
    """
    return _shared_memory is not None and _SHM_DIR.is_dir()


def _untrack_shm(segment) -> None:
    """Opt this process's resource tracker out of managing ``segment``.

    Every worker maps the same segments; the default per-process
    tracker would unlink them when the first worker exits (and warn
    about double unlinks).  Ownership belongs to the engine run: the
    parent's prefix sweep in :func:`run_cells` is the only unlink.
    """
    try:
        from multiprocessing import resource_tracker

        resource_tracker.unregister(segment._name, "shared_memory")
    except Exception:  # pragma: no cover - tracker layout changed
        pass


class ShmTraceCache:
    """Zero-copy trace fan-out over ``multiprocessing.shared_memory``.

    The first worker to materialize a functional trace (from the
    emulator or the disk cache) *publishes* the packed columns into a
    named segment; every other worker *attaches* a read-only
    :class:`~repro.trace.columnar.SharedColumnarTrace` view in O(1),
    so fan-out cost stops scaling with trace size.  Segment names are
    a pure function of (run prefix, trace key), so workers need no
    coordination channel; the payload's commit-record magic (see
    ``repro.trace.serialization.pack_shared``) makes a segment left
    torn by a killed worker read as a miss, never as a wrong trace.

    Registered in workers via ``repro.workloads.set_shm_trace_cache``;
    the engine's parent process sweeps ``/dev/shm`` for the run prefix
    when the run ends, so no segment outlives :func:`run_cells`.
    """

    def __init__(self, prefix: str):
        self.prefix = prefix
        self.attaches = 0
        self.publishes = 0
        self.fanout_bytes = 0

    def segment_name(self, key) -> str:
        import hashlib

        digest = hashlib.sha1(repr(key).encode()).hexdigest()[:16]
        return f"{self.prefix}{digest}"

    def load(self, key) -> Optional[SharedColumnarTrace]:
        """Attach the published trace for ``key``, or None on miss."""
        if _shared_memory is None:
            return None
        try:
            segment = _shared_memory.SharedMemory(
                name=self.segment_name(key), create=False
            )
        except (FileNotFoundError, OSError, ValueError):
            return None
        _untrack_shm(segment)
        trace = SharedColumnarTrace.from_buffer(segment.buf, owner=segment)
        if trace is None:
            # Uncommitted payload (writer raced or was killed mid-pack).
            segment.close()
            return None
        self.attaches += 1
        self.fanout_bytes += trace.nbytes
        profiler = profiling.active()
        if profiler is not None:
            profiler.count("shm_trace_attaches")
            profiler.count("shm_fanout_bytes", trace.nbytes)
        return trace

    def publish(self, key, trace) -> None:
        """Export a trace for the other workers; never raises."""
        if _shared_memory is None or isinstance(trace, SharedColumnarTrace):
            return
        size = shared_payload_size(len(trace))
        try:
            segment = _shared_memory.SharedMemory(
                name=self.segment_name(key), create=True, size=size
            )
        except FileExistsError:
            return  # another worker won the race; its copy is identical
        except (OSError, ValueError):
            return  # /dev/shm full or unusable: pickle path still works
        _untrack_shm(segment)
        try:
            pack_shared(segment.buf, trace)
        finally:
            segment.close()
        self.publishes += 1
        profiler = profiling.active()
        if profiler is not None:
            profiler.count("shm_trace_publishes")


def sweep_shm_segments(prefix: str) -> List[Tuple[str, int]]:
    """Unlink every segment with ``prefix``; returns (name, bytes)."""
    removed: List[Tuple[str, int]] = []
    if not prefix or not shm_available():
        return removed
    for path in _SHM_DIR.glob(prefix + "*"):
        try:
            size = path.stat().st_size
            path.unlink()
        except OSError:
            continue
        removed.append((path.name, size))
    return removed


def leaked_shm_segments(prefix: str) -> List[str]:
    """Segments with ``prefix`` still present (chaos leak check)."""
    if not prefix or not shm_available():
        return []
    return sorted(path.name for path in _SHM_DIR.glob(prefix + "*"))


# ---------------------------------------------------------------------------
# Task cells
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class TaskCell:
    """One picklable unit of sweep work: section × benchmark × window."""

    section: str
    benchmark: str
    window: Optional[int]
    #: extra hashable keyword parameters, e.g. (("period", 3200),)
    params: Tuple[Tuple[str, Any], ...] = ()

    @property
    def label(self) -> str:
        return f"{self.section}×{self.benchmark}"

    def param(self, name: str, default: Any = None) -> Any:
        return dict(self.params).get(name, default)


def _cell_characterize(cell: TaskCell) -> Dict[str, Any]:
    from repro.harness.experiments import characterize

    result = characterize([cell.benchmark], max_instructions=cell.window)
    name = cell.benchmark
    return {
        "distribution": result.distributions[name],
        "depth": result.depth_profiles[name],
        "locality": result.localities[name],
        "first_touch": result.first_touch[name],
    }


def _cell_fig5(cell: TaskCell) -> Dict[str, float]:
    from repro.harness.experiments import fig5_ideal_morphing

    result = fig5_ideal_morphing([cell.benchmark], max_instructions=cell.window)
    return result.speedups[cell.benchmark]


def _cell_fig6(cell: TaskCell) -> Dict[str, float]:
    from repro.harness.experiments import fig6_progressive

    result = fig6_progressive([cell.benchmark], max_instructions=cell.window)
    return result.speedups[cell.benchmark]


def _cell_fig7(cell: TaskCell) -> Dict[str, Any]:
    from repro.harness.experiments import fig7_svf_vs_stack_cache

    result = fig7_svf_vs_stack_cache(
        [cell.benchmark], max_instructions=cell.window
    )
    return {
        "speedups": result.speedups[cell.benchmark],
        "svf_stats": result.svf_stats[cell.benchmark],
    }


def _cell_fig9(cell: TaskCell) -> Dict[str, float]:
    from repro.harness.experiments import fig9_svf_speedup

    result = fig9_svf_speedup([cell.benchmark], max_instructions=cell.window)
    return result.speedups[cell.benchmark]


def _cell_table3(cell: TaskCell) -> Dict[str, Dict[int, Any]]:
    from repro.harness.experiments import table3_memory_traffic

    inputs = [
        workload(cell.benchmark, input_name)
        for input_name in input_names(cell.benchmark)
    ]
    result = table3_memory_traffic(
        max_instructions=cell.window, inputs=inputs
    )
    return result.traffic


def _cell_table4(cell: TaskCell) -> Tuple[float, float]:
    from repro.harness.experiments import table4_context_switch

    result = table4_context_switch(
        [cell.benchmark],
        max_instructions=cell.window,
        period=cell.param("period", 25_000),
    )
    return result.rows[cell.benchmark]


def _cell_prediction(cell: TaskCell):
    from repro.harness.prediction import check_workload

    return check_workload(
        cell.benchmark,
        max_instructions=cell.window,
        capacity_bytes=cell.param("capacity_bytes", 8192),
    )


def _cell_lint(cell: TaskCell):
    from repro.analysis.lint import lint_workload
    from repro.lang.codegen import CodegenOptions

    options = None
    opt_level = cell.param("opt_level")
    if opt_level is not None:
        options = CodegenOptions(opt_level=opt_level)
    return lint_workload(cell.benchmark, options=options)


def _cell_sweep(cell: TaskCell):
    """One declarative-sweep run-table row (see repro.harness.sweep)."""
    from repro.harness.sweep import run_sweep_cell

    return run_sweep_cell(cell)


def _cell_sweep_batch(cell: TaskCell):
    """One fused group of timing sweep rows (see repro.harness.sweep)."""
    from repro.harness.sweep import run_sweep_batch_cell

    return run_sweep_batch_cell(cell)


_CELL_RUNNERS: Dict[str, Callable[[TaskCell], Any]] = {
    "characterize": _cell_characterize,
    "lint": _cell_lint,
    "sweep": _cell_sweep,
    "sweep-batch": _cell_sweep_batch,
    "fig5": _cell_fig5,
    "fig6": _cell_fig6,
    "fig7": _cell_fig7,
    "fig9": _cell_fig9,
    "table3": _cell_table3,
    "table4": _cell_table4,
    "prediction": _cell_prediction,
}

#: Sections whose runners manage the cell cache themselves, per
#: member: a fused cell's identity enumerates every member, so an
#: engine-level entry would duplicate the members' entries under an
#: unbounded key (and defeat per-member warm resume).  The engine
#: skips its own load/store for these and lets the runner count the
#: per-member hits and misses.
_SELF_CACHING_SECTIONS = frozenset({"sweep-batch"})


def _execute_cell(
    cell: TaskCell,
) -> Tuple[str, Any, float, profiling.Snapshot]:
    """Worker entry: never raises — failures travel back as payloads.

    Each cell runs under its own phase profiler (saved/restored, so
    inline runs nest inside any caller-scoped profiler) and ships the
    picklable snapshot back as the fourth tuple element; a cache hit
    ships no phases (none ran), only the hit counter, so warm-run
    breakdowns explain themselves without inventing wall time.
    """
    started = time.perf_counter()
    profiler = profiling.PhaseProfiler()
    previous = profiling.swap(profiler)
    cache = get_disk_trace_cache()
    corrupt_before = cache.stats.corrupt_dropped if cache is not None else 0
    transient_before = (
        cache.stats.transient_errors if cache is not None else 0
    )

    def _cache_health_counters() -> None:
        if cache is None:
            return
        profiler.count(
            "cache_corrupt_dropped",
            cache.stats.corrupt_dropped - corrupt_before,
        )
        profiler.count(
            "cache_transient_errors",
            cache.stats.transient_errors - transient_before,
        )

    try:
        # The chaos hook may sleep, raise, or SIGKILL this process —
        # after the profiler swap so fault counters ship back in the
        # snapshot, before the cache lookup so a killed cell's retry
        # exercises the full lookup-or-compute path.
        chaos.on_cell_start(cell)
        self_caching = cell.section in _SELF_CACHING_SECTIONS
        if cache is not None and not self_caching:
            payload = cache.load_cell(cell)
            if payload is not _MISS:
                profiler.count("cell_cache_hits")
                _cache_health_counters()
                return (
                    "ok",
                    payload,
                    time.perf_counter() - started,
                    profiler.snapshot(),
                )
            profiler.count("cell_cache_misses")
        runner = _CELL_RUNNERS.get(cell.section)
        if runner is None:
            raise KeyError(f"unknown cell section {cell.section!r}")
        trace_hits = cache.stats.hits if cache is not None else 0
        trace_misses = cache.stats.misses if cache is not None else 0
        payload = runner(cell)
        if cache is not None:
            if not self_caching:
                cache.store_cell(cell, payload)
            profiler.count("trace_cache_hits", cache.stats.hits - trace_hits)
            profiler.count(
                "trace_cache_misses", cache.stats.misses - trace_misses
            )
        _cache_health_counters()
        return (
            "ok",
            payload,
            time.perf_counter() - started,
            profiler.snapshot(),
        )
    except Exception as exc:
        message = f"{type(exc).__name__}: {exc}"
        _cache_health_counters()
        return (
            "error",
            message,
            time.perf_counter() - started,
            profiler.snapshot(),
        )
    finally:
        profiling.swap(previous)


def _init_worker(
    cache_dir: Optional[str],
    fault_plan: Optional[chaos.FaultPlan] = None,
    shm_prefix: Optional[str] = None,
) -> None:
    if cache_dir:
        set_disk_trace_cache(TraceCache(cache_dir))
    if shm_prefix:
        set_shm_trace_cache(ShmTraceCache(shm_prefix))
    if fault_plan is not None:
        # Real workers take real SIGKILLs — the engine must survive
        # losing the process, not a polite exception.
        chaos.install(fault_plan, simulate_kill=False)


# ---------------------------------------------------------------------------
# The engine
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class EngineOptions:
    """Scheduler knobs: parallelism, cache location, failure policy."""

    #: worker processes; None means ``os.cpu_count()``; 1 runs inline.
    jobs: Optional[int] = None
    #: on-disk trace cache root; None disables the disk level entirely.
    cache_dir: Optional[str] = None
    #: per-attempt deadline in seconds, measured from submission.
    task_timeout: float = 600.0
    #: extra attempts after the first failure/timeout of a cell.
    retries: int = 1
    #: deterministic fault plan installed in every worker (chaos runs).
    fault_plan: Optional[chaos.FaultPlan] = None
    #: fan traces out to workers over POSIX shared memory (zero-copy
    #: attach instead of per-worker disk reads); silently degrades to
    #: the pickle/disk path when the host has no usable /dev/shm.
    shared_memory: bool = True

    def effective_jobs(self) -> int:
        if self.jobs is None:
            return max(1, os.cpu_count() or 1)
        return max(1, self.jobs)


@dataclass
class EngineReport:
    """Post-run health facts the chaos invariant checker asserts on.

    Recorded by both the serial and the pool path after every
    :func:`run_cells` call (:func:`last_engine_report` returns the most
    recent one).  ``worker_pids`` is every worker process the run ever
    spawned — including ones that were killed and replaced — so "no
    orphan workers" is checkable from the outside without scanning the
    process table.
    """

    #: pid of every worker process spawned over the run's lifetime.
    worker_pids: Set[int] = field(default_factory=set)
    #: workers killed and replaced (timeout or broken process).
    recycled: int = 0
    #: attempts that blew their per-attempt deadline.
    timeouts: int = 0
    #: attempts lost to a dead worker (SIGKILL, crash).
    broken: int = 0
    #: run-scoped shared-memory segment name prefix (None = shm off).
    shm_prefix: Optional[str] = None
    #: segments the end-of-run sweep unlinked, and their total bytes.
    shm_segments: int = 0
    shm_bytes: int = 0


@dataclass
class CellOutcome:
    """What happened to one cell: payload on success, error on failure."""

    cell: TaskCell
    payload: Any = None
    error: Optional[str] = None
    elapsed: float = 0.0
    attempts: int = 1
    #: per-phase (calls, seconds, items) measured inside the worker;
    #: empty when the payload came from the cell cache.
    phases: profiling.Snapshot = None  # type: ignore[assignment]

    def __post_init__(self):
        if self.phases is None:
            self.phases = {}

    @property
    def ok(self) -> bool:
        return self.error is None


#: the :class:`EngineReport` of the most recent :func:`run_cells`.
_LAST_REPORT: Optional[EngineReport] = None


def last_engine_report() -> Optional[EngineReport]:
    """Health report of the most recent :func:`run_cells` call."""
    return _LAST_REPORT


def run_cells(
    cells: Sequence[TaskCell],
    options: EngineOptions = EngineOptions(),
    progress: Optional[Callable[[str], None]] = None,
) -> List[CellOutcome]:
    """Execute every cell; outcomes come back in the order given.

    ``jobs == 1`` (or a single cell) runs inline in this process —
    the exact code path the workers run, so parallel and serial sweeps
    produce identical payloads.
    """
    cells = list(cells)
    note = progress if progress is not None else (lambda message: None)
    if options.cache_dir and not usable_cache_dir(
        options.cache_dir, note, profiling.active()
    ):
        options = replace(options, cache_dir=None)
    if options.effective_jobs() == 1 or len(cells) <= 1:
        return _run_serial(cells, options, note)
    return _run_pool(cells, options, note)


def _note_outcome(
    note: Callable[[str], None], outcome: CellOutcome, done: int, total: int
) -> None:
    status = "ok" if outcome.ok else f"FAILED ({outcome.error})"
    retried = f", attempt {outcome.attempts}" if outcome.attempts > 1 else ""
    note(
        f"[{done}/{total}] {outcome.cell.label} {status} "
        f"({outcome.elapsed:.1f}s{retried})"
    )


def _run_serial(
    cells: List[TaskCell],
    options: EngineOptions,
    note: Callable[[str], None],
) -> List[CellOutcome]:
    global _LAST_REPORT
    previous_cache = get_disk_trace_cache()
    if options.cache_dir:
        set_disk_trace_cache(TraceCache(options.cache_dir))
    previous_plan = None
    if options.fault_plan is not None:
        # Inline runs can't SIGKILL the caller's own process, so
        # ``kill`` faults surface as a ChaosKill error and ride the
        # same retry path a dead worker does.
        previous_plan = chaos.install(options.fault_plan,
                                      simulate_kill=True)
    try:
        outcomes = []
        for index, cell in enumerate(cells):
            attempts = 0
            while True:
                attempts += 1
                status, payload, elapsed, phases = _execute_cell(cell)
                if status == "ok" or attempts > options.retries:
                    break
                note(f"retrying {cell.label} ({payload})")
            outcome = CellOutcome(
                cell=cell,
                payload=payload if status == "ok" else None,
                error=None if status == "ok" else str(payload),
                elapsed=elapsed,
                attempts=attempts,
                phases=phases,
            )
            outcomes.append(outcome)
            _note_outcome(note, outcome, index + 1, len(cells))
        _LAST_REPORT = EngineReport()
        return outcomes
    finally:
        if options.cache_dir:
            set_disk_trace_cache(previous_cache)
        if options.fault_plan is not None:
            chaos.install(previous_plan)


class _WorkerSlot:
    """One pool slot: a single-process executor plus its in-flight cell.

    Each slot owns a one-worker ``ProcessPoolExecutor``, so a submitted
    cell starts immediately and the per-attempt deadline measured from
    submission bounds the cell's *real* runtime — a shared executor
    would start queued cells whenever a worker freed up, making any
    submission-anchored deadline meaningless.  Killing a hung or dead
    worker breaks only this slot's executor; :meth:`recycle` replaces
    it and the rest of the pool never notices.
    """

    def __init__(
        self,
        options: EngineOptions,
        report: EngineReport,
        shm_prefix: Optional[str] = None,
    ):
        self._options = options
        self._report = report
        self._shm_prefix = shm_prefix
        self._executor: Optional[ProcessPoolExecutor] = None
        self.future = None
        self.index = -1
        self.attempt = 0
        self.started = 0.0
        self.deadline = float("inf")

    def submit(self, index: int, attempt: int, cell: TaskCell) -> None:
        if self._executor is None:
            self._executor = ProcessPoolExecutor(
                max_workers=1,
                initializer=_init_worker,
                initargs=(self._options.cache_dir,
                          self._options.fault_plan,
                          self._shm_prefix),
            )
        self.index = index
        self.attempt = attempt
        self.started = time.monotonic()
        self.deadline = self.started + self._options.task_timeout
        self.future = self._executor.submit(_execute_cell, cell)
        # Submission spawns the worker; record its pid so the chaos
        # checker can assert nothing outlives the run.
        for proc in list(self._executor._processes.values()):
            self._report.worker_pids.add(proc.pid)

    def recycle(self) -> None:
        """Kill this slot's worker, reap it, and drop the executor."""
        executor, self._executor = self._executor, None
        self.future = None
        self.deadline = float("inf")
        if executor is None:
            return
        processes = list(executor._processes.values())
        for proc in processes:
            proc.kill()
        for proc in processes:
            proc.join()
        executor.shutdown(wait=False, cancel_futures=True)
        self._report.recycled += 1

    def close(self) -> None:
        """Graceful shutdown of a healthy, idle slot."""
        executor, self._executor = self._executor, None
        if executor is not None:
            executor.shutdown(wait=True)


def _run_pool(
    cells: List[TaskCell],
    options: EngineOptions,
    note: Callable[[str], None],
) -> List[CellOutcome]:
    global _LAST_REPORT
    total = len(cells)
    outcomes: List[Optional[CellOutcome]] = [None] * total
    report = EngineReport()
    shm_prefix = None
    if options.shared_memory and shm_available():
        # Run-scoped prefix: workers derive segment names from it, and
        # the end-of-run sweep below unlinks exactly this namespace —
        # even segments published by a worker that was later SIGKILLed.
        shm_prefix = f"svf-{os.getpid()}-{os.urandom(4).hex()}-"
        report.shm_prefix = shm_prefix
    pending = deque((index, 1) for index in range(total))
    slots = [
        _WorkerSlot(options, report, shm_prefix)
        for _ in range(min(options.effective_jobs(), total))
    ]
    done = 0

    def finish(index: int, attempt: int, status: str, payload: Any,
               elapsed: float, phases: profiling.Snapshot) -> None:
        nonlocal done
        if status != "ok" and attempt <= options.retries:
            note(f"retrying {cells[index].label} ({payload})")
            pending.append((index, attempt + 1))
            return
        outcome = CellOutcome(
            cell=cells[index],
            payload=payload if status == "ok" else None,
            error=None if status == "ok" else str(payload),
            elapsed=elapsed,
            attempts=attempt,
            phases=phases,
        )
        outcomes[index] = outcome
        done += 1
        _note_outcome(note, outcome, done, total)

    try:
        while done < total:
            for slot in slots:
                if slot.future is None and pending:
                    index, attempt = pending.popleft()
                    try:
                        slot.submit(index, attempt, cells[index])
                    except Exception as exc:
                        finish(index, attempt, "error",
                               f"{type(exc).__name__}: {exc}", 0.0, {})
            busy = [slot for slot in slots if slot.future is not None]
            if not busy:
                continue
            slack = min(slot.deadline for slot in busy) - time.monotonic()
            completed, _ = wait(
                {slot.future for slot in busy},
                timeout=max(0.0, slack),
                return_when=FIRST_COMPLETED,
            )
            now = time.monotonic()
            for slot in busy:
                if slot.future in completed:
                    index, attempt = slot.index, slot.attempt
                    started, future = slot.started, slot.future
                    slot.future = None
                    slot.deadline = float("inf")
                    try:
                        status, payload, elapsed, phases = future.result()
                    except Exception as exc:
                        # The worker died mid-cell (SIGKILL, crash):
                        # the executor is broken, so replace it.
                        report.broken += 1
                        slot.recycle()
                        status = "error"
                        payload = (
                            f"worker died: {type(exc).__name__}: {exc}"
                        )
                        elapsed = now - started
                        phases = {}
                    finish(index, attempt, status, payload, elapsed,
                           phases)
                elif now >= slot.deadline:
                    index, attempt = slot.index, slot.attempt
                    elapsed = now - slot.started
                    report.timeouts += 1
                    slot.recycle()
                    finish(
                        index, attempt, "error",
                        f"timed out after {elapsed:.1f}s (deadline "
                        f"{options.task_timeout:.0f}s)",
                        elapsed, {},
                    )
    finally:
        for slot in slots:
            if slot.future is not None:
                # Interrupted mid-run: never leave a worker running.
                slot.recycle()
            else:
                slot.close()
        # Workers never unlink (they may not be last); the run owns the
        # namespace, so sweeping the prefix here is the single point of
        # cleanup and makes "no leaked segments" checkable afterwards.
        removed = sweep_shm_segments(shm_prefix) if shm_prefix else []
        report.shm_segments = len(removed)
        report.shm_bytes = sum(size for _, size in removed)
        _LAST_REPORT = report
    return outcomes  # type: ignore[return-value]


__all__ = [
    "CacheStats",
    "CellOutcome",
    "EngineOptions",
    "EngineReport",
    "ShmTraceCache",
    "TaskCell",
    "TraceCache",
    "default_cache_dir",
    "last_engine_report",
    "leaked_shm_segments",
    "run_cells",
    "shm_available",
    "sweep_shm_segments",
]
