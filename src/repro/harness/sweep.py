"""Declarative sweep engine: suite descriptors → run table.

``run_sweep`` expands a validated :class:`repro.sweepspec.SweepSpec`
into ``"sweep"``-section :class:`TaskCell` units — one per run-table
row — and fans them over the existing parallel engine
(:mod:`repro.harness.parallel`).  Because each cell's identity bakes
in every resolved machine field, the opt level, the window and the
repetition, finished cells land in the shared cell-payload cache: a
re-run of the same suite (or any suite that crosses the same design
points) skips straight to the cached metrics, which is what makes
sweeps resumable.

Determinism contract: the *run table* (``run_table_json``) and the
rendered summary depend only on the descriptor and the simulated
metrics — row order is the canonical expansion order, never worker
scheduling — so they are byte-identical across ``--jobs`` values and
across warm re-runs.  Provenance that legitimately varies between
runs (per-row cache hits, wall times, attempt counts, worker count)
is quarantined in the separate ``meta`` payload.

A cell that fails after its retry degrades to an annotated gap row —
``error`` set, ``metrics`` null — exactly like report sections do;
the sweep still completes and the summary names every degraded row.
"""

from __future__ import annotations

import json
import os
import time
from dataclasses import dataclass
from pathlib import Path
from typing import (
    Any,
    Callable,
    Dict,
    List,
    Mapping,
    Optional,
    Sequence,
    Tuple,
)

from repro.errors import UsageError
from repro.harness import chaos
from repro.harness.parallel import (
    CellOutcome,
    EngineOptions,
    TaskCell,
    run_cells,
)
from repro.harness.report import percent, render_table
from repro.sweepspec import SweepPoint, SweepSpec

#: Metric columns per sweep kind, in run-table column order.
TIMING_METRICS = (
    "instructions", "baseline_cycles", "cycles", "baseline_ipc", "ipc",
    "speedup", "svf_morphed", "svf_rerouted", "svf_fills",
    "svf_squashes", "svf_disables",
)
TRAFFIC_METRICS = ("qw_in", "qw_out", "qw_total")


def metric_names(kind: str) -> Tuple[str, ...]:
    """The fixed metric column set of one sweep kind."""
    return TIMING_METRICS if kind == "timing" else TRAFFIC_METRICS


# ---------------------------------------------------------------------------
# Per-cell execution (runs inside engine workers)
# ---------------------------------------------------------------------------


def run_sweep_cell(cell: TaskCell) -> Dict[str, Any]:
    """Compute one run-table row's metrics (the ``"sweep"`` runner).

    The cell's params carry the sweep kind, the opt level, the
    repetition and every resolved MachineSpec field; the benchmark and
    window live on the cell itself.  Returns a plain metrics dict —
    picklable, cacheable, and deterministic for a given identity.
    """
    from repro.lang.codegen import CodegenOptions
    from repro.workloads import cached_trace, workload

    params = dict(cell.params)
    kind = params.pop("kind")
    opt_level = params.pop("opt", 0)
    params.pop("rep", None)
    options = CodegenOptions(opt_level=opt_level)
    trace = cached_trace(
        workload(cell.benchmark), cell.window, options=options
    )
    if kind == "traffic":
        return _traffic_metrics(trace, params)
    return _timing_metrics(trace, params)


def _timing_metrics(trace, machine_fields: Mapping[str, Any]) -> Dict:
    """Simulate variant and svf-less baseline; report the comparison.

    The baseline is the same machine with the stack unit detached, so
    machine-level axes (width, AGU depth, ports) move both runs while
    ``svf_*`` axes move only the variant — the comparison every
    ablation in ``benchmarks/`` makes by hand.
    """
    from repro.uarch.pipeline import simulate

    baseline_config, config = _timing_config_pair(machine_fields)
    baseline = simulate(trace, baseline_config)
    run = simulate(trace, config)
    return _metrics_from_stats(baseline, run)


def _timing_config_pair(machine_fields: Mapping[str, Any]):
    """(svf-less baseline, variant) MachineConfigs for one row."""
    import dataclasses

    from repro.api import MachineSpec

    spec = MachineSpec(**dict(machine_fields))
    baseline_spec = dataclasses.replace(spec, svf_mode="none")
    return baseline_spec.config(), spec.config()


def _metrics_from_stats(baseline, run) -> Dict[str, Any]:
    """The run-table metrics dict for one (baseline, variant) pair.

    Shared verbatim between the per-cell and the batched runners so
    fused and unfused rows are byte-identical, rounding included.
    """
    return {
        "instructions": run.instructions,
        "baseline_cycles": baseline.cycles,
        "cycles": run.cycles,
        "baseline_ipc": round(baseline.ipc, 6),
        "ipc": round(run.ipc, 6),
        "speedup": round(run.speedup_over(baseline), 6),
        "svf_morphed": run.svf_morphed,
        "svf_rerouted": run.svf_rerouted,
        "svf_fills": run.svf_fills,
        "svf_squashes": run.svf_squashes,
        "svf_disables": int(run.extras.get("svf_disables", 0)),
    }


def _traffic_metrics(trace, machine_fields: Mapping[str, Any]) -> Dict:
    """Walk the trace through the traffic model; report SVF quad-words.

    Only the SVF counters are read.  The stack cache walked alongside
    gets granule-sized lines, because every capacity the SVF accepts
    is a multiple of its granule but not necessarily of a 32-byte line.
    """
    from repro.core.traffic import simulate_traffic

    granularity = machine_fields["svf_granularity"]
    result = simulate_traffic(
        trace,
        capacity_bytes=machine_fields["svf_capacity"],
        line_size=granularity,
        granularity=granularity,
    )
    return {
        "qw_in": result.svf_qw_in,
        "qw_out": result.svf_qw_out,
        "qw_total": result.svf_qw_in + result.svf_qw_out,
    }


def run_sweep_batch_cell(cell: TaskCell) -> Dict[Tuple, Dict[str, Any]]:
    """Compute one fused group of timing rows (``"sweep-batch"``).

    The cell's ``members`` param enumerates the params tuples of the
    plain ``"sweep"`` cells it fuses — all sharing this cell's
    (benchmark, window, opt, rep), differing only in machine fields.
    The runner attaches the trace once, loads warm members straight
    from the per-member cell cache (counting ``cell_cache_hits`` /
    ``cell_cache_misses`` exactly as the engine would), simulates all
    cold members' (baseline, variant) config pairs through one
    :func:`repro.uarch.pipeline.simulate_batch` pass, and stores each
    cold member's metrics back under its own cell key — so a fused
    group and its unfused members are interchangeable in the cache.

    Failures stay per-member: a member whose spec or simulation fails
    degrades to an error entry (same ``Type: message`` format the
    engine uses) without touching its group-mates; if the batched pass
    itself fails, cold members fall back to sequential per-member
    execution through the registered ``"sweep"`` runner.  That same
    registry lookup is the interposition seam: when the ``"sweep"``
    runner has been replaced (tests and tooling interpose on per-cell
    execution), every cold member runs through the replacement
    instead of the fused path.

    Returns ``{member_params: entry}`` where each entry carries
    ``ok``/``metrics``-or-``error`` plus ``cache_hit`` provenance;
    :func:`run_sweep` fans the entries back out to run-table rows.
    """
    from repro import profiling
    from repro.harness import parallel
    from repro.lang.codegen import CodegenOptions
    from repro.uarch.pipeline import simulate_batch
    from repro.workloads import cached_trace, get_disk_trace_cache, workload

    params = dict(cell.params)
    members: Sequence[Tuple] = params["members"]
    opt_level = params.get("opt", 0)
    member_cells = [
        TaskCell("sweep", cell.benchmark, cell.window, member)
        for member in members
    ]

    cache = get_disk_trace_cache()
    profiler = profiling.active()

    def _count(name: str, n: int = 1) -> None:
        if profiler is not None:
            profiler.count(name, n)

    entries: Dict[Tuple, Dict[str, Any]] = {}
    cold: List[TaskCell] = []
    for member in member_cells:
        if member.params in entries:
            continue
        # Mirror the engine's per-cell ordering: chaos hook first,
        # then the cache lookup, so a fused member behaves like the
        # plain cell it replaces.
        chaos.on_cell_start(member)
        payload = (
            cache.load_cell(member) if cache is not None
            else parallel._MISS
        )
        if payload is not parallel._MISS:
            _count("cell_cache_hits")
            entries[member.params] = {
                "ok": True, "metrics": payload, "cache_hit": True,
            }
        else:
            _count("cell_cache_misses")
            cold.append(member)

    if not cold:
        return entries

    # Mirror the engine's retry policy so a member that degrades here
    # reports the same attempt count (the summary annotates it) as the
    # plain cell it replaces.
    retries = parallel.EngineOptions().retries

    def _fail(member: TaskCell, exc: Exception, attempts: int) -> None:
        entries[member.params] = {
            "ok": False,
            "error": f"{type(exc).__name__}: {exc}",
            "cache_hit": False,
            "attempts": attempts,
        }

    def _done(
        member: TaskCell, metrics: Dict[str, Any], attempts: int = 1
    ) -> None:
        if cache is not None:
            cache.store_cell(member, metrics)
        entries[member.params] = {
            "ok": True, "metrics": metrics, "cache_hit": False,
            "attempts": attempts,
        }

    runner = parallel._CELL_RUNNERS.get("sweep", run_sweep_cell)

    def _run_members_sequentially(pending: Sequence[TaskCell]) -> None:
        for member in pending:
            for attempt in range(1, retries + 2):
                try:
                    metrics = runner(member)
                except Exception as exc:
                    if attempt > retries:
                        _fail(member, exc, attempt)
                else:
                    _done(member, metrics, attempt)
                    break

    if runner is not parallel._cell_sweep:
        # Someone interposed on per-cell sweep execution; fusion
        # defers to per-cell execution so the interposition sees
        # every member.
        _run_members_sequentially(cold)
        return entries

    trace = cached_trace(
        workload(cell.benchmark), cell.window,
        options=CodegenOptions(opt_level=opt_level),
    )
    paired: List[Tuple[TaskCell, Any, Any]] = []
    for member in cold:
        fields = dict(member.params)
        fields.pop("kind", None)
        fields.pop("opt", None)
        fields.pop("rep", None)
        try:
            baseline_config, config = _timing_config_pair(fields)
        except Exception as exc:
            # Deterministic construction failure: the engine would have
            # retried and failed identically, so report its count.
            _fail(member, exc, 1 + retries)
            continue
        paired.append((member, baseline_config, config))

    if paired:
        configs: List[Any] = []
        for _member, baseline_config, config in paired:
            configs.append(baseline_config)
            configs.append(config)
        try:
            results = simulate_batch(trace, configs)
        except Exception:
            # The batched pass failed as a whole (it cannot tell which
            # config is at fault) — recompute members one by one so
            # only the offender degrades.
            _run_members_sequentially([member for member, _, _ in paired])
        else:
            for slot, (member, _, _) in enumerate(paired):
                baseline = results[2 * slot]
                run = results[2 * slot + 1]
                try:
                    metrics = _metrics_from_stats(baseline, run)
                except Exception as exc:
                    _fail(member, exc, 1 + retries)
                else:
                    _done(member, metrics)
    return entries


# ---------------------------------------------------------------------------
# Planning
# ---------------------------------------------------------------------------


def point_cell(spec: SweepSpec, point: SweepPoint) -> TaskCell:
    """The engine cell for one run-table row.

    Params spell out the full resolved machine (not just the swept
    axes) plus kind/opt/rep, so the cell-cache key is the complete
    design-point identity: suites with different bases never collide,
    and suites crossing the same point share cached metrics.
    """
    if spec.kind == "traffic":
        machine = tuple(
            (name, value) for name, value in point.machine
            if name in ("svf_capacity", "svf_granularity")
        )
    else:
        machine = point.machine
    params = (
        ("kind", spec.kind),
        ("opt", point.opt_level),
        ("rep", point.repetition),
    ) + machine
    return TaskCell("sweep", point.workload, spec.window, params)


def plan_cells(spec: SweepSpec) -> Tuple[List[SweepPoint], List[TaskCell]]:
    """Expand the suite: canonical row order plus a cache-friendly
    submission order (combo-major, so cold workers touch distinct
    benchmarks before piling onto one trace)."""
    points = spec.expand()
    order = sorted(
        range(len(points)),
        key=lambda index: (
            points[index].levels,
            points[index].opt_level,
            points[index].repetition,
        ),
    )
    cells = [point_cell(spec, points[index]) for index in order]
    return points, cells


def _fuse_cells(
    spec: SweepSpec, cells: Sequence[TaskCell]
) -> Tuple[List[TaskCell], Dict[TaskCell, TaskCell]]:
    """Group timing cells that share (workload, opt, rep) into fused
    ``"sweep-batch"`` cells — one trace attach + one batched pass per
    group instead of one walk per row.

    Fusion is submission-shape only: the per-member cell-cache keys,
    row identities and row bytes are untouched (the batch runner fans
    results back out per member).  Groups of one stay plain cells.
    Returns the submission list (group order follows the first member,
    preserving :func:`plan_cells`'s cache-friendly ordering) and the
    member-cell → batch-cell map the fan-in uses.
    """
    groups: Dict[Tuple, List[TaskCell]] = {}
    for cell in cells:
        params = dict(cell.params)
        key = (cell.benchmark, params.get("opt", 0), params.get("rep", 0))
        groups.setdefault(key, []).append(cell)
    submit: List[TaskCell] = []
    batch_of: Dict[TaskCell, TaskCell] = {}
    emitted = set()
    for cell in cells:
        params = dict(cell.params)
        key = (cell.benchmark, params.get("opt", 0), params.get("rep", 0))
        if key in emitted:
            continue
        emitted.add(key)
        members = groups[key]
        if len(members) == 1:
            submit.append(cell)
            continue
        benchmark, opt_level, repetition = key
        batch = TaskCell(
            "sweep-batch", benchmark, spec.window,
            (
                ("kind", spec.kind),
                ("opt", opt_level),
                ("rep", repetition),
                ("members", tuple(member.params for member in members)),
            ),
        )
        submit.append(batch)
        for member in members:
            batch_of[member] = batch
    return submit, batch_of


# ---------------------------------------------------------------------------
# Results
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SweepRow:
    """One run-table row: identity, metrics (or an annotated gap)."""

    workload: str
    opt_level: int
    repetition: int
    levels: Tuple[Tuple[str, Any], ...]
    metrics: Optional[Mapping[str, Any]] = None
    error: Optional[str] = None
    #: provenance (varies run to run; excluded from the run table)
    cache_hit: bool = False
    elapsed: float = 0.0
    attempts: int = 1

    def __post_init__(self):
        # Gap-row invariant: a row either carries metrics or names its
        # failure — never both, never neither.  A row violating this
        # would render as a silent blank instead of an annotated gap.
        if (self.metrics is None) == (self.error is None):
            raise ValueError(
                f"sweep row {self.workload!r} must set exactly one of "
                f"metrics/error (metrics={self.metrics!r}, "
                f"error={self.error!r})"
            )

    @property
    def ok(self) -> bool:
        return self.error is None

    def metric(self, name: str, default: Any = None) -> Any:
        if self.metrics is None:
            return default
        return self.metrics.get(name, default)

    def level(self, name: str, default: Any = None) -> Any:
        """The row's assignment for one grid axis."""
        return dict(self.levels).get(name, default)

    def label(self) -> str:
        """Human-readable row identity for annotations/progress."""
        parts = [self.workload]
        if self.opt_level:
            parts.append(f"-O{self.opt_level}")
        if self.levels:
            parts.append(
                "[" + ", ".join(f"{axis}={value}"
                                for axis, value in self.levels) + "]"
            )
        if self.repetition:
            parts.append(f"rep{self.repetition}")
        return " ".join(parts)

    def table_dict(self) -> Dict[str, Any]:
        """Deterministic run-table form (no timing, no cache flags)."""
        return {
            "workload": self.workload,
            "opt_level": self.opt_level,
            "repetition": self.repetition,
            "levels": {axis: value for axis, value in self.levels},
            "metrics": dict(self.metrics) if self.metrics is not None
            else None,
            "error": self.error,
        }

    def meta_dict(self) -> Dict[str, Any]:
        """Provenance form (cache hit, wall time, attempts)."""
        return {
            "workload": self.workload,
            "opt_level": self.opt_level,
            "repetition": self.repetition,
            "levels": {axis: value for axis, value in self.levels},
            "cache_hit": self.cache_hit,
            "elapsed_seconds": round(self.elapsed, 6),
            "attempts": self.attempts,
        }


@dataclass(frozen=True)
class SweepOptions:
    """Frozen knobs for one sweep run (``repro sweep``).

    ``jobs`` is the parallel-engine worker count (``None`` means
    ``os.cpu_count()``, ``1`` runs inline); the run table is
    byte-identical for every value.  ``use_cache`` gates the shared
    on-disk cache — with it on, completed cells of an interrupted or
    repeated sweep are skipped (resumability); ``cache_dir=None`` with
    ``use_cache=True`` resolves to the default per-user directory.
    ``out_dir`` is where artifacts land (``None`` writes nothing —
    callers consume the :class:`SweepResult` directly).
    """

    jobs: Optional[int] = None
    cache_dir: Optional[str] = None
    use_cache: bool = True
    task_timeout: float = 600.0
    out_dir: Optional[str] = None
    #: deterministic fault plan forwarded to the engine (chaos runs).
    fault_plan: Optional[chaos.FaultPlan] = None

    def __post_init__(self):
        if self.jobs is not None and self.jobs < 1:
            raise UsageError(f"jobs must be >= 1, not {self.jobs!r}")

    def resolved_cache_dir(self) -> Optional[str]:
        """The effective cache root, or ``None`` when caching is off."""
        if not self.use_cache:
            return None
        if self.cache_dir is not None:
            return self.cache_dir
        from repro.harness.parallel import default_cache_dir

        return default_cache_dir()


@dataclass(frozen=True)
class SweepResult:
    """A finished sweep: the run table plus run provenance."""

    suite: str
    kind: str
    description: str
    window: int
    repetitions: int
    workloads: Tuple[str, ...]
    factors: Tuple[str, ...]
    rows: Tuple[SweepRow, ...]
    #: provenance (never enters the run table)
    jobs: int = 1
    elapsed_seconds: float = 0.0
    source: str = ""
    #: corrupt cache entries detected and unlinked during the run.
    corrupt_dropped: int = 0

    @property
    def ok(self) -> bool:
        """Every row carries metrics (no degraded gaps)."""
        return all(row.ok for row in self.rows)

    @property
    def cache_hits(self) -> int:
        return sum(1 for row in self.rows if row.cache_hit)

    def run_table(self) -> Dict[str, Any]:
        """The versioned, deterministic run-table payload."""
        from repro.api import versioned

        return versioned({
            "kind": "sweep",
            "suite": self.suite,
            "sweep_kind": self.kind,
            "description": self.description,
            "window": self.window,
            "repetitions": self.repetitions,
            "workloads": list(self.workloads),
            "factors": list(self.factors),
            "metrics": list(metric_names(self.kind)),
            "ok": self.ok,
            "rows": [row.table_dict() for row in self.rows],
        })

    def run_table_json(self, indent: int = 2) -> str:
        """Byte-stable JSON of :meth:`run_table` (sorted keys)."""
        return json.dumps(self.run_table(), indent=indent, sort_keys=True)

    def meta(self) -> Dict[str, Any]:
        """The versioned provenance payload (varies run to run)."""
        from repro.api import versioned

        return versioned({
            "kind": "sweep-meta",
            "suite": self.suite,
            "jobs": self.jobs,
            "elapsed_seconds": round(self.elapsed_seconds, 6),
            "cells": len(self.rows),
            "cache_hits": self.cache_hits,
            "corrupt_dropped": self.corrupt_dropped,
            "source": self.source,
            "rows": [row.meta_dict() for row in self.rows],
        })

    def meta_json(self, indent: int = 2) -> str:
        return json.dumps(self.meta(), indent=indent, sort_keys=True)

    def render_summary(self) -> str:
        """Deterministic text summary: one table cell per design point.

        Timing sweeps show the speedup over the svf-less baseline;
        traffic sweeps show total quad-words.  Repetitions average
        (the simulator is deterministic, so this is a formality).
        Degraded rows render as ``--`` and are annotated below, the
        way report sections annotate failed cells.
        """
        combos: List[Tuple[Tuple[str, Any], ...]] = []
        for row in self.rows:
            if row.levels not in combos:
                combos.append(row.levels)
        headers = ["Benchmark"] + [
            ", ".join(f"{axis}={value}" for axis, value in combo)
            or "(base)"
            for combo in combos
        ]

        grouped: Dict[Tuple[str, int], Dict[Tuple, List[SweepRow]]] = {}
        for row in self.rows:
            group = grouped.setdefault((row.workload, row.opt_level), {})
            group.setdefault(row.levels, []).append(row)

        table_rows = []
        degraded: List[SweepRow] = []
        for (workload, opt_level), by_combo in grouped.items():
            label = workload if not opt_level else f"{workload} -O{opt_level}"
            cells = [label]
            for combo in combos:
                rows = by_combo.get(combo, [])
                values = [
                    row.metric(
                        "speedup" if self.kind == "timing" else "qw_total"
                    )
                    for row in rows if row.ok
                ]
                degraded.extend(row for row in rows if not row.ok)
                if not values:
                    cells.append("--")
                elif self.kind == "timing":
                    cells.append(percent(sum(values) / len(values)))
                else:
                    cells.append(str(round(sum(values) / len(values))))
            table_rows.append(tuple(cells))

        title = (
            f"Sweep {self.suite} ({self.kind}): "
            f"{len(self.workloads)} workloads x {len(combos)} configs "
            f"x {self.repetitions} reps, window {self.window:,}"
        )
        text = render_table(headers, table_rows, title=title)
        for row in degraded:
            text += (
                f"\n(degraded: row {row.label()} failed after "
                f"{row.attempts} attempt"
                f"{'s' if row.attempts != 1 else ''} — {row.error})"
            )
        return text

    def write_artifacts(self, out_dir: str) -> List[str]:
        """Persist run table, meta and summary under ``out_dir``.

        ``run_table.json`` and ``summary.txt`` are deterministic;
        ``run_meta.json`` carries the provenance that may vary.
        Returns the written paths.
        """
        root = Path(out_dir)
        root.mkdir(parents=True, exist_ok=True)
        written = []
        for filename, text in (
            ("run_table.json", self.run_table_json() + "\n"),
            ("run_meta.json", self.meta_json() + "\n"),
            ("summary.txt", self.render_summary() + "\n"),
        ):
            path = root / filename
            path.write_text(text)
            written.append(str(path))
        return written


# ---------------------------------------------------------------------------
# The engine entry point
# ---------------------------------------------------------------------------


def _outcome_counters(outcome: CellOutcome) -> Mapping[str, int]:
    phases = outcome.phases or {}
    counters = (
        phases.get("counters", {}) if isinstance(phases, dict) else {}
    )
    return counters if isinstance(counters, dict) else {}


def _cache_hit(outcome: CellOutcome) -> bool:
    """Did this cell's payload come from the cell cache?"""
    return bool(_outcome_counters(outcome).get("cell_cache_hits", 0))


def _corrupt_dropped(outcomes: Sequence[CellOutcome]) -> int:
    """Corrupt cache entries the run's workers detected and unlinked."""
    return sum(
        _outcome_counters(outcome).get("cache_corrupt_dropped", 0)
        for outcome in outcomes
    )


def run_sweep(
    spec: SweepSpec,
    options: Optional[SweepOptions] = None,
    progress: Optional[Callable[[str], None]] = None,
) -> SweepResult:
    """Execute a validated suite descriptor; returns the run table.

    Rows come back in canonical expansion order regardless of worker
    scheduling; a cell that fails after its retry degrades to a gap
    row (``error`` set) instead of aborting the sweep.  With the disk
    cache enabled, completed cells of a previous identical run are
    reused — an interrupted sweep resumes where it left off.
    """
    options = options if options is not None else SweepOptions()
    started = time.perf_counter()
    points, cells = plan_cells(spec)
    # Fuse timing groups into batched cells: a submission-shape
    # optimization only (row identities, cache keys and run-table
    # bytes are invariant).  Chaos runs stay unfused — fault plans
    # target the per-cell keys :func:`plan_cells` enumerates.
    batch_of: Dict[TaskCell, TaskCell] = {}
    submit = list(cells)
    if spec.kind == "timing" and options.fault_plan is None:
        submit, batch_of = _fuse_cells(spec, cells)
    engine = EngineOptions(
        jobs=options.jobs,
        cache_dir=options.resolved_cache_dir(),
        task_timeout=options.task_timeout,
        fault_plan=options.fault_plan,
    )
    if progress is not None:
        fused_note = (
            f" fused into {len(submit)}" if len(submit) != len(cells)
            else ""
        )
        progress(
            f"sweep {spec.name}: {len(cells)} cells{fused_note} over "
            f"{len(spec.workloads)} workloads "
            f"({engine.effective_jobs()} jobs, cache "
            f"{engine.cache_dir if engine.cache_dir else 'off'})"
        )
    outcomes = run_cells(submit, engine, progress=progress)
    by_cell = {outcome.cell: outcome for outcome in outcomes}

    rows = []
    for point in points:
        cell = point_cell(spec, point)
        batch_cell = batch_of.get(cell)
        outcome = by_cell.get(batch_cell if batch_cell is not None
                              else cell)
        if outcome is None:
            raise RuntimeError(
                f"engine invariant violated: no outcome for planned "
                f"cell {cell.label} — every submitted cell must come "
                f"back as a payload or an annotated gap"
            )
        if batch_cell is None:
            rows.append(SweepRow(
                workload=point.workload,
                opt_level=point.opt_level,
                repetition=point.repetition,
                levels=point.levels,
                metrics=outcome.payload if outcome.ok else None,
                error=outcome.error,
                cache_hit=_cache_hit(outcome),
                elapsed=outcome.elapsed,
                attempts=outcome.attempts,
            ))
            continue
        group_size = max(1, len(dict(batch_cell.params)["members"]))
        attempts = outcome.attempts
        if not outcome.ok:
            # The whole fused cell died at the engine level (timeout,
            # lost worker): every member degrades with that error.
            metrics, error, cache_hit = None, outcome.error, False
        else:
            entry = (
                outcome.payload.get(cell.params)
                if isinstance(outcome.payload, Mapping) else None
            )
            if entry is None:
                metrics = None
                error = (
                    "batch invariant violated: fused cell returned no "
                    f"entry for member {cell.label}"
                )
                cache_hit = False
            elif entry.get("ok"):
                metrics = entry.get("metrics")
                error = None
                cache_hit = bool(entry.get("cache_hit", False))
                attempts = int(entry.get("attempts", 1))
            else:
                metrics = None
                error = entry.get("error", "unknown batch member error")
                cache_hit = False
                attempts = int(entry.get("attempts", outcome.attempts))
        rows.append(SweepRow(
            workload=point.workload,
            opt_level=point.opt_level,
            repetition=point.repetition,
            levels=point.levels,
            metrics=metrics,
            error=error,
            cache_hit=cache_hit,
            elapsed=outcome.elapsed / group_size,
            attempts=attempts,
        ))

    result = SweepResult(
        suite=spec.name,
        kind=spec.kind,
        description=spec.description,
        window=spec.window,
        repetitions=spec.repetitions,
        workloads=spec.workloads,
        factors=spec.factor_names,
        rows=tuple(rows),
        jobs=engine.effective_jobs(),
        elapsed_seconds=time.perf_counter() - started,
        source=spec.source,
        corrupt_dropped=_corrupt_dropped(outcomes),
    )
    if options.out_dir is not None:
        written = result.write_artifacts(options.out_dir)
        if progress is not None:
            progress("wrote " + ", ".join(
                os.path.basename(path) for path in written
            ) + f" under {options.out_dir}")
    return result


__all__ = [
    "SweepOptions",
    "SweepResult",
    "SweepRow",
    "TIMING_METRICS",
    "TRAFFIC_METRICS",
    "metric_names",
    "plan_cells",
    "point_cell",
    "run_sweep",
    "run_sweep_batch_cell",
    "run_sweep_cell",
]
