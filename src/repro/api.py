"""Stable typed facade over the reproduction toolkit.

Every entry point external callers (and the CLI) need, behind frozen
option objects with explicit defaults:

* :class:`CompileOptions` — MiniC compilation knobs, including the
  ``opt_level`` gate for the dataflow optimizer of
  :mod:`repro.lang.opt`;
* :class:`MachineSpec` — a declarative wrapper over the Table-2
  machine models and their stack-unit steering;
* :func:`compile_source`, :func:`run_workload`, :func:`characterize`,
  :func:`simulate`, :func:`lint`, :func:`experiment`, :func:`sweep`,
  :func:`predict` — the verbs.

The facade is the *stability boundary*: subsystem modules underneath
may reshuffle freely, but signatures here only grow.  Machine-readable
outputs derived from these calls carry ``schema_version`` (see
:data:`SCHEMA_VERSION`) so downstream consumers can detect payload
changes.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence, Tuple, Union

from repro.analysis.lint import lint_all, lint_program, lint_workload
from repro.errors import UsageError
from repro.analysis.report import LintReport
from repro.core.stack_cache import check_geometry as check_stack_cache
from repro.core.svf import check_geometry as check_svf
from repro.harness.experiments import (
    CharacterizationResult,
    characterize as _characterize,
    fig5_ideal_morphing,
    fig6_progressive,
    fig7_svf_vs_stack_cache,
    fig9_svf_speedup,
    table1_workloads,
    table2_models,
    table3_memory_traffic,
    table4_context_switch,
)
from repro.harness.chaos import ChaosOptions, ChaosResult
from repro.harness.sweep import (
    SweepOptions,
    SweepResult,
    run_sweep as _run_sweep,
)
from repro.isa.instructions import Program
from repro.lang.codegen import (
    CodegenOptions,
    compile_program,
    compile_to_assembly,
)
from repro.uarch.config import MachineConfig, table2_config
from repro.uarch.pipeline import (
    SimStats,
    simulate as _simulate,
    simulate_batch as _simulate_batch,
)
from repro.workloads.registry import workload as _workload

#: Version stamped into every machine-readable (JSON) payload the
#: toolkit emits, and pinned into the on-disk trace-cache directory
#: name (``<cache>/v<SCHEMA_VERSION>/``).  Bump on any breaking change
#: to a payload shape or persisted trace format.  v2: columnar binary
#: trace files replaced pickled record lists — v1 caches are stale and
#: are simply never read again.  v3: the declarative sweep engine —
#: every JSON envelope (lint/certify/experiment/characterize/sweep)
#: now uniformly carries ``kind`` + ``schema_version``, sweep
#: run-table artifacts joined the payload family, and ``MachineSpec``
#: grew the ablation knobs (banks, granularity, adaptive, AGU depth)
#: that feed sweep cell-cache keys.  Migration: there is nothing to
#: convert — v2 caches live under ``v2/`` and are simply never read
#: again (delete the directory to reclaim disk); consumers of v2 JSON
#: payloads only need to accept the new ``kind`` field on payloads
#: that previously lacked it.  v4: the chaos-hardening pass — cached
#: traces gained a CRC32 (``SVFT\\x04`` header) so a bit-flipped
#: ``.trace.bin`` is rejected instead of silently timed, and cell
#: cache keys escape param separators so values containing ``.``/``-``
#: can no longer collide.  Migration: nothing to convert — v3 caches
#: live under ``v3/`` and are never read again; JSON payload shapes
#: are unchanged apart from the version field.  v5: the batched timing
#: engine — report timing figures cache one whole-row payload per
#: (figure, benchmark) cell instead of one scalar per machine config,
#: and pickled cell/section cache entries gained a SHA-256 integrity
#: prefix (a bit flip inside a pickled payload used to be served when
#: it still unpickled; traces already carried a CRC since v4).
#: Migration: nothing to convert — v4 caches live under ``v4/`` and
#: are never read again; JSON payload shapes are unchanged apart from
#: the version field.
SCHEMA_VERSION = 5

#: Valid ``experiment`` names (paper tables and figures).
EXPERIMENT_NAMES = (
    "table1", "table2", "fig1", "fig2", "fig3", "fig5", "fig6",
    "fig7", "fig8", "fig9", "table3", "table4",
)


def versioned(payload: Dict) -> Dict:
    """Return ``payload`` with the ``schema_version`` envelope field."""
    return {"schema_version": SCHEMA_VERSION, **payload}


@dataclass(frozen=True)
class CompileOptions:
    """Frozen MiniC compilation options (facade form of codegen knobs).

    ``fp_frames`` and ``promoted_locals`` shape the stack-reference
    mix exactly as :class:`repro.lang.codegen.CodegenOptions`
    documents; ``opt_level`` gates the dataflow optimizer pipeline
    (0 = naive stack-machine code, the golden default; 1 = run
    :func:`repro.lang.opt.optimize_program` over the assembled
    program).
    """

    fp_frames: bool = True
    promoted_locals: int = 4
    opt_level: int = 0

    def __post_init__(self):
        if self.opt_level not in (0, 1):
            raise ValueError(
                f"opt_level must be 0 or 1, not {self.opt_level!r}"
            )

    def codegen(self) -> CodegenOptions:
        """The equivalent low-level :class:`CodegenOptions`."""
        return CodegenOptions(
            fp_frames=self.fp_frames,
            promoted_locals=self.promoted_locals,
            opt_level=self.opt_level,
        )


@dataclass(frozen=True)
class MachineSpec:
    """Frozen declarative machine description (Table 2 + stack unit).

    Wraps the ``table2_config(width, **overrides)`` /
    ``config.with_svf(...)`` construction idiom in one flat record:
    ``width`` picks the Table-2 column, ``svf_mode`` attaches a stack
    unit (``"none"``, ``"svf"``, ``"ideal"``, ``"stack_cache"``), and
    the remaining fields are the knobs experiments actually vary.
    """

    width: int = 16
    dl1_ports: int = 2
    branch_predictor: str = "perfect"
    #: extra pipeline stages between dispatch and address generation
    #: (the deep-pipeline ablation knob; morphed SVF refs skip them)
    agu_depth: int = 0
    svf_mode: str = "none"
    svf_ports: int = 2
    svf_capacity: int = 8192
    #: single-ported banks instead of true multiporting (0 = off)
    svf_banks: int = 0
    #: valid/dirty-bit granule size in bytes (Section 3.3)
    svf_granularity: int = 8
    #: dynamically disable the SVF under squash storms (Section 3.3)
    svf_adaptive: bool = False
    no_squash: bool = False

    def config(self) -> MachineConfig:
        """Materialize the equivalent :class:`MachineConfig`."""
        base = table2_config(
            self.width,
            dl1_ports=self.dl1_ports,
            branch_predictor=self.branch_predictor,
            agu_depth=self.agu_depth,
        )
        if self.svf_mode == "none":
            return base
        return base.with_svf(
            mode=self.svf_mode,
            ports=self.svf_ports,
            capacity_bytes=self.svf_capacity,
            banks=self.svf_banks,
            granularity=self.svf_granularity,
            adaptive=self.svf_adaptive,
            no_squash=self.no_squash,
        )


@dataclass(frozen=True)
class RunResult:
    """Outcome of one functional-emulator run of a workload."""

    workload: str
    instructions: int
    halted: bool
    #: values printed by the program (the emulator's ``print`` channel)
    output: Sequence[int]
    return_value: int


@dataclass(frozen=True)
class ExperimentResult:
    """One rendered paper artifact (table/figure) with its provenance."""

    name: str
    window: Optional[int]
    text: str

    def render(self) -> str:
        """The human-readable artifact text."""
        return self.text

    def to_json(self, indent: int = 2) -> str:
        """Versioned machine-readable envelope of the artifact."""
        return json.dumps(versioned({
            "kind": "experiment",
            "experiment": self.name,
            "window": self.window,
            "text": self.text,
        }), indent=indent)


@dataclass(frozen=True)
class ReportOptions:
    """Frozen knobs for the full-report sweep (``repro report``).

    ``jobs`` is the parallel-engine worker count (``None`` means
    ``os.cpu_count()``, ``1`` runs inline); the report text is
    byte-identical for every value.  ``use_cache`` gates the shared
    on-disk trace cache — ``cache_dir=None`` with ``use_cache=True``
    resolves to the default per-user cache directory.

    ``incremental`` re-renders only report sections whose content keys
    (workload sources × compile options × machine specs × analysis
    version × window) changed since the cached run; it needs the disk
    cache, so it is ignored when ``use_cache`` is off.  The document
    stays byte-identical to a full run.
    """

    timing_window: int = 40_000
    functional_window: int = 80_000
    benchmarks: Optional[Tuple[str, ...]] = None
    jobs: Optional[int] = None
    cache_dir: Optional[str] = None
    use_cache: bool = True
    task_timeout: float = 600.0
    incremental: bool = False

    def __post_init__(self):
        if self.benchmarks is not None and not isinstance(
            self.benchmarks, tuple
        ):
            object.__setattr__(self, "benchmarks", tuple(self.benchmarks))
        if self.jobs is not None and self.jobs < 1:
            raise ValueError(f"jobs must be >= 1, not {self.jobs!r}")
        for name in ("timing_window", "functional_window"):
            window = getattr(self, name)
            if window < 1:
                raise ValueError(
                    f"{name} must be a positive integer, not {window!r}"
                )

    def resolved_cache_dir(self) -> Optional[str]:
        """The effective cache root, or ``None`` when caching is off."""
        if not self.use_cache:
            return None
        if self.cache_dir is not None:
            return self.cache_dir
        from repro.harness.parallel import default_cache_dir

        return default_cache_dir()


def generate_report(
    options: Optional[ReportOptions] = None,
    progress: Optional[Callable[[str], None]] = None,
    profiler=None,
) -> str:
    """Run the full experiment battery; returns one markdown document.

    Unknown benchmark names raise :class:`repro.errors.UsageError`
    before any simulation starts; a cell that fails inside the sweep
    degrades to an annotated gap in its section.  ``profiler`` is an
    optional :class:`repro.profiling.PhaseProfiler` that accumulates
    the sweep's per-phase wall-time breakdown (``repro report
    --profile``); the document itself is unaffected.
    """
    from repro.harness.runall import generate_report as _generate_report

    options = options if options is not None else ReportOptions()
    benchmarks = (
        list(options.benchmarks) if options.benchmarks is not None else None
    )
    return _generate_report(
        timing_window=options.timing_window,
        functional_window=options.functional_window,
        benchmarks=benchmarks,
        progress=progress,
        jobs=options.jobs,
        cache_dir=options.resolved_cache_dir(),
        task_timeout=options.task_timeout,
        profiler=profiler,
        incremental=options.incremental,
    )


def _codegen_options(
    options: Optional[Union[CompileOptions, CodegenOptions]]
) -> Optional[CodegenOptions]:
    if options is None or isinstance(options, CodegenOptions):
        return options
    return options.codegen()


def compile_source(
    source: str,
    options: Optional[Union[CompileOptions, CodegenOptions]] = None,
    emit: str = "program",
) -> Union[Program, str]:
    """Compile MiniC source; ``emit`` picks ``"program"`` or ``"asm"``."""
    if emit not in ("program", "asm"):
        raise ValueError(f"emit must be 'program' or 'asm', not {emit!r}")
    resolved = _codegen_options(options)
    if emit == "asm":
        return compile_to_assembly(source, resolved)
    return compile_program(source, resolved)


def run_workload(
    benchmark: str,
    input_name: Optional[str] = None,
    options: Optional[Union[CompileOptions, CodegenOptions]] = None,
    max_instructions: Optional[int] = None,
    trace_sink=None,
) -> RunResult:
    """Compile and execute one registry workload on the emulator."""
    from repro.isa.registers import V0

    work = _workload(benchmark, input_name)
    machine = work.run(
        max_instructions=max_instructions,
        trace_sink=trace_sink,
        options=_codegen_options(options),
    )
    return RunResult(
        workload=work.full_name,
        instructions=machine.instruction_count,
        halted=machine.halted,
        output=tuple(machine.output),
        return_value=machine.registers[V0],
    )


def characterize(
    benchmarks: Optional[Sequence[str]] = None,
    max_instructions: int = 100_000,
) -> CharacterizationResult:
    """Run the Figure 1-3 characterization over (part of) the suite.

    Unknown names raise :class:`repro.errors.UsageError` listing every
    offender (validated by the suite resolver before any run starts).
    """
    return _characterize(
        benchmarks=list(benchmarks) if benchmarks else None,
        max_instructions=max_instructions,
    )


def simulate(
    trace: Union[str, Sequence],
    machine: Optional[Union[MachineSpec, MachineConfig]] = None,
    input_name: Optional[str] = None,
    max_instructions: int = 60_000,
    options: Optional[Union[CompileOptions, CodegenOptions]] = None,
) -> SimStats:
    """Time a trace (or a workload named by string) on a machine.

    ``trace`` is either a finished record sequence or a workload name
    to compile, execute and trace first; ``machine`` is a
    :class:`MachineSpec`, a raw :class:`MachineConfig` (so the
    long-standing ``simulate(trace, table2_config(16))`` idiom keeps
    working), or ``None`` for the default 16-wide baseline.
    """
    if isinstance(trace, str):
        trace = _workload(trace, input_name).trace(
            max_instructions=max_instructions,
            options=_codegen_options(options),
        )
    if machine is None:
        machine = MachineSpec()
    if isinstance(machine, MachineSpec):
        machine = machine.config()
    return _simulate(trace, machine)


def simulate_batch(
    trace: Union[str, Sequence],
    machines: Sequence[Union[MachineSpec, MachineConfig]],
    input_name: Optional[str] = None,
    max_instructions: int = 60_000,
    options: Optional[Union[CompileOptions, CodegenOptions]] = None,
) -> List[SimStats]:
    """Time one trace on many machines in a single batched pass.

    Accepts the same trace/machine forms as :func:`simulate` and
    returns one :class:`SimStats` per machine, in order — bit-for-bit
    identical to sequential :func:`simulate` calls, but the trace is
    walked once for all distinct configurations (duplicates are
    deduplicated).
    """
    if isinstance(trace, str):
        trace = _workload(trace, input_name).trace(
            max_instructions=max_instructions,
            options=_codegen_options(options),
        )
    configs = [
        machine.config() if isinstance(machine, MachineSpec) else machine
        for machine in machines
    ]
    return _simulate_batch(trace, configs)


def lint(
    target: Optional[Union[str, Program]] = None,
    input_name: Optional[str] = None,
    options: Optional[Union[CompileOptions, CodegenOptions]] = None,
    jobs: Optional[int] = None,
) -> List[LintReport]:
    """Stack-discipline lint; always returns a list of reports.

    ``target`` is a workload name, an assembled :class:`Program`, or
    ``None`` to lint the entire registry suite; ``jobs`` fans the
    suite sweep over the parallel engine (``None``/``1`` = inline).
    """
    if jobs is not None and jobs < 1:
        raise UsageError(f"jobs must be >= 1, not {jobs!r}")
    resolved = _codegen_options(options)
    if target is None:
        return lint_all(options=resolved, jobs=jobs)
    if isinstance(target, Program):
        return [lint_program(target)]
    return [lint_workload(target, input_name, options=resolved)]


def lint_json(reports: List[LintReport], indent: int = 2) -> str:
    """Versioned JSON payload for a list of lint reports."""
    return json.dumps(versioned({
        "kind": "lint",
        "ok": all(report.ok for report in reports),
        "workloads": [report.to_dict() for report in reports],
    }), indent=indent)


@dataclass(frozen=True)
class CertifyResult:
    """One certified (and optionally trace-validated) program."""

    certificate: "ProgramCertificate"
    validation: Optional["ValidationResult"] = None

    @property
    def name(self) -> str:
        return self.certificate.name

    @property
    def ok(self) -> bool:
        """No hard flag, and the dynamic run (if any) stayed sound."""
        if not self.certificate.ok:
            return False
        return self.validation is None or self.validation.ok


def certify(
    target: Optional[Union[str, Program]] = None,
    input_name: Optional[str] = None,
    options: Optional[Union[CompileOptions, CodegenOptions]] = None,
    validate: bool = False,
    adversarial: bool = False,
    max_instructions: Optional[int] = None,
) -> List[CertifyResult]:
    """Whole-program stack-safety certification (``repro certify``).

    ``target`` is a workload name, an assembled :class:`Program`, or
    ``None`` for the entire registry suite; ``adversarial=True``
    instead certifies the contract-violating family of
    :mod:`repro.workloads.adversarial` (mutually exclusive with a
    target).  ``validate=True`` additionally executes each program on
    the emulator and cross-checks observed depth and escapes against
    the certificate.
    """
    from repro.analysis.certify import certify_program
    from repro.harness.certification import (
        certify_adversarial,
        certify_workload,
        validate_adversarial,
        validate_certificate,
        validate_workload,
    )
    from repro.trace.columnar import ColumnarTrace
    from repro.workloads import ALL_BENCHMARKS
    from repro.workloads.adversarial import ADVERSARIAL

    if adversarial and target is not None:
        raise UsageError("certify: adversarial excludes naming a target")
    resolved = _codegen_options(options)

    results: List[CertifyResult] = []
    if adversarial:
        for member in ADVERSARIAL:
            if validate:
                certificate, validation = validate_adversarial(
                    member, max_instructions=max_instructions or 1_000_000
                )
            else:
                certificate, validation = certify_adversarial(member), None
            results.append(CertifyResult(certificate, validation))
        return results

    if isinstance(target, Program):
        certificate = certify_program(target)
        validation = None
        if validate:
            from repro.emulator.machine import Machine

            trace = ColumnarTrace()
            machine = Machine(target)
            machine.run(max_instructions=max_instructions,
                        trace_sink=trace)
            validation = validate_certificate(
                certificate, trace, halted=machine.halted
            )
        return [CertifyResult(certificate, validation)]

    names = ALL_BENCHMARKS if target is None else [target]
    for name in names:
        work = _workload(name, input_name if target is not None else None)
        if validate:
            certificate, validation = validate_workload(
                work, options=resolved, max_instructions=max_instructions
            )
        else:
            certificate, validation = certify_workload(work, resolved), None
        results.append(CertifyResult(certificate, validation))
    return results


def certify_json(results: List[CertifyResult], indent: int = 2) -> str:
    """Versioned JSON payload for a list of certify results."""
    return json.dumps(versioned({
        "kind": "certify",
        "ok": all(result.ok for result in results),
        "programs": [
            {
                **result.certificate.to_dict(),
                "validation": (
                    result.validation.to_dict()
                    if result.validation is not None else None
                ),
            }
            for result in results
        ],
    }), indent=indent)


def sweep(
    suite: Union[str, "SweepSpec"],
    options: Optional[SweepOptions] = None,
    progress: Optional[Callable[[str], None]] = None,
) -> SweepResult:
    """Run a declarative design-space sweep (``repro sweep``).

    ``suite`` is a descriptor path (YAML/JSON) or an already-validated
    :class:`repro.sweepspec.SweepSpec`.  A malformed descriptor raises
    :class:`repro.errors.UsageError` before any cell runs; a cell that
    fails after its retry degrades to an annotated gap row.  The run
    table (:meth:`SweepResult.run_table_json` and the rendered
    summary) is byte-identical across ``jobs`` values and across warm
    re-runs; with the disk cache on, completed cells are skipped, so
    interrupted sweeps resume.
    """
    from repro.sweepspec import SweepSpec, load_suite

    if isinstance(suite, str):
        suite = load_suite(suite)
    elif not isinstance(suite, SweepSpec):
        raise UsageError(
            f"sweep: expected a descriptor path or SweepSpec, "
            f"not {type(suite).__name__}"
        )
    return _run_sweep(suite, options=options, progress=progress)


def sweep_json(result: SweepResult, indent: int = 2) -> str:
    """Versioned JSON run-table payload for a finished sweep."""
    return result.run_table_json(indent=indent)


def chaos_check(
    options: Optional["ChaosOptions"] = None,
    progress: Optional[Callable[[str], None]] = None,
) -> "ChaosResult":
    """Drive a report or sweep under injected faults (``repro chaos``).

    Kills workers mid-cell, hangs and fails cells, corrupts cache
    entries, and races two runs on one cache directory — then checks
    the invariants the harness documents: output byte-identical or
    explicitly annotated, the cache never poisoned, no orphan worker
    processes.  Returns a :class:`repro.harness.chaos.ChaosResult`;
    ``result.ok`` is the verdict the CLI maps to its exit code.
    """
    from repro.harness.chaos import run_chaos

    return run_chaos(options, progress=progress)


def chaos_json(result: "ChaosResult", indent: int = 2) -> str:
    """Versioned JSON verdict payload for a finished chaos run."""
    return json.dumps(versioned(result.to_dict()), indent=indent)


def load_suite(path: str) -> "SweepSpec":
    """Read and validate a sweep suite descriptor (YAML or JSON).

    Facade re-export of :func:`repro.sweepspec.load_suite`: raises
    :class:`UsageError` on unknown workloads, unknown grid axes, zero
    repetitions or any other malformation — before anything runs.
    """
    from repro.sweepspec import load_suite as _load_suite

    return _load_suite(path)


def predict(
    benchmarks: Optional[Sequence[str]] = None,
    max_instructions: Optional[int] = None,
    capacity_bytes: int = 8192,
    jobs: Optional[int] = None,
    progress: Optional[Callable[[str], None]] = None,
):
    """Static-vs-dynamic SVF traffic bounds (``repro predict``).

    Returns a :class:`repro.harness.prediction.PredictionReport`;
    unknown benchmark names raise :class:`UsageError` before any run
    starts, and ``jobs`` fans the measurement over the parallel
    engine.
    """
    from repro.harness.prediction import traffic_prediction_report
    from repro.workloads import validate_benchmarks

    if jobs is not None and jobs < 1:
        raise UsageError(f"jobs must be >= 1, not {jobs!r}")
    try:
        # The geometry TrafficSimulator builds: 8-byte SVF granules and
        # a stack cache with 32-byte lines.
        check_svf(capacity_bytes, 8)
        check_stack_cache(capacity_bytes, 32)
    except ValueError as exc:
        raise UsageError(f"invalid traffic geometry: {exc}") from None
    resolved = validate_benchmarks(benchmarks) if benchmarks else None
    return traffic_prediction_report(
        benchmarks=resolved,
        max_instructions=max_instructions,
        capacity_bytes=capacity_bytes,
        jobs=jobs,
        progress=progress,
    )


def experiment(name: str, window: Optional[int] = None) -> ExperimentResult:
    """Regenerate one paper artifact by name (see EXPERIMENT_NAMES).

    An unknown name raises :class:`UsageError` (CLI exit code 2),
    matching the behaviour of benchmark-subset validation.
    """
    if name not in EXPERIMENT_NAMES:
        raise UsageError(
            f"unknown experiment {name!r} (have {', '.join(EXPERIMENT_NAMES)})"
        )
    if name == "table1":
        text = table1_workloads()
    elif name == "table2":
        text = table2_models()
    elif name in ("fig1", "fig2", "fig3"):
        result = _characterize(max_instructions=window or 120_000)
        text = {
            "fig1": result.render_fig1,
            "fig2": result.render_fig2,
            "fig3": result.render_fig3,
        }[name]()
    elif name == "fig5":
        text = fig5_ideal_morphing(max_instructions=window or 60_000).render()
    elif name == "fig6":
        text = fig6_progressive(max_instructions=window or 60_000).render()
    elif name in ("fig7", "fig8"):
        result = fig7_svf_vs_stack_cache(max_instructions=window or 60_000)
        text = result.render() if name == "fig7" else result.render_fig8()
    elif name == "fig9":
        text = fig9_svf_speedup(max_instructions=window or 60_000).render()
    elif name == "table3":
        text = table3_memory_traffic(max_instructions=window or 120_000).render()
    else:  # table4
        text = table4_context_switch(max_instructions=window or 120_000).render()
    return ExperimentResult(name=name, window=window, text=text)


__all__ = [
    "CertifyResult",
    "ChaosOptions",
    "ChaosResult",
    "CompileOptions",
    "EXPERIMENT_NAMES",
    "ExperimentResult",
    "MachineSpec",
    "ReportOptions",
    "RunResult",
    "SCHEMA_VERSION",
    "SweepOptions",
    "SweepResult",
    "UsageError",
    "certify",
    "certify_json",
    "chaos_check",
    "chaos_json",
    "characterize",
    "compile_source",
    "experiment",
    "generate_report",
    "lint",
    "lint_json",
    "load_suite",
    "predict",
    "run_workload",
    "simulate",
    "simulate_batch",
    "sweep",
    "sweep_json",
    "versioned",
]
