"""Cross-check static SVF-traffic bounds against the simulator.

For each workload and each optimization level this driver:

1. compiles the program and computes the per-function static bounds of
   :mod:`repro.analysis.predict`;
2. executes it on the functional emulator in fixed windows, feeding
   each window's columns to a :class:`TrafficSimulator` (so full runs
   never materialize the whole trace) while counting ``$sp``-relative
   references and per-function activations (entries into each
   function's first instruction);
3. scales each function's per-activation bound by its activation count
   and asserts the soundness inequality **predicted ≥ measured** for
   both counters — fill-reads avoided and writebacks killed.

The rendered report is the committed
``benchmarks/results/traffic_prediction.txt`` artifact: it shows the
``-O0`` → ``-O1`` dynamic ``$sp``-traffic reduction with bit-identical
outputs, and the bound check at both levels.
"""

from __future__ import annotations

import sys
from collections import Counter
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

from repro.analysis.cfg import build_cfg
from repro.analysis.predict import predict_program
from repro.core.traffic import TrafficSimulator
from repro.emulator import Machine
from repro.emulator.memory import TEXT_BASE
from repro.isa.registers import SP, V0
from repro.lang.codegen import CodegenOptions
from repro.trace.columnar import ColumnarTrace, FLAG_LOAD, FLAG_STORE
from repro.workloads import ALL_BENCHMARKS, workload


#: Emulator window: each window's columns are consumed and dropped.
_WINDOW = 65_536


@dataclass
class LevelMeasurement:
    """One workload at one optimization level."""

    opt_level: int
    instructions: int
    halted: bool
    sp_loads: int
    sp_stores: int
    output: str
    return_value: int
    analyzable: bool
    activations: Dict[str, int] = field(default_factory=dict)
    predicted_fills_avoided: int = 0
    measured_fills_avoided: int = 0
    predicted_writebacks_killed: int = 0
    measured_writebacks_killed: int = 0

    @property
    def sp_refs(self) -> int:
        return self.sp_loads + self.sp_stores

    @property
    def bounds_hold(self) -> bool:
        """The soundness inequality: predicted >= measured, both counters."""
        return (
            self.analyzable
            and self.measured_fills_avoided <= self.predicted_fills_avoided
            and self.measured_writebacks_killed
            <= self.predicted_writebacks_killed
        )


@dataclass
class PredictionRow:
    """One workload across the compared optimization levels."""

    name: str
    levels: Dict[int, LevelMeasurement] = field(default_factory=dict)

    @property
    def outputs_identical(self) -> bool:
        measurements = list(self.levels.values())
        return all(
            m.output == measurements[0].output
            and m.return_value == measurements[0].return_value
            for m in measurements
        )

    @property
    def traffic_reduced(self) -> bool:
        return self.levels[1].sp_refs < self.levels[0].sp_refs

    @property
    def reduction_percent(self) -> float:
        base = self.levels[0].sp_refs
        if base == 0:
            return 0.0
        return 100.0 * (base - self.levels[1].sp_refs) / base

    @property
    def bounds_hold(self) -> bool:
        return all(m.bounds_hold for m in self.levels.values())


@dataclass
class PredictionReport:
    rows: List[PredictionRow] = field(default_factory=list)
    capacity_bytes: int = 8192

    @property
    def workloads_reduced(self) -> int:
        return sum(
            1
            for row in self.rows
            if row.traffic_reduced and row.outputs_identical
        )

    @property
    def all_bounds_hold(self) -> bool:
        return all(row.bounds_hold for row in self.rows)

    def render(self) -> str:
        lines = [
            "Static SVF-traffic prediction vs dynamic measurement",
            f"(full runs; SVF capacity {self.capacity_bytes} bytes; "
            f"predicted = sum over functions of activations x "
            f"per-activation bound)",
            "",
            f"{'workload':17s} {'$sp refs -O0':>12s} {'$sp refs -O1':>12s} "
            f"{'reduction':>9s}  outputs",
        ]
        for row in self.rows:
            lines.append(
                f"{row.name:17s} {row.levels[0].sp_refs:12,d} "
                f"{row.levels[1].sp_refs:12,d} "
                f"{row.reduction_percent:8.1f}%  "
                f"{'identical' if row.outputs_identical else 'DIFFER'}"
            )
        lines.append("")
        lines.append(
            f"{self.workloads_reduced}/{len(self.rows)} workloads reduce "
            f"$sp-relative traffic at -O1 with identical outputs"
        )
        lines.append("")
        lines.append(
            f"{'workload':17s} {'lvl':>4s} "
            f"{'fills avoided pred/meas':>26s} "
            f"{'writebacks killed pred/meas':>30s}  bound"
        )
        for row in self.rows:
            for level in sorted(row.levels):
                m = row.levels[level]
                fills = (
                    f"{m.predicted_fills_avoided:,d} / "
                    f"{m.measured_fills_avoided:,d}"
                )
                kills = (
                    f"{m.predicted_writebacks_killed:,d} / "
                    f"{m.measured_writebacks_killed:,d}"
                )
                lines.append(
                    f"{row.name:17s} {'-O' + str(level):>4s} "
                    f"{fills:>26s} {kills:>30s}  "
                    f"{'holds' if m.bounds_hold else 'VIOLATED'}"
                )
        lines.append("")
        verdict = (
            "every bound holds (predicted >= measured)"
            if self.all_bounds_hold
            else "BOUND VIOLATION: the static predictor is unsound"
        )
        lines.append(verdict)
        return "\n".join(lines)


def check_workload(
    benchmark: str,
    input_name: Optional[str] = None,
    max_instructions: Optional[int] = None,
    capacity_bytes: int = 8192,
    opt_levels: Sequence[int] = (0, 1),
) -> PredictionRow:
    """Measure one workload at each level and attach the static bounds."""
    work = workload(benchmark, input_name)
    row = PredictionRow(name=work.full_name)
    for level in opt_levels:
        options = CodegenOptions(opt_level=level)
        program = work.program(options)
        pcfg = build_cfg(program)
        prediction = predict_program(program, pcfg)
        # The pc column holds byte addresses.
        entry_points = {
            TEXT_BASE + 4 * f.start: f.name
            for f in pcfg.functions.values()
        }
        traffic = TrafficSimulator(capacity_bytes=capacity_bytes)
        machine = Machine(program)
        sp_loads = sp_stores = 0
        pcs: Counter = Counter()
        stop = sys.maxsize if max_instructions is None else max_instructions
        while not machine.halted and machine.instruction_count < stop:
            window = min(_WINDOW, stop - machine.instruction_count)
            trace = ColumnarTrace()
            machine.run(max_instructions=window, trace_sink=trace)
            traffic.consume_columns(trace)
            for flags, base in zip(trace.flags, trace.base):
                if base == SP:
                    if flags & FLAG_STORE:
                        sp_stores += 1
                    elif flags & FLAG_LOAD:
                        sp_loads += 1
            pcs.update(trace.pc)
        result = traffic.result()
        activations = {
            name: pcs[pc] for pc, name in entry_points.items() if pcs[pc]
        }

        predicted_fills = predicted_kills = 0
        if prediction.analyzable:
            for name, count in activations.items():
                bounds = prediction.function(name)
                if bounds is None:
                    continue
                predicted_fills += count * bounds.fill_avoid_bound
                predicted_kills += count * bounds.writeback_kill_bound
        row.levels[level] = LevelMeasurement(
            opt_level=level,
            instructions=machine.instruction_count,
            halted=machine.halted,
            sp_loads=sp_loads,
            sp_stores=sp_stores,
            output=machine.output,
            return_value=machine.registers[V0],
            analyzable=prediction.analyzable,
            activations=activations,
            predicted_fills_avoided=predicted_fills,
            measured_fills_avoided=result.svf_fills_avoided,
            predicted_writebacks_killed=predicted_kills,
            measured_writebacks_killed=result.svf_killed_dirty_words,
        )
    return row


def traffic_prediction_report(
    benchmarks: Optional[Sequence[str]] = None,
    max_instructions: Optional[int] = None,
    capacity_bytes: int = 8192,
    jobs: Optional[int] = None,
    progress=None,
) -> PredictionReport:
    """The committed predicted-vs-measured artifact over the suite.

    ``jobs`` fans the per-workload measurement out over the parallel
    engine (1 = inline); rows always merge back in suite order.  A
    workload that fails after its retry is dropped from the report and
    noted through ``progress`` — the full-run measurements are
    independent, so one bad workload no longer aborts the artifact.
    """
    from repro.harness.parallel import EngineOptions, TaskCell, run_cells

    names = list(benchmarks) if benchmarks else list(ALL_BENCHMARKS)
    cells = [
        TaskCell(
            "prediction",
            benchmark,
            max_instructions,
            (("capacity_bytes", capacity_bytes),),
        )
        for benchmark in names
    ]
    outcomes = run_cells(
        cells, EngineOptions(jobs=jobs), progress=progress
    )
    report = PredictionReport(capacity_bytes=capacity_bytes)
    for outcome in outcomes:
        if outcome.ok:
            report.rows.append(outcome.payload)
        elif progress is not None:
            progress(
                f"dropped {outcome.cell.benchmark}: {outcome.error}"
            )
    return report
