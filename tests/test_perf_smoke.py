"""Budgeted performance smoke for the columnar hot loops.

Not a benchmark — a regression tripwire.  The budgets are ~10× the
wall times measured on the slowest supported host (one CPU core, no
turbo), so they only fire when a hot loop falls off the packed path
entirely (e.g. someone reintroduces per-record object construction in
``Machine.run`` or the timing consume loop).  Real measurements come
from the repository benchmark (``perfbench/``).
"""

from time import perf_counter

import pytest

from repro.core.traffic import simulate_traffic
from repro.emulator import Machine
from repro.emulator.superblock import set_superblock_enabled
from repro.emulator.memory import STACK_BASE
from repro.profiling import profiled
from repro.trace.analysis import (
    AccessDistribution,
    OffsetLocality,
    StackDepthProfile,
    consume_trace,
)
from repro.trace.columnar import ColumnarTrace, set_numpy_enabled
from repro.trace.first_touch import FirstTouchProfile
from repro.uarch.config import table2_config
from repro.uarch.pipeline import simulate, simulate_batch
from repro.workloads import ALL_BENCHMARKS, workload

#: generous wall-clock ceilings (seconds); measured cold ~0.2s total.
EMULATE_BUDGET = 3.0
TIMING_BUDGET = 6.0
END_TO_END_BUDGET = 10.0
ANALYSIS_BUDGET = 3.0
TRAFFIC_BUDGET = 3.0
WINDOW = 40_000
#: the report's functional window (ROADMAP item 4's committed window).
REPORT_WINDOW = 80_000


@pytest.mark.perf
def test_cold_single_workload_end_to_end_budget():
    with profiled() as profiler:
        started = perf_counter()
        work = workload("gzip")
        trace = work.trace(max_instructions=WINDOW)
        base = table2_config(16)
        baseline = simulate(trace, base)
        svf = simulate(trace, base.with_svf(mode="svf", ports=2))
        elapsed = perf_counter() - started
    assert len(trace) == WINDOW
    assert svf.speedup_over(baseline) > 0
    assert elapsed < END_TO_END_BUDGET, profiler.render()
    phases = profiler.phases
    assert phases["emulate"].seconds < EMULATE_BUDGET, profiler.render()
    assert phases["timing"].seconds < TIMING_BUDGET, profiler.render()


@pytest.mark.perf
def test_batched_analysis_budget():
    # The Fig 1-3 characterization pass over 40k packed records stays
    # well under a second even on the pure-python column walk; the
    # budget fires only if someone reroutes it through per-record
    # TraceRecord construction again.  numpy is deliberately disabled
    # so the tripwire guards the reference path every host exercises.
    trace = workload("gzip").trace(max_instructions=WINDOW)
    sinks = (
        AccessDistribution(),
        StackDepthProfile(stack_base=STACK_BASE),
        OffsetLocality(),
        FirstTouchProfile(),
    )
    previous = set_numpy_enabled(False)
    try:
        with profiled() as profiler:
            consume_trace(trace, sinks)
    finally:
        set_numpy_enabled(previous)
    stat = profiler.phases["analysis"]
    assert stat.items == WINDOW
    assert stat.seconds < ANALYSIS_BUDGET, profiler.render()


@pytest.mark.perf
def test_batched_traffic_budget():
    # Same tripwire for the Table 3 consumer's columnar walk.
    trace = workload("gzip").trace(max_instructions=WINDOW)
    previous = set_numpy_enabled(False)
    try:
        with profiled() as profiler:
            simulate_traffic(trace)
    finally:
        set_numpy_enabled(previous)
    stat = profiler.phases["traffic"]
    assert stat.items == WINDOW
    assert stat.seconds < TRAFFIC_BUDGET, profiler.render()


@pytest.mark.perf
def test_superblock_replay_budget_and_hit_rate():
    # The loop-heavy LZ77 kernel replays most of its retirement from
    # superblock templates (~82% measured); the floor fires when a
    # change stops templates from forming or from being reused.  The
    # wall budget is the usual ~10× slack tripwire.
    with profiled() as profiler:
        workload("gzip").trace(max_instructions=WINDOW)
    counters = profiler.counters
    assert counters["superblock_builds"] > 0
    assert counters["superblock_replays"] > 0
    replayed = counters["superblock_replayed_instructions"]
    assert replayed / WINDOW > 0.5, profiler.render()
    assert profiler.phases["emulate"].seconds < EMULATE_BUDGET, (
        profiler.render()
    )


@pytest.mark.perf
@pytest.mark.parametrize("name", ALL_BENCHMARKS)
def test_superblock_replay_beats_step_decode(name):
    # Superblock replay stays only while it pays: at the report's
    # 80k functional window, best-of-3 replay (template builds
    # included) must not be slower than best-of-3 step-decode.  Runs
    # alternate so a slow spell on the host hits both legs.
    program = workload(name).program()
    best = {False: float("inf"), True: float("inf")}
    for _ in range(3):
        for enabled in best:
            previous = set_superblock_enabled(enabled)
            try:
                machine = Machine(program)
                started = perf_counter()
                machine.run(
                    max_instructions=REPORT_WINDOW,
                    trace_sink=ColumnarTrace(),
                )
                elapsed = perf_counter() - started
            finally:
                set_superblock_enabled(previous)
            best[enabled] = min(best[enabled], elapsed)
    assert best[True] <= best[False], (
        f"{name}: replay {best[True]:.3f}s > "
        f"step-decode {best[False]:.3f}s"
    )


@pytest.mark.perf
def test_step_decode_reference_budget():
    # The step-decode walk stays the reference implementation; it must
    # remain usable (differential gates run it on every workload).
    previous = set_superblock_enabled(False)
    try:
        with profiled() as profiler:
            workload("gzip").trace(max_instructions=WINDOW)
    finally:
        set_superblock_enabled(previous)
    assert "superblock_replays" not in profiler.counters
    assert profiler.phases["emulate"].seconds < EMULATE_BUDGET, (
        profiler.render()
    )


@pytest.mark.perf
def test_vectorized_timing_budget():
    # simulate() always runs the lean walk; two solo walks must beat
    # half the generous budget.  Fires if the walk falls back to
    # per-cycle probing or per-reference allocation.
    trace = workload("gzip").trace(max_instructions=WINDOW)
    base = table2_config(16)
    with profiled() as profiler:
        simulate(trace, base)
        simulate(trace, base.with_svf(mode="svf", ports=2))
    stat = profiler.phases["timing"]
    assert stat.items == 2 * WINDOW
    assert stat.seconds < TIMING_BUDGET / 2, profiler.render()


@pytest.mark.perf
def test_batched_timing_budget():
    # One batched pass over four configs must fit the budget two
    # sequential walks get: the batch shares the trace walk and the
    # config-invariant precompute instead of multiplying them.  Fires
    # if simulate_batch silently degrades to a per-config loop.
    trace = workload("gzip").trace(max_instructions=WINDOW)
    base = table2_config(16)
    configs = [base] + [
        base.with_svf(mode="svf", ports=ports) for ports in (1, 2, 16)
    ]
    with profiled() as profiler:
        stats = simulate_batch(trace, configs)
    assert len(stats) == len(configs)
    assert profiler.counters["batch_walks_saved"] == len(configs) - 1
    assert profiler.phases["timing"].seconds < TIMING_BUDGET, (
        profiler.render()
    )


@pytest.mark.perf
def test_emulator_throughput_floor():
    # The packed emit path sustains well over 1 MIPS on any host this
    # repo supports; the floor is set 10× below the measured rate.
    with profiled() as profiler:
        workload("crafty").trace(max_instructions=WINDOW)
    stat = profiler.phases["emulate"]
    assert stat.items == WINDOW
    assert stat.mips > 0.1, profiler.render()
