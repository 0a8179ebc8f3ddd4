"""One repetition of one benchmark workload, in a fresh interpreter.

``run.py`` starts this script once per repetition, so every repetition
pays the interpreter start and the ``repro`` imports, as a user's
command does.  Modes:

* ``setup``  — prepare the workload, report ``setup_s``, exit;
* ``timed``  — prepare, run the timed phase untraced, check outputs;
* ``traced`` — the same with spans and the :mod:`repro.profiling`
  profiler on; also reports per-layer figures and writes the spans;
* ``goldens`` — compute the expected outputs of every input set.

The last stdout line is one JSON object; ``run.py`` reads it.

Usage (normally only via ``run.py``)::

    python3 perfbench/rep.py --workload NAME --seed N --mode MODE \
        --spawned MONOTONIC_SECONDS --scratch DIR
"""

from __future__ import annotations

import argparse
import dataclasses
import hashlib
import itertools
import json
import os
import random
import resource
import shutil
import sys
import tempfile
import time
from array import array
from contextlib import nullcontext

from spans import STRUCTURAL, Tracer

HERE = os.path.dirname(os.path.abspath(__file__))
GOLDENS = os.path.join(HERE, "goldens.json")

#: simulate-single: instructions per trace and the one timed config.
WINDOW = 200_000
SIM_CONFIG = {"width": 16, "svf_mode": "svf", "svf_ports": 2}

#: report-cold: worker processes (the host has 2 CPUs).
REPORT_JOBS = 2

#: report phases (merged from the workers' profiler snapshots) -> the
#: layer span names the in-process workloads record themselves; other
#: phases (render) map to ``harness.<phase>``.
PHASE_LAYERS = {
    "compile": "lang.compile",
    "emulate": "emulator.run",
    "analysis": "trace.analysis",
    "timing": "uarch.timing",
    "traffic": "core.traffic",
}


def cpu_seconds() -> float:
    """User+sys CPU of this process and its reaped children."""
    own = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + kids.ru_utime + kids.ru_stime


def peak_rss_mb() -> float:
    """Highest resident set of this process or any reaped child."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, kids) / 1024.0


def pick_inputs(workload: str, seed: int):
    """One input set per benchmark and the run order, from the seed."""
    from repro.workloads.registry import ALL_BENCHMARKS, input_names

    rng = random.Random(f"{workload}:{seed}")
    picks = [(name, rng.choice(input_names(name))) for name in ALL_BENCHMARKS]
    rng.shuffle(picks)
    return picks


def every_input():
    from repro.workloads.registry import ALL_BENCHMARKS, input_names

    return [(name, inp) for name in ALL_BENCHMARKS for inp in input_names(name)]


# ---------------------------------------------------------------------------
# emulate-full: compile, certify, run to completion, validate, save/load,
# characterize — every input to completion, single-threaded.
# ---------------------------------------------------------------------------


def emulate_setup(picks, scratch, tracer):
    from repro.workloads.registry import workload

    return [workload(name, inp) for name, inp in picks]


def emulate_timed(works, scratch, tracer):
    from repro.analysis.certify import certify_program
    from repro.emulator.machine import Machine
    from repro.emulator.memory import STACK_BASE
    from repro.harness.certification import validate_certificate
    from repro.trace.analysis import (
        AccessDistribution,
        OffsetLocality,
        StackDepthProfile,
        consume_trace,
    )
    from repro.trace.columnar import ColumnarTrace
    from repro.trace.first_touch import FirstTouchProfile
    from repro.trace.serialization import load_trace, save_trace

    path = os.path.join(scratch, "emulate.trace")
    summaries, instructions = {}, 0
    for work in works:
        with tracer.span("bench.program", input=work.full_name):
            with tracer.span("lang.compile"):
                program = work.program()
            with tracer.span("analysis.certify"):
                certificate = certify_program(program, name=work.full_name)
            trace = ColumnarTrace()
            with tracer.span("emulator.run") as span:
                machine = Machine(program)
                machine.run(trace_sink=trace)
            retired = machine.instruction_count
            if tracer.enabled:
                span.annotate(items=retired)
            with tracer.span("analysis.validate"):
                validation = validate_certificate(
                    certificate, trace, halted=machine.halted
                )
            with tracer.span("trace.save") as span:
                save_trace(trace, path)
            if tracer.enabled:
                span.annotate(items=retired, bytes=os.path.getsize(path))
            del trace
            with tracer.span("trace.load"):
                loaded = load_trace(path)
            os.remove(path)
            sinks = (
                AccessDistribution(),
                StackDepthProfile(stack_base=STACK_BASE),
                OffsetLocality(),
                FirstTouchProfile(),
            )
            with tracer.span("trace.analysis") as span:
                fed = consume_trace(loaded, sinks)
            if tracer.enabled:
                span.annotate(items=fed)
            del loaded
            # Summarise now and drop the sinks, so what stays resident
            # does not depend on the seed's run order.
            summaries[work.full_name] = emulate_summary(
                retired, machine.halted, machine.output, validation, sinks
            )
            instructions += retired
            del program, certificate, machine, validation, sinks
    return summaries, instructions


def column_digest(rows) -> str:
    """SHA-256 of a sequence of integer tuples, packed as int64."""
    packed = array("q", itertools.chain.from_iterable(rows))
    return hashlib.sha256(packed.tobytes()).hexdigest()


def emulate_summary(retired, halted, output, validation, sinks) -> dict:
    """The facts the golden file pins for one emulated input."""
    distribution, depth, locality, first_touch = sinks
    return {
        "retired": retired,
        "halted": halted,
        "output": [int(value) for value in output],
        "validation": validation.to_dict(),
        "fig1": {
            "instructions": int(distribution.total_instructions),
            "memory_references": int(distribution.memory_references),
            "counts": {
                method.name: int(count)
                for method, count in distribution.counts.items()
            },
        },
        "fig2": {
            "max_depth": int(depth.max_depth),
            "samples": len(depth.samples),
            "samples_sha256": column_digest(depth.samples),
        },
        "fig3": {
            "total": int(locality.total),
            "sum_offsets": int(locality.sum_offsets),
            "beyond_tos": int(locality.beyond_tos),
            "histogram_sha256": column_digest(sorted(locality.histogram.items())),
        },
        "first_touch": {
            key: int(getattr(first_touch, key))
            for key in ("stack_first_stores", "stack_first_loads",
                        "other_first_stores", "other_first_loads")
        },
    }


# ---------------------------------------------------------------------------
# simulate-single: traces built in set-up, one simulate() per trace.
# ---------------------------------------------------------------------------


def simulate_setup(picks, scratch, tracer):
    from repro.emulator.machine import Machine
    from repro.trace.columnar import ColumnarTrace
    from repro.workloads.registry import workload

    traces = []
    for name, inp in picks:
        work = workload(name, inp)
        with tracer.span("lang.compile"):
            program = work.program()
        trace = ColumnarTrace()
        with tracer.span("emulator.run") as span:
            Machine(program).run(max_instructions=WINDOW, trace_sink=trace)
        if tracer.enabled:
            span.annotate(items=len(trace))
        traces.append((work.full_name, trace))
    return traces


def simulate_timed(traces, scratch, tracer):
    from repro.api import MachineSpec
    from repro.uarch.pipeline import simulate

    config = MachineSpec(**SIM_CONFIG).config()
    stats = []
    for name, trace in traces:
        with tracer.span("uarch.timing", items=len(trace)):
            stats.append((name, simulate(trace, config)))
    return stats, sum(len(trace) for _, trace in traces)


def simulate_outputs(stats):
    return {name: dataclasses.asdict(result) for name, result in stats}


# ---------------------------------------------------------------------------
# report-cold: ``repro report --jobs 2`` against a fresh, empty cache.
# ---------------------------------------------------------------------------


def report_setup(picks, scratch, tracer):
    from repro.api import ReportOptions

    cache = tempfile.mkdtemp(prefix="report-cache-", dir=scratch)
    return cache, ReportOptions(jobs=REPORT_JOBS, cache_dir=cache)


def report_timed(state, scratch, tracer):
    from repro import profiling
    from repro.api import generate_report

    cache, options = state
    try:
        with tracer.span("harness.report"):
            # The traced run passes the active profiler so the workers'
            # phase snapshots are merged into it; untraced, it is None.
            text = generate_report(options, profiler=profiling.active())
    finally:
        shutil.rmtree(cache, ignore_errors=True)
    return text, None


WORKLOADS = {
    "report-cold": (report_setup, report_timed),
    "emulate-full": (emulate_setup, emulate_timed),
    "simulate-single": (simulate_setup, simulate_timed),
}


# ---------------------------------------------------------------------------
# Correctness against the committed goldens
# ---------------------------------------------------------------------------


def check(workload: str, result, goldens: dict):
    """Returns (attempted, failure messages, simulated instructions)."""
    expected = goldens[workload]
    failures = []
    if workload == "report-cold":
        text = result
        sha = hashlib.sha256(text.encode()).hexdigest()
        if sha != expected["report_sha256"]:
            failures.append(f"report sha256 {sha} != golden")
        degraded = text.count("(degraded:")
        failures += [f"degraded cell #{n}" for n in range(degraded)]
        return expected["cells"], failures, expected["instr_config_pairs"]
    outputs = result if workload == "emulate-full" else simulate_outputs(result)
    for name, actual in outputs.items():
        if name not in expected:
            failures.append(f"{name}: no golden")
        elif actual != expected[name]:
            fields = sorted(
                key for key in actual if actual[key] != expected[name].get(key)
            )
            failures.append(f"{name}: mismatch in {fields}")
    return len(outputs), failures, None


# ---------------------------------------------------------------------------
# Per-layer figures of a traced repetition
# ---------------------------------------------------------------------------


def layer_metrics(workload, tracer, profiler, wall, goldens):
    self_times = tracer.self_times()
    calls, items, extra = {}, {}, {}
    for name, _, _, _, args in tracer.spans:
        calls[name] = calls.get(name, 0) + 1
        if args:
            items[name] = items.get(name, 0) + args.get("items", 0)
            extra[name] = extra.get(name, 0) + args.get("bytes", 0)
    counters = profiler.counters
    busy = dict(self_times)
    jobs = 1
    if workload == "report-cold":
        # Worker layers ran in other processes: their busy time comes
        # from the merged profiler snapshot, not from local spans.
        jobs = REPORT_JOBS
        for phase, stat in profiler.phases.items():
            layer = PHASE_LAYERS.get(phase, "harness." + phase)
            busy[layer] = stat.seconds
            calls[layer] = stat.calls
            items[layer] = stat.items

    def seconds(name):
        return busy.get(name, 0.0)

    def rate(name):
        return items.get(name, 0) / seconds(name) / 1e6 if seconds(name) else 0.0

    emulated = items.get("emulator.run", 0)
    timed_pairs = items.get("uarch.timing", 0)
    walks = calls.get("uarch.timing", 0)
    configs = walks + counters.get("batch_walks_saved", 0)
    metrics = {
        "startup.import_s": seconds("startup.import"),
        "lang.compile_s": seconds("lang.compile"),
        "lang.compile_calls": calls.get("lang.compile", 0),
        "analysis.certify_s": seconds("analysis.certify"),
        "analysis.validate_s": seconds("analysis.validate"),
        "emulator.run_s": seconds("emulator.run"),
        "emulator.retired_minstr": emulated / 1e6,
        "emulator.mips": rate("emulator.run"),
        "emulator.superblock_builds": counters.get("superblock_builds", 0),
        "emulator.superblock_replay_frac": (
            counters.get("superblock_replayed_instructions", 0) / emulated
            if emulated else 0.0
        ),
        "trace.save_s": seconds("trace.save"),
        "trace.load_s": seconds("trace.load"),
        "trace.bytes_per_instr": (
            extra.get("trace.save", 0) / items["trace.save"]
            if items.get("trace.save") else 0.0
        ),
        "trace.analysis_s": seconds("trace.analysis"),
        "trace.analysis_mips": rate("trace.analysis"),
        "uarch.timing_s": seconds("uarch.timing"),
        "uarch.walks": walks,
        "uarch.configs_per_walk": configs / walks if walks else 0.0,
        "uarch.ns_per_instr_config": (
            seconds("uarch.timing") / timed_pairs * 1e9 if timed_pairs else 0.0
        ),
        "core.traffic_s": seconds("core.traffic"),
        "core.traffic_mips": rate("core.traffic"),
    }
    harness = dict.fromkeys((
        "harness.cells", "harness.cell_cache_misses",
        "harness.trace_cache_misses", "harness.shm_publishes",
        "harness.shm_bytes", "harness.busy_frac", "harness.unattributed_s",
    ), 0)
    failures = []
    if workload == "report-cold":
        _, start, end, _, _ = next(
            span for span in tracer.spans if span[0] == "harness.report"
        )
        report_wall = end - start
        worker_busy = sum(stat.seconds for stat in profiler.phases.values())
        harness.update({
            "harness.cells": counters.get("cell_cache_hits", 0)
            + counters.get("cell_cache_misses", 0),
            "harness.cell_cache_misses": counters.get("cell_cache_misses", 0),
            "harness.trace_cache_misses": counters.get("trace_cache_misses", 0),
            "harness.shm_publishes": counters.get("shm_trace_publishes", 0),
            "harness.shm_bytes": counters.get("shm_fanout_bytes", 0),
            "harness.busy_frac": worker_busy / (jobs * report_wall),
            # Worker capacity no profiler phase covers: pool spawn,
            # pickling, shm and cache I/O, scheduling gaps.
            "harness.unattributed_s": jobs * report_wall - worker_busy,
        })
        if timed_pairs != goldens["report-cold"]["instr_config_pairs"]:
            failures.append(
                f"timed {timed_pairs} instruction x config pairs, golden "
                f"{goldens['report-cold']['instr_config_pairs']}"
            )
    metrics.update(harness)
    timed = tracer.self_times(root="bench.timed")
    covered = sum(
        value for name, value in timed.items() if not name.startswith(STRUCTURAL)
    )
    metrics["tracing.coverage_frac"] = covered / wall
    metrics["tracing.unattributed_s"] = wall - covered
    return metrics, failures, timed


# ---------------------------------------------------------------------------


def host_block() -> dict:
    import platform

    from repro.emulator.superblock import superblock_enabled
    from repro.trace.columnar import numpy_available, numpy_enabled
    from repro.uarch.pipeline import batch_enabled

    numpy_version = None
    if numpy_available():
        import numpy

        numpy_version = numpy.__version__
    return {
        "python": platform.python_version(),
        "machine": platform.machine(),
        "cpus": os.cpu_count(),
        "numpy": numpy_version,
        "gates": {
            "superblock": superblock_enabled(),
            "batch": batch_enabled(),
            "numpy": numpy_enabled(),
        },
    }


def run_goldens(scratch: str) -> dict:
    """Expected outputs for every input set (not only a seed's picks)."""
    from repro import profiling

    picks = every_input()
    tracer = Tracer(False)
    works = emulate_setup(picks, scratch, tracer)
    summaries, _ = emulate_timed(works, scratch, tracer)
    traces = simulate_setup(picks, scratch, tracer)
    stats, _ = simulate_timed(traces, scratch, tracer)
    state = report_setup(None, scratch, tracer)
    with profiling.profiled() as profiler:
        text, _ = report_timed(state, scratch, tracer)
    cells = profiler.counters.get("cell_cache_misses", 0)
    return {
        "report-cold": {
            "report_sha256": hashlib.sha256(text.encode()).hexdigest(),
            "cells": cells,
            "instr_config_pairs": profiler.phases["timing"].items,
        },
        "emulate-full": summaries,
        "simulate-single": {
            "window": WINDOW,
            "config": SIM_CONFIG,
            **simulate_outputs(stats),
        },
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument(
        "--mode", choices=("setup", "timed", "traced", "goldens"),
        required=True,
    )
    parser.add_argument("--spawned", type=float, required=True)
    parser.add_argument("--scratch", required=True)
    parser.add_argument("--spans-out")
    args = parser.parse_args(argv)

    if args.mode == "goldens":
        print(json.dumps(run_goldens(args.scratch), sort_keys=True))
        return 0

    traced = args.mode == "traced"
    tracer = Tracer(traced)
    with tracer.span("startup.import"):
        import repro.api  # noqa: F401  (the public surface users import)
    from repro import profiling

    setup, timed = WORKLOADS[args.workload]
    picks = None if args.workload == "report-cold" else pick_inputs(
        args.workload, args.seed
    )
    # Traced runs also read the profiler's counters (superblock builds,
    # cache verdicts, shm fan-out) and, for the report, the workers'
    # merged phase times.  Timed runs never install it.
    with profiling.profiled() if traced else nullcontext() as profiler:
        state = setup(picks, args.scratch, tracer)
        setup_s = time.monotonic() - args.spawned
        out = {"setup_s": setup_s, "inputs": picks}
        if args.mode == "setup":
            if args.workload == "report-cold":
                shutil.rmtree(state[0], ignore_errors=True)
            print(json.dumps(out))
            return 0

        cpu_before = cpu_seconds()
        started = time.perf_counter()
        with tracer.span("bench.timed"):
            result, instructions = timed(state, args.scratch, tracer)
        wall = time.perf_counter() - started
        cpu = cpu_seconds() - cpu_before
        del state

    with open(GOLDENS) as stream:
        goldens = json.load(stream)
    attempted, failures, stated = check(args.workload, result, goldens)
    instructions = stated if instructions is None else instructions
    out.update({
        "wall_s": wall,
        "cpu_s": cpu,
        "peak_rss_mb": peak_rss_mb(),
        "sim_mips": instructions / wall / 1e6,
        "instructions": instructions,
        "attempted": attempted,
        "failures": failures,
        "host": host_block(),
    })
    if traced:
        metrics, extra_failures, self_times = layer_metrics(
            args.workload, tracer, profiler, wall, goldens
        )
        out["layers"] = metrics
        out["self_times"] = self_times
        out["failures"] += extra_failures
        if args.spans_out:
            tracer.write_chrome(args.spans_out, {
                "workload": args.workload, "seed": args.seed,
                "host": out["host"], "profile": profiler.snapshot(),
            })
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
