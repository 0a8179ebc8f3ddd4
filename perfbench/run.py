"""The repository's benchmark: one command, three named workloads.

Run from the root of a checkout::

    python3 perfbench/run.py --workload emulate-full --seed 1 --seconds 30 --trace 0

Workloads (see ``perfbench/README.md`` for why each was chosen and the
layer -> end-to-end prediction table):

* ``report-cold``     — ``repro report --jobs 2`` against a fresh, empty
  cache directory (fixed inputs: the seed is recorded, not used);
* ``emulate-full``    — compile, certify, emulate to completion,
  validate, save/load and characterize one input set per benchmark;
* ``simulate-single`` — one timing-model walk per trace on one config,
  traces built during set-up.

Every repetition runs in a fresh interpreter (``rep.py``).  With
``--trace 0`` the timed repetitions run untraced and the last stdout
line carries the end-to-end metrics; with ``--trace 1`` untraced and
traced repetitions alternate, the traced spans are written as Chrome
trace-event JSON under ``.perfbench/`` and the last line carries the
per-layer metrics.  Every output is checked against ``goldens.json``;
a mismatch, a degraded report cell, a leaked ``/dev/shm/svf-*``
segment or a leftover worker process counts as a failure and the
command exits 1.  ``--write-goldens`` recomputes ``goldens.json``.
"""

from __future__ import annotations

import argparse
import glob
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time

from spans import layer_table

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
REP = os.path.join(HERE, "rep.py")
GOLDENS = os.path.join(HERE, "goldens.json")
OUT = os.path.join(ROOT, ".perfbench")

WORKLOADS = ("report-cold", "emulate-full", "simulate-single")

#: Environment gates that select a non-default leg of the program.
LEG_GATES = ("REPRO_SUPERBLOCK", "REPRO_BATCH")

#: ``setup_s`` is the median over at least this many set-ups: the
#: timed repetitions' own, topped up by set-up-only repetitions.
SETUP_SAMPLES = 5

#: Wall-clock budget of one invocation (the contract allows 180 s).
BUDGET_S = 165.0


class BenchError(Exception):
    """A repetition crashed or the checkout cannot run the benchmark."""


def shm_segments() -> set:
    return set(glob.glob("/dev/shm/svf-*"))


def tagged_processes(token: str) -> list:
    """Live processes whose environment carries this repetition's token."""
    marker = f"PERFBENCH_TOKEN={token}".encode()
    found = []
    for entry in os.listdir("/proc"):
        if not entry.isdigit() or int(entry) == os.getpid():
            continue
        try:
            with open(f"/proc/{entry}/environ", "rb") as stream:
                environ = stream.read()
            with open(f"/proc/{entry}/stat") as stream:
                state = stream.read().rsplit(")", 1)[1].split()[0]
        except OSError:
            continue
        if state != "Z" and marker in environ.split(b"\0"):
            found.append(int(entry))
    return found


def reap(token: str) -> list:
    """Kill leftover descendants of a repetition; returns their pids."""
    leaked = tagged_processes(token)
    for pid in leaked:
        try:
            os.kill(pid, signal.SIGKILL)
        except OSError:
            pass
    deadline = time.monotonic() + 10.0
    while tagged_processes(token) and time.monotonic() < deadline:
        time.sleep(0.05)
    return leaked


def launch(mode: str, workload: str, seed: int, scratch: str,
           timeout: float, spans_out: str = None) -> dict:
    """Run one repetition in a fresh interpreter; returns its result."""
    token = os.urandom(8).hex()
    env = dict(os.environ)
    env.update({
        "PYTHONPATH": os.pathsep.join(
            [SRC] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
        ),
        "TMPDIR": scratch,
        "XDG_CACHE_HOME": os.path.join(scratch, "xdg-cache"),
        "PERFBENCH_TOKEN": token,
    })
    argv = [sys.executable, REP, "--mode", mode, "--seed", str(seed),
            "--scratch", scratch]
    if workload:
        argv += ["--workload", workload]
    if spans_out:
        argv += ["--spans-out", spans_out]
    segments = shm_segments()
    # Output goes to files, not pipes: a leaked worker holding a pipe
    # open would block the read long after the repetition exited.
    out_path = os.path.join(scratch, f"rep-{token}.out")
    err_path = os.path.join(scratch, f"rep-{token}.err")
    started = time.monotonic()
    with open(out_path, "w") as out, open(err_path, "w") as err:
        proc = subprocess.Popen(
            argv + ["--spawned", repr(started)], env=env, cwd=ROOT,
            stdout=out, stderr=err,
        )
        try:
            returncode = proc.wait(timeout=timeout)
        except subprocess.TimeoutExpired:
            proc.kill()
            returncode = proc.wait()
            timeout = None
    elapsed = time.monotonic() - started
    leaks = [f"leftover worker process {pid}" for pid in reap(token)]
    for path in sorted(shm_segments() - segments):
        leaks.append(f"leftover shm segment {os.path.basename(path)}")
        try:
            os.unlink(path)
        except OSError:
            pass
    with open(out_path) as out, open(err_path) as err:
        stdout, stderr = out.read(), err.read()
    os.remove(out_path)
    os.remove(err_path)
    if timeout is None:
        raise BenchError(f"{mode} repetition exceeded its time budget")
    if returncode != 0:
        raise BenchError(
            f"{mode} repetition exited {returncode}:\n" + stderr[-4000:]
        )
    result = json.loads(stdout.strip().splitlines()[-1])
    result["elapsed_s"] = elapsed
    result["failures"] = result.get("failures", []) + leaks
    return result


def run_workload(args, scratch: str, spec: dict) -> int:
    started = time.monotonic()

    def remaining() -> float:
        return BUDGET_S - (time.monotonic() - started)

    def launch_rep(mode, spans_out=None):
        return launch(mode, args.workload, args.seed, scratch,
                      max(remaining(), 1.0), spans_out)

    timed, traced = [], []
    spans_out = os.path.join(
        OUT, f"spans-{args.workload}-seed{args.seed}.json"
    )
    while True:
        cycle = time.monotonic()
        timed.append(launch_rep("timed"))
        if args.trace:
            traced.append(launch_rep("traced", spans_out))
        cost = time.monotonic() - cycle
        measured = sum(rep["wall_s"] for rep in timed)
        # Stop before the next cycle could overrun the budget: a slow
        # spell on a shared host stretches a cycle by a quarter or more.
        if (measured + timed[-1]["wall_s"] > args.seconds
                or 1.5 * cost > remaining()):
            break
    setup_only = []
    while len(timed) + len(traced) + len(setup_only) < SETUP_SAMPLES:
        setup_only.append(launch_rep("setup"))
    setups = [rep["setup_s"] for rep in timed + traced + setup_only]

    reps = timed + traced
    attempted = sum(rep["attempted"] for rep in reps)
    failures = [
        msg for rep in reps + setup_only for msg in rep["failures"]
    ]
    failed = len(failures)
    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    if args.trace:
        overhead = (
            statistics.median([rep["wall_s"] for rep in traced])
            - statistics.median([rep["wall_s"] for rep in timed])
        )
        values = {
            name: statistics.median([rep["layers"][name] for rep in traced])
            for name in traced[0]["layers"]
        }
        values["tracing.overhead_s"] = overhead
        names = [m["name"] for m in spec["per_layer"]]
        last = traced[-1]
        print(f"per-layer self time, {args.workload} seed {args.seed} "
              f"(last traced repetition; spans in {os.path.relpath(spans_out, ROOT)}):")
        print(layer_table(last["self_times"], last["wall_s"], overhead))
        if args.workload == "report-cold":
            print("worker busy time (2 workers), from the profiler snapshot:")
            for name in ("lang.compile_s", "emulator.run_s", "trace.analysis_s",
                         "uarch.timing_s", "core.traffic_s",
                         "harness.unattributed_s"):
                print(f"  {name:24s} {last['layers'][name]:9.4f}")
    else:
        values = {
            "wall_s": statistics.median([rep["wall_s"] for rep in timed]),
            "cpu_s": statistics.median([rep["cpu_s"] for rep in timed]),
            "setup_s": statistics.median(setups),
            "peak_rss_mb": statistics.median([rep["peak_rss_mb"] for rep in timed]),
            "sim_mips": statistics.median([rep["sim_mips"] for rep in timed]),
        }
        names = [m["name"] for m in spec["end_to_end"]]
    metrics = {name: {"value": values[name], "unit": units[name]} for name in names}

    detail = {
        "workload": args.workload,
        "seed": args.seed,
        "seed_use": (
            "inputs fixed; the seed does not change the report"
            if args.workload == "report-cold"
            else "picks one input set per benchmark and the run order"
        ),
        "inputs": timed[0]["inputs"],
        "host": timed[0]["host"],
        "repetitions": {
            "setup_s": setups,
            "timed": [{k: rep[k] for k in ("wall_s", "cpu_s", "peak_rss_mb",
                                            "sim_mips", "setup_s")}
                      for rep in timed],
            "traced_wall_s": [rep["wall_s"] for rep in traced],
        },
        "simulated_instructions": timed[0]["instructions"],
        "failed_frac": failed / attempted if attempted else 0.0,
        "failures": failures,
        "metrics": values,
    }
    os.makedirs(OUT, exist_ok=True)
    with open(os.path.join(
        OUT, f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json"
    ), "w") as stream:
        json.dump(detail, stream, indent=1)
    for message in failures:
        print(f"FAILED: {message}")
    print(json.dumps(detail, sort_keys=True))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0 if failed == 0 else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description="Run one workload of the repository benchmark."
    )
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--write-goldens", action="store_true",
                        help="recompute goldens.json from the current code")
    args = parser.parse_args(argv)

    gates = [name for name in LEG_GATES if name in os.environ]
    if gates:
        print(f"perfbench: refusing to run with {', '.join(gates)} set: "
              "the benchmark measures the default legs", file=sys.stderr)
        return 2
    if not os.path.isfile(os.path.join(SRC, "repro", "__init__.py")):
        print(f"perfbench: no repro package under {SRC}", file=sys.stderr)
        return 2
    if not args.write_goldens and (
        args.workload is None or not os.path.isfile(GOLDENS)
    ):
        print("perfbench: need --workload and perfbench/goldens.json",
              file=sys.stderr)
        return 2
    with open(os.path.join(ROOT, "BENCHMARK.json")) as stream:
        spec = json.load(stream)

    os.makedirs(os.path.join(OUT, "tmp"), exist_ok=True)
    scratch = os.path.join(OUT, "tmp", f"run-{os.getpid()}")
    os.makedirs(scratch)
    try:
        if args.write_goldens:
            goldens = launch("goldens", None, 0, scratch, timeout=1800.0)
            goldens.pop("elapsed_s")
            goldens.pop("failures")
            with open(GOLDENS, "w") as stream:
                json.dump(goldens, stream, indent=1, sort_keys=True)
                stream.write("\n")
            return 0
        return run_workload(args, scratch, spec)
    except BenchError as error:
        print(f"perfbench: {error}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(scratch, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
