"""Measure the batched sweep engine: one trace walk per workload.

Regenerates ``benchmarks/results/sweep_timing.txt``::

    PYTHONPATH=src python benchmarks/measure_sweep.py [--jobs 1]

For each committed timing suite (``svf_size.yaml``, ``banking.yaml``)
two runs are timed: one on a cold cache, and one on the warm cache the
first run left behind.  Both runs' ``run_table.json`` and
``summary.txt`` are compared byte-for-byte, so the artifact doubles as
a determinism check: resuming a fused group from its members' cache
entries must not move a single byte of output.

Each measurement runs in a fresh interpreter (``--run-one`` re-invokes
this script).  A long-lived parent would hand the warm run module-level
state — decoded programs, in-process trace caches — on top of the disk
cache it is meant to measure.  A subprocess per measurement is the only
reliable cold start.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

from bench_json import write_bench_json

RESULTS = Path(__file__).parent / "results" / "sweep_timing.txt"
SUITES_DIR = Path(__file__).parent / "suites"
SUITES = ("svf_size", "banking")


def run_one(args) -> int:
    """Child mode: one timed sweep run, JSON result on stdout."""
    from repro import api

    options = api.SweepOptions(
        jobs=args.jobs,
        cache_dir=args.cache_dir,
        use_cache=args.cache_dir is not None,
    )
    started = time.perf_counter()
    result = api.sweep(args.run_one, options=options)
    elapsed = time.perf_counter() - started
    out = Path(args.out_prefix)
    out.with_suffix(".run_table.json").write_text(
        result.run_table_json() + "\n"
    )
    out.with_suffix(".summary.txt").write_text(result.render_summary() + "\n")
    print(
        json.dumps(
            {
                "seconds": elapsed,
                "rows": len(result.rows),
                "cache_hits": sum(1 for r in result.rows if r.cache_hit),
            }
        )
    )
    return 0


def timed_run(suite: str, name: str, cache_dir: str, args) -> tuple:
    """Time one sweep run in a fresh interpreter."""
    out_prefix = Path(cache_dir) / f"run-{name}"
    proc = subprocess.run(
        [
            sys.executable,
            __file__,
            "--run-one",
            str(SUITES_DIR / f"{suite}.yaml"),
            "--jobs",
            str(args.jobs),
            "--cache-dir",
            cache_dir,
            "--out-prefix",
            str(out_prefix),
        ],
        capture_output=True,
        text=True,
        check=True,
    )
    payload = json.loads(proc.stdout.strip().splitlines()[-1])
    texts = tuple(
        out_prefix.with_suffix(suffix).read_text()
        for suffix in (".run_table.json", ".summary.txt")
    )
    return payload, texts


def measure_suite(suite: str, args) -> dict:
    """Cold, then warm on the cache the cold run left — fresh cache."""
    cache_dir = tempfile.mkdtemp(prefix="repro-measure-sweep-")
    try:
        cold, cold_texts = timed_run(suite, "cold", cache_dir, args)
        warm, warm_texts = timed_run(suite, "warm", cache_dir, args)
    finally:
        shutil.rmtree(cache_dir, ignore_errors=True)
    return {
        "rows": cold["rows"],
        "cold_seconds": cold["seconds"],
        "warm_seconds": warm["seconds"],
        "warm_cache_hits": warm["cache_hits"],
        "identical": cold_texts == warm_texts,
    }


def main() -> int:
    cli = argparse.ArgumentParser(description=__doc__)
    cli.add_argument("--jobs", type=int, default=1)
    cli.add_argument("--run-one", default=None, help=argparse.SUPPRESS)
    cli.add_argument("--cache-dir", default=None, help=argparse.SUPPRESS)
    cli.add_argument("--out-prefix", default=None, help=argparse.SUPPRESS)
    args = cli.parse_args()
    if args.run_one is not None:
        return run_one(args)

    measured = {suite: measure_suite(suite, args) for suite in SUITES}

    all_identical = all(m["identical"] for m in measured.values())
    lines = [
        "Batched sweep engine: one trace walk per workload",
        f"(--jobs {args.jobs}; host: {os.cpu_count()} CPU(s); "
        "each run in a fresh interpreter)",
        "",
        f"{'suite':10s} {'rows':>4s} {'cold':>7s} {'warm':>7s}",
    ]
    for suite, m in measured.items():
        lines.append(
            f"{suite:10s} {m['rows']:4d} "
            f"{m['cold_seconds']:6.1f}s "
            f"{m['warm_seconds']:6.1f}s"
        )
    lines += [
        "",
        "run_table.json + summary.txt byte-identical across cold / warm "
        f"runs: {'yes' if all_identical else 'NO'}",
        "",
        "caveat: host-dependent wall clock.  Warm runs are bounded by",
        "cache lookups, so their absolute times say nothing about the",
        "timing walk.",
    ]
    if (os.cpu_count() or 1) == 1:
        lines.append(
            "caveat: single-CPU host — --jobs cannot add parallel "
            "speedup on top of batching here."
        )
    text = "\n".join(lines)
    print(text)
    RESULTS.write_text(text + "\n")

    results = {"jobs": args.jobs, "suites": {}}
    for suite, m in measured.items():
        results["suites"][suite] = {
            "rows": m["rows"],
            "cold_seconds": round(m["cold_seconds"], 3),
            "warm_seconds": round(m["warm_seconds"], 3),
            "warm_cache_hits": m["warm_cache_hits"],
            "outputs_byte_identical": m["identical"],
        }
    json_path = write_bench_json("sweep", results)
    print(f"\nwrote {RESULTS}")
    print(f"wrote {json_path}")
    return 0 if all_identical else 1


if __name__ == "__main__":
    raise SystemExit(main())
