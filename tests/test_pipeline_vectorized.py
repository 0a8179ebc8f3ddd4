"""Differential gate for the lean timing walk.

``simulate`` always runs the lean walk (``_fast_stepper``); the plain
``_reference_stepper`` is kept as its oracle.  The two must agree
bit-for-bit on every statistic, across every configuration axis the
lean walk specializes (routing modes, banking, squashes, adaptive
windows, context switches, real branch prediction).
"""

import dataclasses

import pytest

from repro.trace.columnar import ColumnarTrace
from repro.uarch.config import table2_config
from repro.uarch.pipeline import _simulate_reference, simulate
from repro.workloads import workload

WINDOW = 8_000

_BASE = table2_config(16)

#: every configuration axis the fast walk special-cases.
CONFIGS = {
    "base": _BASE,
    "svf": _BASE.with_svf(mode="svf", ports=2),
    "svf_banked": _BASE.with_svf(mode="svf", ports=1, banks=4),
    "ideal": _BASE.with_svf(mode="ideal"),
    "stack_cache": _BASE.with_svf(mode="stack_cache"),
    "adaptive": _BASE.with_svf(mode="svf", ports=2, adaptive=True),
    "no_squash": _BASE.with_svf(mode="svf", ports=2, no_squash=True),
    "ctx_switch": dataclasses.replace(
        _BASE.with_svf(mode="svf", ports=2), context_switch_period=2_000
    ),
    "gshare": dataclasses.replace(
        _BASE.with_svf(mode="svf", ports=2), branch_predictor="gshare"
    ),
}


def _both_walks(trace, config):
    reference = _simulate_reference(
        ColumnarTrace.from_records(trace), config
    )
    return reference, simulate(trace, config)


def _assert_stats_equal(reference, fast, label):
    for field in dataclasses.fields(reference):
        ref_value = getattr(reference, field.name)
        fast_value = getattr(fast, field.name)
        assert fast_value == ref_value, (
            f"{label}: {field.name} diverged "
            f"(reference {ref_value!r}, fast {fast_value!r})"
        )


@pytest.fixture(scope="module")
def gzip_trace():
    return workload("gzip").trace(max_instructions=WINDOW)


@pytest.mark.parametrize("name", sorted(CONFIGS))
def test_fast_walk_matches_reference(gzip_trace, name):
    reference, fast = _both_walks(gzip_trace, CONFIGS[name])
    _assert_stats_equal(reference, fast, name)


@pytest.mark.parametrize("bench", ["crafty", "mcf", "perlbmk"])
def test_fast_walk_across_workload_shapes(bench):
    # Three very different reference structures: deep recursion
    # (crafty), pointer chasing (mcf), and an interpreter loop
    # (perlbmk) — between them they exercise rerouting, out-of-range
    # offsets, and dense stack reuse.
    trace = workload(bench).trace(max_instructions=WINDOW)
    for name in ("base", "svf", "ideal", "gshare"):
        reference, fast = _both_walks(trace, CONFIGS[name])
        _assert_stats_equal(reference, fast, f"{bench}:{name}")


def test_empty_trace_is_identical():
    reference, fast = _both_walks(ColumnarTrace(), CONFIGS["svf"])
    _assert_stats_equal(reference, fast, "empty")
    assert fast.instructions == 0


def test_record_list_routes_through_reference(gzip_trace):
    # Non-columnar input (a plain record list) is packed on entry and
    # gives the same results as the reference walk.
    records = list(gzip_trace.records())[:1_000]
    reference, fast = _both_walks(records, CONFIGS["svf"])
    _assert_stats_equal(reference, fast, "records")
