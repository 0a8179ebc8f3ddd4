"""Frozen outputs of the timing and traffic models.

The reference and lean timing walks share the DL1, SVF and stack-cache
model classes, so a differential test between them cannot see a bug in
those classes.  This gate compares against outputs frozen from the
model code as it stood before its hot paths were optimised:

* every :class:`~repro.uarch.stats.SimStats` field for all 13
  workloads at a 5k window, over the distinct Figure 5/6/7/9 machine
  configs plus one config per knob the walk branches on;
* every :class:`~repro.core.traffic.TrafficResult` field for all 18
  input sets at 2/4/8 KB and at the Table 4 context-switch period.

A model change that is meant to move these numbers regenerates them::

    PYTHONPATH=src python -m tests.test_model_goldens --write
"""

from __future__ import annotations

import dataclasses
import json
import sys
from pathlib import Path

import pytest

from repro.core.traffic import simulate_traffic
from repro.harness.experiments import (
    FIG5_CONFIGS,
    FIG6_STEPS,
    FIG7_CONFIGS,
    FIG9_CONFIGS,
    fig5_machine_pair,
    fig6_machine_pair,
    fig7_machine_pair,
    fig9_machine_pair,
)
from repro.uarch.config import table2_config
from repro.uarch.pipeline import simulate_batch
from repro.workloads import ALL_BENCHMARKS, workload
from repro.workloads.registry import input_names

GOLDEN_PATH = Path(__file__).parent / "data" / "model_goldens.json"

TIMING_WINDOW = 5_000
TRAFFIC_WINDOW = 40_000
TRAFFIC_SIZES = (2048, 4096, 8192)
#: Table 4's context-switch period (repro.harness.experiments).
TABLE4_PERIOD = 25_000


def figure_configs():
    """(label, config) for every distinct Fig 5/6/7/9 machine config."""
    labelled = []
    for figure, labels, pair in (
        ("fig5", FIG5_CONFIGS, fig5_machine_pair),
        ("fig6", FIG6_STEPS, fig6_machine_pair),
        ("fig7", FIG7_CONFIGS, fig7_machine_pair),
        ("fig9", FIG9_CONFIGS, fig9_machine_pair),
    ):
        for label in labels:
            base, variant = pair(label)
            labelled.append((f"{figure}:{label}:base", base))
            labelled.append((f"{figure}:{label}", variant))
    return _distinct(labelled)


def knob_configs():
    """(label, config): one config per knob the timing walk branches on."""
    base = table2_config(16)
    svf = base.with_svf(mode="svf", ports=2)
    return [
        ("knob:banks4", base.with_svf(mode="svf", ports=1, banks=4)),
        # A hair trigger, so short windows actually disable the SVF.
        ("knob:adaptive", base.with_svf(
            mode="svf", ports=2, adaptive=True, adaptive_window=250,
            adaptive_threshold=1, adaptive_off_period=1_000)),
        ("knob:context_switch", svf.with_(context_switch_period=2_000)),
        ("knob:granularity32", base.with_svf(
            mode="svf", ports=2, granularity=32)),
        ("knob:agu_depth3", svf.with_(agu_depth=3)),
        ("knob:no_squash", base.with_svf(
            mode="svf", ports=2, no_squash=True)),
        ("knob:no_spec_sp", base.with_svf(
            mode="svf", ports=2, spec_sp=False)),
        ("knob:gshare_svf", svf.with_(branch_predictor="gshare")),
        ("knob:svf_256B", base.with_svf(
            mode="svf", ports=16, capacity_bytes=256)),
    ]


def timing_configs():
    return _distinct(figure_configs() + knob_configs())


def _distinct(labelled):
    seen = set()
    out = []
    for label, config in labelled:
        if config not in seen:
            seen.add(config)
            out.append((label, config))
    return out


def compute_timing(bench):
    configs = timing_configs()
    trace = workload(bench).trace(max_instructions=TIMING_WINDOW)
    stats = simulate_batch(trace, [config for _, config in configs])
    return {
        label: dataclasses.asdict(run)
        for (label, _), run in zip(configs, stats)
    }


def input_sets():
    """All 18 input sets: the paper's 17 plus ``x86mix.ref``."""
    return [
        workload(bench, name)
        for bench in ALL_BENCHMARKS
        for name in input_names(bench)
    ]


def traffic_cases():
    cases = [(f"{size}B", size, None) for size in TRAFFIC_SIZES]
    cases.append((f"8192B@{TABLE4_PERIOD}", 8192, TABLE4_PERIOD))
    return cases


def compute_traffic(work):
    trace = work.trace(max_instructions=TRAFFIC_WINDOW)
    return {
        label: dataclasses.asdict(simulate_traffic(
            trace, capacity_bytes=size, context_switch_period=period,
        ))
        for label, size, period in traffic_cases()
    }


def compute_all():
    return {
        "timing_window": TIMING_WINDOW,
        "traffic_window": TRAFFIC_WINDOW,
        "timing": {bench: compute_timing(bench) for bench in ALL_BENCHMARKS},
        "traffic": {
            work.full_name: compute_traffic(work) for work in input_sets()
        },
    }


@pytest.fixture(scope="module")
def goldens():
    return json.loads(GOLDEN_PATH.read_text())


def test_config_coverage(goldens):
    assert len(figure_configs()) == 19
    labels = [label for label, _ in timing_configs()]
    for bench in ALL_BENCHMARKS:
        assert sorted(goldens["timing"][bench]) == sorted(labels)
    assert goldens["timing_window"] == TIMING_WINDOW
    assert goldens["traffic_window"] == TRAFFIC_WINDOW
    assert len(goldens["traffic"]) == len(input_sets()) == 18


def _assert_fields_equal(expected, actual, where):
    assert sorted(actual) == sorted(expected), where
    for name, value in expected.items():
        assert actual[name] == value, (
            f"{where}: {name} diverged "
            f"(golden {value!r}, now {actual[name]!r})"
        )


@pytest.mark.parametrize("bench", ALL_BENCHMARKS)
def test_timing_matches_golden(goldens, bench):
    actual = compute_timing(bench)
    for label, expected in goldens["timing"][bench].items():
        _assert_fields_equal(expected, actual[label], f"{bench} {label}")


@pytest.mark.parametrize(
    "work", input_sets(), ids=lambda work: work.full_name
)
def test_traffic_matches_golden(goldens, work):
    actual = compute_traffic(work)
    for label, expected in goldens["traffic"][work.full_name].items():
        _assert_fields_equal(
            expected, actual[label], f"{work.full_name} {label}"
        )


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit("usage: python -m tests.test_model_goldens --write")
    GOLDEN_PATH.parent.mkdir(exist_ok=True)
    GOLDEN_PATH.write_text(
        json.dumps(compute_all(), indent=1, sort_keys=True) + "\n"
    )
    print(f"wrote {GOLDEN_PATH}")
