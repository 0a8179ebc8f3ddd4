"""Sweep suite descriptor validation and deterministic expansion.

Every malformation must surface as :class:`repro.errors.UsageError`
*before* any cell runs (the CLI maps it to exit 2), and expansion must
be a pure function of the descriptor — same text, same run table.
"""

import json

import pytest

from repro.errors import UsageError
from repro.sweepspec import SweepSpec, load_suite, parse_suite


def suite_data(**overrides):
    """A minimal valid descriptor, overridable per test."""
    data = {
        "suite": "unit",
        "kind": "timing",
        "workloads": ["gzip", "mcf"],
        "window": 2000,
        "repetitions": 1,
        "base": {"machine": {"svf_mode": "svf"}},
        "grid": {"svf_ports": [1, 2]},
    }
    data.update(overrides)
    return data


# ---------------------------------------------------------------------------
# Validation errors (all UsageError, all before anything runs)
# ---------------------------------------------------------------------------


def test_unknown_workload_rejected_with_offender_named():
    with pytest.raises(UsageError, match="nosuchbench"):
        parse_suite(suite_data(workloads=["gzip", "nosuchbench"]))


def test_unknown_grid_axis_rejected():
    with pytest.raises(UsageError, match="unknown grid axis 'frobnicate'"):
        parse_suite(suite_data(grid={"frobnicate": [1, 2]}))


def test_zero_repetitions_rejected():
    with pytest.raises(UsageError, match="repetitions"):
        parse_suite(suite_data(repetitions=0))


def test_unknown_kind_rejected():
    with pytest.raises(UsageError, match="unknown kind 'parametric'"):
        parse_suite(suite_data(kind="parametric"))


def test_unknown_top_level_key_rejected():
    with pytest.raises(UsageError, match="unknown keys: sweeps"):
        parse_suite(suite_data(sweeps={}))


def test_suite_name_must_be_filename_safe():
    with pytest.raises(UsageError, match="filename-safe"):
        parse_suite(suite_data(suite="has spaces/slash"))


def test_grid_levels_must_be_nonempty_lists():
    with pytest.raises(UsageError, match="needs a list of levels"):
        parse_suite(suite_data(grid={"svf_ports": 2}))
    with pytest.raises(UsageError, match="has no levels"):
        parse_suite(suite_data(grid={"svf_ports": []}))
    with pytest.raises(UsageError, match="repeats a level"):
        parse_suite(suite_data(grid={"svf_ports": [2, 2]}))


def test_opt_level_is_not_a_grid_axis():
    with pytest.raises(UsageError, match="top-level opt_levels"):
        parse_suite(suite_data(grid={"opt_level": [0, 1]}))


def test_traffic_sweeps_reject_machine_level_axes():
    with pytest.raises(UsageError, match="no effect on a traffic sweep"):
        parse_suite(suite_data(
            kind="traffic", grid={"svf_ports": [1, 2]}
        ))
    # The SVF-structure axes are fine.
    spec = parse_suite(suite_data(
        kind="traffic", base=None, grid={"svf_granularity": [8, 16]}
    ))
    assert spec.total_cells() == 4


def test_invalid_machine_point_caught_eagerly():
    # width 12 is not a Table-2 column; must fail at parse time with
    # the offending combo named, not mid-sweep inside a worker.
    with pytest.raises(UsageError, match="width=12"):
        parse_suite(suite_data(grid={"width": [8, 12]}))


def test_traffic_svf_geometry_checked_at_load_time():
    # The traffic model builds its SVF from every expanded pair, so a
    # capacity that is not a multiple of the granularity is a usage
    # error before anything runs, not a degraded row.
    with pytest.raises(UsageError, match="svf_granularity=16"):
        parse_suite(suite_data(
            kind="traffic", base={"machine": {"svf_capacity": 100}},
            grid={"svf_granularity": [16]},
        ))
    with pytest.raises(UsageError, match="power of two"):
        parse_suite(suite_data(
            kind="traffic", base=None,
            grid={"svf_capacity": [520], "svf_granularity": [8, 40]},
        ))


def test_timing_svf_geometry_and_ports_checked_at_load_time():
    with pytest.raises(UsageError, match="power of two"):
        parse_suite(suite_data(grid={"svf_granularity": [8, 40]}))
    with pytest.raises(UsageError, match="svf_ports=0"):
        parse_suite(suite_data(grid={"svf_ports": [0, 1]}))
    with pytest.raises(UsageError, match="dl1_ports=0"):
        parse_suite(suite_data(grid={"dl1_ports": [0]}))


def test_bad_opt_levels_rejected():
    with pytest.raises(UsageError, match="0 or 1"):
        parse_suite(suite_data(opt_levels=[0, 3]))
    with pytest.raises(UsageError, match="repeats"):
        parse_suite(suite_data(opt_levels=[0, 0]))


# ---------------------------------------------------------------------------
# Expansion: deterministic, canonical, deduplicated
# ---------------------------------------------------------------------------


def test_expansion_counts_and_canonical_order():
    spec = parse_suite(suite_data(repetitions=2))
    points = spec.expand()
    assert len(points) == spec.total_cells() == 2 * 1 * 2 * 2
    # Workload-major, then combo, then repetition.
    assert [
        (p.workload, p.level("svf_ports"), p.repetition)
        for p in points
    ] == [
        ("164.gzip", 1, 0), ("164.gzip", 1, 1),
        ("164.gzip", 2, 0), ("164.gzip", 2, 1),
        ("181.mcf", 1, 0), ("181.mcf", 1, 1),
        ("181.mcf", 2, 0), ("181.mcf", 2, 1),
    ]
    # Expansion is a pure function of the descriptor.
    again = parse_suite(suite_data(repetitions=2))
    assert again.expand() == points


def test_union_grids_dedupe_on_resolved_machine():
    spec = parse_suite(suite_data(grid=[
        {"svf_ports": [1, 2]},
        {"svf_ports": [1], "svf_banks": [0, 4]},
    ]))
    combos = spec.combos()
    # (ports=1, banks=0) from block 2 resolves to the same machine as
    # (ports=1) from block 1 — first occurrence wins.
    assert combos == [
        (("svf_ports", 1),),
        (("svf_ports", 2),),
        (("svf_ports", 1), ("svf_banks", 4)),
    ]
    assert spec.factor_names == ("svf_ports", "svf_banks")


def test_base_overrides_merge_under_every_combo():
    spec = parse_suite(suite_data(
        base={"machine": {"svf_mode": "svf", "no_squash": True}}
    ))
    for point in spec.expand():
        machine = dict(point.machine)
        assert machine["svf_mode"] == "svf"
        assert machine["no_squash"] is True
        config = point.machine_spec().config()
        assert config.svf.ports == point.level("svf_ports")


def test_gridless_suite_is_a_single_base_point():
    spec = parse_suite(suite_data(grid=None))
    assert spec.combos() == [()]
    assert spec.total_cells() == len(spec.workloads)


# ---------------------------------------------------------------------------
# File loading (JSON via stdlib; YAML errors become usage errors)
# ---------------------------------------------------------------------------


def test_load_json_descriptor(tmp_path):
    path = tmp_path / "unit.json"
    path.write_text(json.dumps(suite_data()))
    spec = load_suite(str(path))
    assert isinstance(spec, SweepSpec)
    assert spec.name == "unit"
    assert spec.source == str(path)
    # source is provenance only: equal to the in-memory parse.
    assert spec == parse_suite(suite_data())


def test_load_missing_and_invalid_descriptors(tmp_path):
    with pytest.raises(UsageError, match="no such suite descriptor"):
        load_suite(str(tmp_path / "absent.yaml"))
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    with pytest.raises(UsageError, match="invalid JSON"):
        load_suite(str(bad))


def test_load_yaml_descriptor(tmp_path):
    yaml = pytest.importorskip("yaml")
    path = tmp_path / "unit.yaml"
    path.write_text(yaml.safe_dump(suite_data()))
    assert load_suite(str(path)) == parse_suite(suite_data())
    bad = tmp_path / "bad.yaml"
    bad.write_text("suite: [unclosed")
    with pytest.raises(UsageError, match="invalid YAML"):
        load_suite(str(bad))
