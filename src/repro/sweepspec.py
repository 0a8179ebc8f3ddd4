"""Declarative sweep suite descriptors (YAML/JSON).

A *suite descriptor* is one small file that names a design-space
sweep: which workloads to run, which machine knobs to vary
(:class:`repro.api.MachineSpec` fields), which compiler opt levels,
and how many repetitions — the muBench-style factors × levels ×
repetitions run table, with MicroSentinel-style base-config override
merging (``base.machine`` supplies the point every grid axis varies
around).

The descriptor grammar::

    suite: svf-size                  # run-table name (filename-safe)
    description: free-form text      # optional
    kind: timing                     # timing | traffic
    workloads: [crafty, gcc]         # registry names, short or full
    window: 60000                    # instructions per cell
    repetitions: 1                   # >= 1
    opt_levels: [0]                  # compiler levels (0/1)
    base:
      machine: {svf_mode: svf}      # MachineSpec field overrides
      compile: {opt_level: 0}       # default when opt_levels absent
    grid:                            # one product, or a list of them
      svf_capacity: [1024, 8192]

``grid`` is either one mapping (axis → levels, expanded as a cartesian
product) or a list of mappings whose products are concatenated and
deduplicated — the union form expresses sweeps that are not a single
product (e.g. banked configurations plus a true-dual-port reference).

Everything validates *up front*: :func:`load_suite` raises
:class:`repro.errors.UsageError` (CLI exit code 2) on unknown
workloads, unknown grid axes, zero repetitions, malformed levels — the
sweep never starts with a descriptor that would explode mid-run.
Expansion (:meth:`SweepSpec.expand`) is deterministic: the run table
row order depends only on the descriptor text, never on scheduling.

This module is a leaf: it imports :mod:`repro.api` only lazily (for
the :class:`MachineSpec` field vocabulary), so the harness can import
it while the facade is still loading.
"""

from __future__ import annotations

import itertools
import json
import os
import re
from dataclasses import dataclass, field
from typing import Any, Dict, List, Mapping, Optional, Sequence, Tuple

from repro.errors import UsageError
from repro.workloads import validate_benchmarks

#: Descriptor keys the parser understands; anything else is an error.
_TOP_LEVEL_KEYS = (
    "suite", "description", "kind", "workloads", "window",
    "repetitions", "opt_levels", "base", "grid",
)

#: Sweep kinds: ``timing`` runs the out-of-order model (baseline +
#: variant) per cell; ``traffic`` walks the functional trace through
#: :func:`repro.core.traffic.simulate_traffic` and records the SVF's
#: quad-word memory traffic.
SWEEP_KINDS = ("timing", "traffic")

#: Grid axes a ``traffic`` sweep may vary (the traffic model
#: has no pipeline, so machine-level knobs would silently do nothing).
_TRAFFIC_AXES = ("svf_capacity", "svf_granularity")

_NAME_RE = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]*$")


def _machine_fields() -> Dict[str, Any]:
    """MachineSpec field → default value (the grid axis vocabulary)."""
    # Imported lazily: repro.api imports the harness package, which
    # imports this module — a module-level import would be circular.
    import dataclasses

    from repro.api import MachineSpec

    return {
        spec_field.name: getattr(MachineSpec(), spec_field.name)
        for spec_field in dataclasses.fields(MachineSpec)
    }


@dataclass(frozen=True)
class SweepPoint:
    """One run-table row identity: workload × levels × repetition."""

    workload: str
    opt_level: int
    repetition: int
    #: the grid-axis assignments of this point, in axis order
    levels: Tuple[Tuple[str, Any], ...]
    #: every MachineSpec field, resolved (defaults ← base ← levels);
    #: the complete machine identity, used for cache keys and specs
    machine: Tuple[Tuple[str, Any], ...]

    def level(self, name: str, default: Any = None) -> Any:
        return dict(self.levels).get(name, default)

    def machine_spec(self):
        """Materialize the resolved :class:`repro.api.MachineSpec`."""
        from repro.api import MachineSpec

        return MachineSpec(**dict(self.machine))


@dataclass(frozen=True)
class SweepSpec:
    """A validated, expandable suite descriptor."""

    name: str
    kind: str
    workloads: Tuple[str, ...]
    window: int
    repetitions: int
    opt_levels: Tuple[int, ...]
    #: base-machine overrides (merged under every grid combination)
    base_machine: Tuple[Tuple[str, Any], ...]
    #: grid blocks; each block is ((axis, levels), ...) in declared
    #: order, and the run table is the concatenation of the blocks'
    #: cartesian products (duplicates dropped)
    grids: Tuple[Tuple[Tuple[str, Tuple[Any, ...]], ...], ...]
    description: str = ""
    #: descriptor path, for provenance only (never affects expansion)
    source: str = field(default="", compare=False)

    @property
    def factor_names(self) -> Tuple[str, ...]:
        """Grid axis names, in first-seen declaration order."""
        names: List[str] = []
        for grid in self.grids:
            for axis, _levels in grid:
                if axis not in names:
                    names.append(axis)
        return tuple(names)

    def combos(self) -> List[Tuple[Tuple[str, Any], ...]]:
        """Deduplicated grid combinations, in declaration order.

        Each combination is a tuple of (axis, value) pairs.  Two
        combinations from different grid blocks that resolve to the
        same full machine collapse into one (first occurrence wins).
        """
        defaults = _machine_fields()
        base = dict(defaults)
        base.update(dict(self.base_machine))
        seen = set()
        out: List[Tuple[Tuple[str, Any], ...]] = []
        for grid in self.grids:
            axes = [axis for axis, _levels in grid]
            level_lists = [levels for _axis, levels in grid]
            for values in itertools.product(*level_lists):
                combo = tuple(zip(axes, values))
                resolved = dict(base)
                resolved.update(dict(combo))
                key = tuple(sorted(resolved.items()))
                if key in seen:
                    continue
                seen.add(key)
                out.append(combo)
        if not out:
            # No grid at all: the suite is a single (base) point.
            out.append(())
        return out

    def resolved_machine(
        self, combo: Tuple[Tuple[str, Any], ...]
    ) -> Tuple[Tuple[str, Any], ...]:
        """Full MachineSpec fields for one combo (defaults←base←combo),
        sorted by field name so the tuple is a stable identity."""
        resolved = _machine_fields()
        resolved.update(dict(self.base_machine))
        resolved.update(dict(combo))
        return tuple(sorted(resolved.items()))

    def expand(self) -> List[SweepPoint]:
        """The run table, in canonical row order.

        Rows are ordered workload-major (descriptor order), then opt
        level, then grid combination (declaration order), then
        repetition — a pure function of the descriptor.
        """
        points = []
        combos = self.combos()
        for workload in self.workloads:
            for opt_level in self.opt_levels:
                for combo in combos:
                    for rep in range(self.repetitions):
                        points.append(SweepPoint(
                            workload=workload,
                            opt_level=opt_level,
                            repetition=rep,
                            levels=combo,
                            machine=self.resolved_machine(combo),
                        ))
        return points

    def total_cells(self) -> int:
        """Row count of the expanded run table."""
        return (
            len(self.workloads) * len(self.opt_levels)
            * len(self.combos()) * self.repetitions
        )


# ---------------------------------------------------------------------------
# Parsing and validation
# ---------------------------------------------------------------------------


def _error(name: str, message: str) -> UsageError:
    return UsageError(f"suite {name!r}: {message}")


def _require_mapping(name: str, value: Any, what: str) -> Mapping:
    if not isinstance(value, Mapping):
        raise _error(name, f"{what} must be a mapping, not "
                           f"{type(value).__name__}")
    return value


def _scalar(value: Any) -> bool:
    return isinstance(value, (str, int, float, bool)) or value is None


def _parse_levels(name: str, axis: str, levels: Any) -> Tuple[Any, ...]:
    if not isinstance(levels, (list, tuple)) or isinstance(levels, str):
        raise _error(name, f"grid axis {axis!r} needs a list of levels")
    if not levels:
        raise _error(name, f"grid axis {axis!r} has no levels")
    for level in levels:
        if not _scalar(level):
            raise _error(
                name,
                f"grid axis {axis!r} has a non-scalar level {level!r}",
            )
    if len(set(map(repr, levels))) != len(levels):
        raise _error(name, f"grid axis {axis!r} repeats a level")
    return tuple(levels)


def _parse_grid_block(
    name: str, kind: str, block: Any, defaults: Mapping[str, Any]
) -> Tuple[Tuple[str, Tuple[Any, ...]], ...]:
    block = _require_mapping(name, block, "each grid block")
    if not block:
        raise _error(name, "a grid block is empty")
    axes = []
    for axis, levels in block.items():
        if axis == "opt_level":
            raise _error(
                name,
                "opt_level is swept via the top-level opt_levels list, "
                "not a grid axis",
            )
        if axis not in defaults:
            known = ", ".join(sorted(defaults))
            raise _error(
                name,
                f"unknown grid axis {axis!r} (MachineSpec fields: {known})",
            )
        if kind == "traffic" and axis not in _TRAFFIC_AXES:
            raise _error(
                name,
                f"grid axis {axis!r} has no effect on a traffic sweep "
                f"(allowed: {', '.join(_TRAFFIC_AXES)})",
            )
        axes.append((axis, _parse_levels(name, axis, levels)))
    return tuple(axes)


def _parse_base(
    name: str, base: Any, defaults: Mapping[str, Any]
) -> Tuple[Tuple[Tuple[str, Any], ...], Optional[int]]:
    """Returns (machine overrides, compile opt_level or None)."""
    if base is None:
        return (), None
    base = _require_mapping(name, base, "base")
    unknown = set(base) - {"machine", "compile"}
    if unknown:
        raise _error(
            name,
            f"unknown base sections: {', '.join(sorted(map(str, unknown)))} "
            "(have machine, compile)",
        )
    machine = _require_mapping(
        name, base.get("machine", {}), "base.machine"
    )
    for machine_field in machine:
        if machine_field not in defaults:
            known = ", ".join(sorted(defaults))
            raise _error(
                name,
                f"unknown base.machine field {machine_field!r} "
                f"(MachineSpec fields: {known})",
            )
    compile_block = _require_mapping(
        name, base.get("compile", {}), "base.compile"
    )
    unknown = set(compile_block) - {"opt_level"}
    if unknown:
        raise _error(
            name,
            "unknown base.compile fields: "
            f"{', '.join(sorted(map(str, unknown)))} (have opt_level)",
        )
    opt_level = compile_block.get("opt_level")
    return tuple(sorted(machine.items())), opt_level


def _parse_opt_levels(
    name: str, raw: Any, base_opt: Optional[int]
) -> Tuple[int, ...]:
    if raw is None:
        return (base_opt if base_opt is not None else 0,)
    if not isinstance(raw, (list, tuple)) or isinstance(raw, str):
        raise _error(name, "opt_levels must be a list of 0/1")
    if not raw:
        raise _error(name, "opt_levels is empty")
    levels = []
    for level in raw:
        if not isinstance(level, int) or isinstance(level, bool) \
                or level not in (0, 1):
            raise _error(name, f"opt_levels entries must be 0 or 1, "
                               f"not {level!r}")
        if level in levels:
            raise _error(name, f"opt_levels repeats {level}")
        levels.append(level)
    return tuple(levels)


def parse_suite(data: Any, source: str = "<memory>") -> SweepSpec:
    """Validate one already-decoded descriptor into a :class:`SweepSpec`.

    Raises :class:`UsageError` on every malformation, collecting the
    complete picture where practical (unknown workloads are reported
    all at once by the registry resolver).
    """
    short = os.path.basename(source)
    data = _require_mapping(short, data, "the descriptor")
    unknown = set(data) - set(_TOP_LEVEL_KEYS)
    if unknown:
        raise _error(
            short,
            f"unknown keys: {', '.join(sorted(map(str, unknown)))} "
            f"(have {', '.join(_TOP_LEVEL_KEYS)})",
        )

    name = data.get("suite")
    if not isinstance(name, str) or not _NAME_RE.match(name):
        raise _error(
            short,
            "needs a filename-safe 'suite' name "
            "(letters, digits, '_', '-', '.')",
        )

    kind = data.get("kind", "timing")
    if kind not in SWEEP_KINDS:
        raise _error(
            name, f"unknown kind {kind!r} (have {', '.join(SWEEP_KINDS)})"
        )

    raw_workloads = data.get("workloads")
    if not isinstance(raw_workloads, (list, tuple)) or not raw_workloads:
        raise _error(name, "needs a non-empty 'workloads' list")
    if not all(isinstance(entry, str) for entry in raw_workloads):
        raise _error(name, "workloads entries must be strings")
    workloads = tuple(validate_benchmarks(raw_workloads))

    window = data.get("window", 60_000)
    if not isinstance(window, int) or isinstance(window, bool) \
            or window < 1:
        raise _error(name, f"window must be a positive integer, "
                           f"not {window!r}")

    repetitions = data.get("repetitions", 1)
    if not isinstance(repetitions, int) or isinstance(repetitions, bool) \
            or repetitions < 1:
        raise _error(
            name,
            f"repetitions must be a positive integer, not {repetitions!r}",
        )

    defaults = _machine_fields()
    base_machine, base_opt = _parse_base(name, data.get("base"), defaults)
    opt_levels = _parse_opt_levels(name, data.get("opt_levels"), base_opt)

    raw_grid = data.get("grid")
    if raw_grid is None:
        grids: Tuple = ()
    elif isinstance(raw_grid, Mapping):
        grids = (_parse_grid_block(name, kind, raw_grid, defaults),)
    elif isinstance(raw_grid, (list, tuple)):
        if not raw_grid:
            raise _error(name, "grid list is empty")
        grids = tuple(
            _parse_grid_block(name, kind, block, defaults)
            for block in raw_grid
        )
    else:
        raise _error(name, "grid must be a mapping or a list of mappings")

    description = data.get("description", "")
    if not isinstance(description, str):
        raise _error(name, "description must be a string")

    spec = SweepSpec(
        name=name,
        kind=kind,
        workloads=workloads,
        window=window,
        repetitions=repetitions,
        opt_levels=opt_levels,
        base_machine=base_machine,
        grids=grids,
        description=description,
        source=source,
    )
    _validate_machines(spec)
    return spec


def _validate_machines(spec: SweepSpec) -> None:
    """Materialize every grid point eagerly so a bad field value
    (e.g. width 12, svf_mode 'bogus', an SVF capacity that is not a
    multiple of its granularity) fails before any cell runs."""
    from repro.api import MachineSpec
    from repro.core.svf import check_geometry

    for combo in spec.combos():
        resolved = dict(spec.resolved_machine(combo))
        try:
            MachineSpec(**resolved).config()
            if spec.kind == "traffic":
                # The traffic model builds its SVF whatever svf_mode is.
                check_geometry(
                    resolved["svf_capacity"], resolved["svf_granularity"]
                )
        except (TypeError, ValueError) as exc:
            where = (
                ", ".join(f"{axis}={value}" for axis, value in combo)
                or "the base machine"
            )
            raise _error(spec.name, f"invalid machine at {where}: {exc}")


def load_suite(path: str) -> SweepSpec:
    """Read, decode and validate a suite descriptor file.

    ``.json`` decodes with the standard library; anything else is
    treated as YAML (requires PyYAML, with a usage error — not an
    ImportError traceback — when it is missing).
    """
    try:
        with open(path) as handle:
            text = handle.read()
    except FileNotFoundError:
        raise UsageError(f"no such suite descriptor: {path}")
    except IsADirectoryError:
        raise UsageError(f"suite descriptor is a directory: {path}")
    if path.endswith(".json"):
        try:
            data = json.loads(text)
        except json.JSONDecodeError as exc:
            raise UsageError(f"suite {path}: invalid JSON ({exc})")
    else:
        try:
            import yaml
        except ImportError:
            raise UsageError(
                "PyYAML is not installed; use a .json suite descriptor "
                "or install pyyaml"
            )
        try:
            data = yaml.safe_load(text)
        except yaml.YAMLError as exc:
            raise UsageError(f"suite {path}: invalid YAML ({exc})")
    return parse_suite(data, source=path)


__all__ = [
    "SWEEP_KINDS",
    "SweepPoint",
    "SweepSpec",
    "load_suite",
    "parse_suite",
]
