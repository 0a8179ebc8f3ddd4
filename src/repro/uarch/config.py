"""Machine configurations (paper Table 2) plus SVF steering options.

The paper evaluates 4-, 8- and 16-wide RUU-based out-of-order machines
with the memory parameters below.  Following the paper's experimental
approach (Section 4), the instruction cache is perfect and the default
branch predictor is perfect; ``gshare`` is used for the last bar of
Figure 5.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

from repro.core.stack_cache import check_geometry as check_stack_cache
from repro.core.svf import check_geometry as check_svf


@dataclass(frozen=True)
class CacheConfig:
    """Geometry and latency of one cache level."""

    size: int
    assoc: int
    line_size: int = 32
    latency: int = 3


#: Line size of the timing model's decoupled stack cache.
STACK_CACHE_LINE = 32


@dataclass(frozen=True)
class SVFConfig:
    """Stack-unit steering attached to a machine configuration.

    ``mode`` selects the stack unit:

    * ``"none"`` — baseline: every reference goes to the DL1;
    * ``"svf"`` — the stack value file of Section 3;
    * ``"ideal"`` — Figure 5's limit study: *all* stack references
      morph into register moves, infinite capacity and ports;
    * ``"stack_cache"`` — the decoupled stack cache baseline.
    """

    mode: str = "none"
    capacity_bytes: int = 8192
    ports: int = 2
    #: bank the SVF instead of true multiporting (paper Section 7:
    #: "The SVF is direct-mapped, can be single-ported, and can easily
    #: be banked").  When > 0, the file is split into this many
    #: single-ported banks selected by low-order word-address bits;
    #: same-cycle accesses to one bank serialize.  ``ports`` is
    #: ignored for bank-conflict purposes when banks are enabled.
    banks: int = 0
    #: latency of a morphed (register-move) SVF access
    fast_latency: int = 1
    #: latency of a bounds-checked, re-routed non-$sp stack access
    reroute_latency: int = 3
    #: pipeline-squash penalty for a gpr-store/sp-load collision
    squash_penalty: int = 8
    #: "no_squash" code-generation option of Figure 7
    no_squash: bool = False
    #: per-granule valid/dirty-bit size in bytes (Section 3.3 ablation)
    granularity: int = 8
    #: dynamically disable the SVF under localized poor performance
    #: (Section 3.3: "the SVF can be dynamically disabled for a period
    #: of time").  The controller watches squashes per instruction
    #: window and routes stack references back to the DL1 for a
    #: cooling-off period when the rate is excessive.
    adaptive: bool = False
    adaptive_window: int = 1000
    adaptive_threshold: int = 3
    adaptive_off_period: int = 20_000
    #: keep a speculative $sp copy in decode (Section 3.1); without it
    #: every morphed reference waits for the architectural $sp value
    spec_sp: bool = True

    def __post_init__(self):
        if self.mode not in ("none", "svf", "ideal", "stack_cache"):
            raise ValueError(f"unknown SVF mode {self.mode!r}")
        if self.mode in ("svf", "stack_cache") and self.ports < 1:
            raise ValueError(f"SVF ports must be at least 1, not {self.ports}")
        if self.mode == "svf":
            check_svf(self.capacity_bytes, self.granularity)
        elif self.mode == "stack_cache":
            check_stack_cache(self.capacity_bytes, STACK_CACHE_LINE)


@dataclass(frozen=True)
class MachineConfig:
    """One column of the paper's Table 2, plus port/stack-unit knobs."""

    name: str = "16-wide"
    decode_width: int = 16
    issue_width: int = 16
    commit_width: int = 16
    ifq_size: int = 64
    ruu_size: int = 256
    lsq_size: int = 128
    dl1: CacheConfig = field(
        default_factory=lambda: CacheConfig(size=64 * 1024, assoc=4, latency=3)
    )
    l2: CacheConfig = field(
        default_factory=lambda: CacheConfig(
            size=512 * 1024, assoc=4, line_size=64, latency=16
        )
    )
    memory_latency: int = 60
    store_forward_latency: int = 3
    int_alus: int = 16
    int_mults: int = 4
    dl1_ports: int = 2
    #: decode/rename depth: cycles between fetch and dispatch
    frontend_depth: int = 3
    #: extra pipeline stages between dispatch and the first cycle a
    #: memory reference can compute its address (deep-pipeline knob;
    #: morphed SVF references skip it — their address is resolved in
    #: decode, the early-address-resolution benefit of Section 3.1)
    agu_depth: int = 0
    #: extra redirect bubble after a mispredicted branch resolves
    mispredict_redirect: int = 1
    branch_predictor: str = "perfect"  # 'perfect' | 'gshare'
    #: flush the stack unit every N instructions (0 = never), modeling
    #: context switches in the timing domain (companion to Table 4)
    context_switch_period: int = 0
    #: pipeline bubble charged per context switch (kernel overhead)
    context_switch_overhead: int = 100
    #: remove the address-calculation dependency of stack references
    #: without an SVF (the no_addr_cal_op bar of Figure 6)
    no_addr_calc: bool = False
    svf: SVFConfig = field(default_factory=SVFConfig)

    def __post_init__(self):
        if self.dl1_ports < 1:
            raise ValueError(
                f"DL1 ports must be at least 1, not {self.dl1_ports}"
            )

    def with_(self, **changes) -> "MachineConfig":
        """Return a modified copy (convenience for experiments)."""
        return replace(self, **changes)

    def with_svf(self, **changes) -> "MachineConfig":
        """Return a copy with a modified SVF sub-config."""
        return replace(self, svf=replace(self.svf, **changes))


def table2_config(width: int, **overrides) -> MachineConfig:
    """The 4-, 8- or 16-wide machine of the paper's Table 2."""
    if width not in (4, 8, 16):
        raise ValueError("paper models are 4-, 8- or 16-wide")
    scale = {4: 0, 8: 1, 16: 2}[width]
    config = MachineConfig(
        name=f"{width}-wide",
        decode_width=width,
        issue_width=width,
        commit_width=width,
        ifq_size=16 << scale,
        ruu_size=64 << scale,
        lsq_size=32 << scale,
    )
    if overrides:
        config = config.with_(**overrides)
    return config


def baseline_16wide() -> MachineConfig:
    """The 16-wide baseline used by Figures 6, 7 and 9."""
    return table2_config(16)
