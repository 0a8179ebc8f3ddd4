"""One-pass out-of-order timing model (modified-SimpleScalar analogue).

The model replays the dynamic instruction stream produced by the
functional emulator and computes, for every instruction, the cycle at
which it is fetched, dispatched, issued, completed and committed,
subject to:

* fetch bandwidth, IFQ occupancy and branch-redirect bubbles;
* a unified RUU window (dispatch stalls when the instruction
  ``ruu_size`` older has not committed) and an LSQ window for memory
  operations — the paper's Register Update Unit organization;
* issue width, integer ALU/multiplier pools and cache-port pools;
* the DL1/L2/memory hierarchy of Table 2, with 3-cycle store
  forwarding in the LSQ;
* in-order commit bandwidth.

The stack unit is pluggable (``config.svf.mode``):

``none``
    every reference uses a DL1 port.
``svf``
    ``$sp``-relative references inside the SVF window are *morphed*
    into register moves: the base-register (address calculation)
    dependence disappears, the access uses an SVF port with 1-cycle
    latency, and store→load communication happens through the rename
    map (``entry_ready``) instead of the 3-cycle LSQ poll.  Non-``$sp``
    stack references in range are re-routed at cache-like latency;
    gpr-store → sp-load collisions cost a pipeline squash (Section
    3.2) unless the ``no_squash`` code-generation option is set.
``ideal``
    Figure 5's limit study: every stack reference morphs, with
    unbounded capacity and ports.
``stack_cache``
    the decoupled stack cache: stack references use stack-cache ports
    and refill from the L2; every miss moves whole lines.

The loop reads the trace column-wise (:class:`ColumnarTrace`; other
iterables are packed on entry).  :func:`simulate` and
:func:`simulate_batch` always run the lean walk, :func:`_fast_stepper`:
columns become flat python lists once per trace (:class:`_FastColumns`,
pure python, shared by every config of a batch), the occupancy pools
are dense :class:`~repro.uarch.resources.CycleWindow` lists whose port
windows also carry skip distances over full cycles, and the
memory-completion logic is inlined route by route.  Every multi-config
figure, report cell and sweep group reaches the walk through
:func:`simulate_batch`.

:func:`_reference_stepper` is the plain pure-python walk it must agree
with cycle for cycle.  It probes the per-cycle resource pools as raw
``{cycle: used}`` dicts (the structural semantics of
:class:`repro.uarch.resources.CyclePool`) and is kept only as the test
oracle of ``tests/test_pipeline_vectorized.py``; the frozen outputs
in ``tests/test_model_goldens.py`` check the lean walk against the
model as it stood before its hot paths were optimised.
"""

from __future__ import annotations

import copy
from collections import deque
from time import perf_counter
from typing import Iterable, List, Optional

from repro import profiling
from repro.core.stack_cache import StackCache
from repro.core.svf import StackValueFile
from repro.isa.encoding import OPCODE_NUMBERS
from repro.isa.instructions import OPCODES, OpClass
from repro.isa.registers import NUM_REGISTERS, SP
from repro.trace.columnar import ColumnarTrace
from repro.trace.regions import STACK_REGION_FLOOR
from repro.uarch.bpred import make_predictor
from repro.uarch.cache import build_hierarchy
from repro.uarch.config import MachineConfig
from repro.uarch.resources import CycleWindow, grow_windows
from repro.uarch.stats import SimStats

_DIV_OPS = ("divq", "remq")

#: Completion latency of IMULT ops by opcode number (0 = not an IMULT).
_MULT_LATENCY = [0] * (len(OPCODE_NUMBERS) + 1)
for _name, _num in OPCODE_NUMBERS.items():
    if OPCODES[_name].op_class is OpClass.IMULT:
        _MULT_LATENCY[_num] = 20 if _name in _DIV_OPS else 3

_LDA = OPCODE_NUMBERS["lda"]

#: Integer route codes for memory references.
_R_DL1 = 0
_R_FAST = 1
_R_REROUTE = 2
_R_SC = 3

#: Chunk size for the batched round-robin drive: large enough that the
#: per-chunk generator hand-off cost vanishes, small enough that every
#: config's walk revisits the same stretch of columns while it is warm.
_BATCH_CHUNK = 16384


def batch_enabled() -> bool:
    """Always ``True``: every multi-config timing figure is batched.

    Kept only because the benchmark's host block
    (``perfbench/rep.py``) imports it to report the engine's legs.
    """
    return True


def simulate(trace: Iterable, config: MachineConfig) -> SimStats:
    """Run the timing model over a trace; returns :class:`SimStats`.

    This drives its own single-chunk walk rather than calling
    :func:`simulate_batch`: a sweep falls back to per-config
    :func:`simulate` calls when a batched pass fails, and that fallback
    must not re-enter the batched drive.
    """
    if not isinstance(trace, ColumnarTrace):
        trace = ColumnarTrace.from_records(trace)
    profiler = profiling.active()
    profile_started = perf_counter() if profiler is not None else 0.0
    stepper = _fast_stepper(config, _FastColumns(trace))
    next(stepper)
    stepper.send((0, len(trace.pc)))
    stats = _finish_stepper(stepper)
    if profiler is not None:
        profiler.note(
            "timing", perf_counter() - profile_started, len(trace.pc)
        )
    return stats


def simulate_batch(trace: Iterable, configs) -> List[SimStats]:
    """Evaluate many configs in one pass over the trace.

    Returns one :class:`SimStats` per config, in input order, each
    stat-identical to what sequential per-config :func:`simulate`
    calls would produce (``tests/test_pipeline_batch.py`` is the
    differential gate).  The win is structural: every config's walk is
    a chunk-resumable generator, and a round-robin driver interleaves
    them through the columns one :data:`_BATCH_CHUNK` at a time, so
    the trace is walked once per batch instead of once per config, and
    all steppers share one :class:`_FastColumns` precompute.  Duplicate
    configs (a common case: ablation grids share one baseline) are
    simulated once and returned as independent copies.

    A single config is a plain :func:`simulate` call and emits no
    batch counters.
    """
    configs = list(configs)
    if not isinstance(trace, ColumnarTrace):
        trace = ColumnarTrace.from_records(trace)
    if not configs:
        return []
    if len(configs) == 1:
        return [simulate(trace, configs[0])]

    # MachineConfig is frozen/hashable: dedup to one walk per distinct
    # config, insertion-ordered so walk order is deterministic.
    slots: dict = {}
    for config in configs:
        if config not in slots:
            slots[config] = len(slots)
    unique = list(slots)

    profiler = profiling.active()
    profile_started = perf_counter() if profiler is not None else 0.0
    n = len(trace.pc)
    columns = _FastColumns(trace)
    steppers = [_fast_stepper(config, columns) for config in unique]
    for stepper in steppers:
        next(stepper)
    lo = 0
    while lo < n:
        hi = lo + _BATCH_CHUNK
        if hi > n:
            hi = n
        for stepper in steppers:
            stepper.send((lo, hi))
        lo = hi
    results = [_finish_stepper(stepper) for stepper in steppers]
    if profiler is not None:
        profiler.note(
            "timing", perf_counter() - profile_started, n * len(unique)
        )
        profiler.count("batch_configs", len(configs))
        profiler.count("batch_walks_saved", len(configs) - 1)

    out: List[SimStats] = []
    claimed = set()
    for config in configs:
        slot = slots[config]
        stats = results[slot]
        if slot in claimed:
            stats = copy.deepcopy(stats)
        else:
            claimed.add(slot)
        out.append(stats)
    return out


def _finish_stepper(stepper) -> SimStats:
    """Finalize a timing stepper; returns its :class:`SimStats`."""
    try:
        stepper.send(None)
    except StopIteration as stop:
        return stop.value
    raise RuntimeError("timing stepper yielded after finalization")


def _simulate_reference(trace: ColumnarTrace, config: MachineConfig) -> SimStats:
    """The reference walk over a whole trace (test oracle only)."""
    stepper = _reference_stepper(trace, config)
    next(stepper)
    stepper.send((0, len(trace.pc)))
    return _finish_stepper(stepper)


def _reference_stepper(trace: ColumnarTrace, config: MachineConfig):
    """Resumable reference walk: a generator driven in index chunks.

    Runs setup up to its first ``yield``, then walks every half-open
    ``(lo, hi)`` index range sent into it, carrying all
    microarchitectural state across chunks; sending ``None`` finalizes
    and raises ``StopIteration`` whose ``value`` is the
    :class:`~repro.uarch.stats.SimStats`.  Driven with one ``(0, n)``
    chunk by :func:`_simulate_reference`.
    """
    stats = SimStats(config_name=config.name)
    predictor = make_predictor(config.branch_predictor)
    # Perfect prediction is the common case; skip the call entirely.
    predict_bits = getattr(predictor, "predict_bits", None)
    if config.branch_predictor == "perfect":
        predict_bits = None
    dl1, l2 = build_hierarchy(config.dl1, config.l2, config.memory_latency)

    svf_conf = config.svf
    mode = svf_conf.mode
    svf: Optional[StackValueFile] = None
    stack_cache: Optional[StackCache] = None
    if mode == "svf":
        svf = StackValueFile(
            capacity_bytes=svf_conf.capacity_bytes,
            granularity=svf_conf.granularity,
        )
        # Writebacks land in the DL1 (write-back path), so data the SVF
        # spills can be re-read at L1 latency.
        svf.writeback_sink = lambda addr: dl1.access(addr, is_write=True)
    elif mode == "stack_cache":
        stack_cache = StackCache(capacity_bytes=svf_conf.capacity_bytes)

    # Resource pools as raw {cycle: units-used} dicts (CyclePool,
    # inlined): the earliest cycle >= floor with a free unit wins.
    fetch_used: dict = {}
    fetch_width = config.decode_width
    dispatch_used: dict = {}
    dispatch_width = config.decode_width
    issue_used: dict = {}
    issue_width = config.issue_width
    commit_used: dict = {}
    commit_width = config.commit_width
    alu_used: dict = {}
    alu_width = config.int_alus
    mult_used: dict = {}
    mult_width = config.int_mults
    dl1_used: dict = {}
    dl1_width = config.dl1_ports
    stack_used: Optional[dict] = None
    stack_width = svf_conf.ports
    if mode in ("svf", "stack_cache"):
        stack_used = {}
    # Banked SVF: one single-ported pool per bank, selected by the
    # low-order word-address bits (conclusion of the paper: banking is
    # the cheap alternative to true multiporting).
    bank_used = None
    num_banks = svf_conf.banks
    if mode == "svf" and num_banks > 0:
        bank_used = [dict() for _ in range(num_banks)]

    reg_ready = [0] * NUM_REGISTERS
    entry_ready = {}  # SVF quad-word -> cycle its renamed value is ready
    last_store = {}  # quad-word -> (index, complete) for LSQ forwarding
    pending_gpr_store = {}  # quad-word -> (index, complete) for squashes

    ifq_size = config.ifq_size
    ruu_size = config.ruu_size
    lsq_size = config.lsq_size
    ifq_ring = deque(maxlen=ifq_size)
    ruu_ring = deque(maxlen=ruu_size)
    lsq_ring = deque(maxlen=lsq_size)

    redirect_at = 0
    decode_block = 0
    prev_dispatch = 0
    last_commit = 0
    sp_seen = False
    # Adaptive disable (Section 3.3): watch the squash rate and shut
    # the SVF off for a cooling period when it misbehaves locally.
    adaptive = svf_conf.adaptive and mode == "svf"
    svf_disabled_until = -1
    window_end = svf_conf.adaptive_window
    window_squashes = 0
    disables = 0
    forward_latency = config.store_forward_latency
    frontend_depth = config.frontend_depth
    dl1_latency = config.dl1.latency
    agu_depth = config.agu_depth
    no_addr_calc = config.no_addr_calc
    spec_sp = svf_conf.spec_sp
    mispredict_redirect = config.mispredict_redirect
    sp_block_mode = mode in ("svf", "ideal")
    mode_ideal = mode == "ideal"
    mode_svf = mode == "svf"
    mode_sc = mode == "stack_cache"
    stack_floor = STACK_REGION_FLOOR

    switch_period = config.context_switch_period
    switch_overhead = config.context_switch_overhead
    switch_bytes = 0
    switches = 0

    branches = 0
    mispredictions = 0

    col_pc = trace.pc
    col_opcode = trace.opcode
    col_flags = trace.flags
    col_size = trace.size
    col_base = trace.base
    col_dst = trace.dst
    col_nsrc = trace.nsrc
    col_src0 = trace.src0
    col_src1 = trace.src1
    col_spimm = trace.spimm
    col_addr = trace.addr
    col_sp = trace.sp
    n = len(col_pc)

    bounds = yield
    while bounds is not None:
        lo, hi = bounds
        for index in range(lo, hi):
            flags = col_flags[index]
            is_mem = flags & 3

            # ------------------------------------------- context switches
            if switch_period and index and index % switch_period == 0:
                switches += 1
                redirect_at = max(redirect_at, last_commit + switch_overhead)
                if svf is not None:
                    switch_bytes += svf.context_switch()
                    entry_ready.clear()
                    pending_gpr_store.clear()
                if stack_cache is not None:
                    switch_bytes += stack_cache.context_switch()
                last_store.clear()

            # ------------------------------------------------------ fetch
            fetch_floor = redirect_at
            if len(ifq_ring) == ifq_size:
                head = ifq_ring[0]
                if head > fetch_floor:
                    fetch_floor = head
            cycle = fetch_floor
            used = fetch_used.get(cycle, 0)
            while used >= fetch_width:
                cycle += 1
                used = fetch_used.get(cycle, 0)
            fetch_used[cycle] = used + 1
            fetch_cycle = cycle

            # ---------------------------------------------------- dispatch
            dispatch_floor = fetch_cycle + frontend_depth
            if prev_dispatch > dispatch_floor:
                dispatch_floor = prev_dispatch
            if decode_block > dispatch_floor:
                dispatch_floor = decode_block
            if len(ruu_ring) == ruu_size:
                head = ruu_ring[0]
                if head > dispatch_floor:
                    dispatch_floor = head
            if is_mem and len(lsq_ring) == lsq_size:
                head = lsq_ring[0]
                if head > dispatch_floor:
                    dispatch_floor = head
            cycle = dispatch_floor
            used = dispatch_used.get(cycle, 0)
            while used >= dispatch_width:
                cycle += 1
                used = dispatch_used.get(cycle, 0)
            dispatch_used[cycle] = used + 1
            dispatch_cycle = cycle
            prev_dispatch = dispatch_cycle
            ifq_ring.append(dispatch_cycle)

            # SVF front-end bookkeeping: the speculative $sp copy follows
            # immediate adjustments for free; any other $sp write stalls
            # decode until it resolves (Section 3.1).
            if svf is not None and not sp_seen:
                svf.update_sp(col_sp[index])
                sp_seen = True

            # ----------------------------------------------- routing
            if adaptive and index >= window_end:
                if window_squashes >= svf_conf.adaptive_threshold:
                    svf_disabled_until = index + svf_conf.adaptive_off_period
                    disables += 1
                    svf.context_switch()  # flush dirty state, go cold
                    pending_gpr_store.clear()
                window_squashes = 0
                window_end = index + svf_conf.adaptive_window

            route = _R_DL1
            qw = 0
            addr = 0
            drop_base = False
            if is_mem:
                addr = col_addr[index]
                qw = addr & ~7
                on_stack = addr >= stack_floor
                if on_stack:
                    if mode_ideal:
                        route = _R_FAST
                    elif mode_svf and (
                        not adaptive or index >= svf_disabled_until
                    ):
                        if svf.covers(addr):
                            route = (
                                _R_FAST
                                if col_base[index] == SP
                                else _R_REROUTE
                            )
                        else:
                            stats.svf_out_of_range += 1
                    elif mode_sc:
                        route = _R_SC
                drop_base = (route == _R_FAST and spec_sp) or (
                    no_addr_calc and on_stack
                )

            # ------------------------------------------------ readiness
            ready = dispatch_cycle + 1
            if is_mem and agu_depth and not drop_base:
                # Deep pipelines place address generation several stages
                # past dispatch; morphed references resolved in decode
                # skip those stages entirely (Section 3.1).
                ready += agu_depth
            nsrc = col_nsrc[index]
            if nsrc:
                if drop_base:
                    base = col_base[index]
                    src = col_src0[index]
                    if src != base and reg_ready[src] > ready:
                        ready = reg_ready[src]
                    if nsrc > 1:
                        src = col_src1[index]
                        if src != base and reg_ready[src] > ready:
                            ready = reg_ready[src]
                else:
                    when = reg_ready[col_src0[index]]
                    if when > ready:
                        ready = when
                    if nsrc > 1:
                        when = reg_ready[col_src1[index]]
                        if when > ready:
                            ready = when

            # ------------------------------------------- issue + latency
            if is_mem:
                if route == _R_DL1:
                    port_used = dl1_used
                    port_width = dl1_width
                elif route == _R_SC:
                    port_used = stack_used
                    port_width = stack_width
                elif bank_used is not None:
                    port_used = bank_used[(qw >> 3) % num_banks]
                    port_width = 1
                else:  # svf ports, or None in ideal mode (no port limit)
                    port_used = stack_used
                    port_width = stack_width
                cycle = ready
                if port_used is None:
                    used = issue_used.get(cycle, 0)
                    while used >= issue_width:
                        cycle += 1
                        used = issue_used.get(cycle, 0)
                    issue_used[cycle] = used + 1
                else:
                    while True:
                        used = issue_used.get(cycle, 0)
                        if used < issue_width:
                            port_use = port_used.get(cycle, 0)
                            if port_use < port_width:
                                issue_used[cycle] = used + 1
                                port_used[cycle] = port_use + 1
                                break
                        cycle += 1
                issue_cycle = cycle
                is_store = flags & 2
                complete = _memory_complete(
                    is_store,
                    addr,
                    col_size[index],
                    index,
                    qw,
                    route,
                    issue_cycle,
                    stats,
                    config,
                    dl1,
                    l2,
                    svf,
                    stack_cache,
                    entry_ready,
                    last_store,
                    pending_gpr_store,
                    dl1_latency,
                    forward_latency,
                )
                if route == _R_FAST and not is_store:
                    # Squash check: a pending gpr-store to the same word
                    # that has not completed by our issue time means this
                    # morphed load read a stale value (Section 3.2).
                    pending = pending_gpr_store.get(qw)
                    if (
                        pending is not None
                        and pending[0] < index
                        and pending[1] > issue_cycle
                    ):
                        if svf_conf.no_squash:
                            complete = max(complete, pending[1] + 1)
                        else:
                            stats.svf_squashes += 1
                            window_squashes += 1
                            redirect_at = max(
                                redirect_at,
                                pending[1] + svf_conf.squash_penalty,
                            )
                            complete = max(
                                complete, pending[1] + svf_conf.fast_latency
                            )
                lsq_placeholder = True
            else:
                latency = _MULT_LATENCY[col_opcode[index]]
                if latency:
                    fu_used = mult_used
                    fu_width = mult_width
                else:
                    fu_used = alu_used
                    fu_width = alu_width
                    latency = 1
                cycle = ready
                while True:
                    used = issue_used.get(cycle, 0)
                    if used < issue_width:
                        fu_use = fu_used.get(cycle, 0)
                        if fu_use < fu_width:
                            issue_used[cycle] = used + 1
                            fu_used[cycle] = fu_use + 1
                            break
                    cycle += 1
                issue_cycle = cycle
                complete = issue_cycle + latency
                lsq_placeholder = False

            # --------------------------------------------------- branches
            if flags & 4:
                branches += 1
                if predict_bits is not None and not predict_bits(
                    col_pc[index], flags & 8, flags & 16
                ):
                    mispredictions += 1
                    redirect_at = max(
                        redirect_at, complete + mispredict_redirect
                    )

            # $sp interlock: unexpected (non-immediate) updates stall
            # decode of everything younger until the new $sp resolves.
            if flags & 32:
                if svf is not None:
                    svf.update_sp(col_sp[index])
                if sp_block_mode and not (
                    col_opcode[index] == _LDA and col_spimm[index] != 0
                ):
                    # A speculative $sp copy tracks immediate adjustments
                    # for free; anything else blocks decode.
                    if complete > decode_block:
                        decode_block = complete
            # ----------------------------------------------------- commit
            cycle = complete + 1
            if last_commit > cycle:
                cycle = last_commit
            used = commit_used.get(cycle, 0)
            while used >= commit_width:
                cycle += 1
                used = commit_used.get(cycle, 0)
            commit_used[cycle] = used + 1
            commit_cycle = cycle
            last_commit = commit_cycle
            ruu_ring.append(commit_cycle)
            if lsq_placeholder:
                lsq_ring.append(commit_cycle)

            # ---------------------------------------------------- results
            dst = col_dst[index]
            if dst >= 0:
                reg_ready[dst] = complete
        bounds = yield

    stats.instructions = n
    stats.branches = branches
    stats.mispredictions = mispredictions
    stats.cycles = last_commit
    stats.dl1_accesses = dl1.hits + dl1.misses
    stats.dl1_hits = dl1.hits
    stats.dl1_misses = dl1.misses
    stats.l2_misses = l2.misses
    if stack_cache is not None:
        stats.stack_cache_hits = stack_cache.hits
        stats.stack_cache_misses = stack_cache.misses
    if svf is not None:
        stats.svf_fills = svf.fills
    if adaptive:
        stats.extras["svf_disables"] = disables
    if switch_period:
        stats.extras["context_switches"] = switches
        stats.extras["switch_writeback_bytes"] = switch_bytes
    return stats


#: Register slots past the architectural file in the lean walk's
#: ``reg_ready``: a missing source reads ``_NO_SRC`` (always ready at
#: cycle 0) and a missing destination writes ``_NO_DST`` (never read).
_NO_SRC = NUM_REGISTERS
_NO_DST = NUM_REGISTERS + 1

#: ``bytes.translate`` tables for :class:`_FastColumns`.  Raw ``dst``
#: bytes: -1 (0xff) becomes ``_NO_DST``, registers map to themselves.
_DST_TABLE = bytes(range(255)) + bytes([_NO_DST])
#: Opcode number -> IMULT completion latency (``_MULT_LATENCY``).
_MULT_LATENCY_TABLE = bytes(_MULT_LATENCY + [0] * (256 - len(_MULT_LATENCY)))


def _count_flags(flags, mask: int) -> int:
    """Number of flags bytes with any of the ``mask`` bits set."""
    table = bytes(1 if byte & mask else 0 for byte in range(256))
    return bytes(flags).translate(table).count(1)


class _FastColumns:
    """Config-invariant per-trace precompute for the lean walk.

    Everything the walk derives from the trace alone — the flat python
    lists, the source/destination columns with absent registers mapped
    to the ``_NO_SRC``/``_NO_DST`` slots, the FU-latency column, the
    branch, load and store counts — is computed once here, in pure
    python.  :func:`simulate_batch` builds one and shares it across
    every config in the batch.  ``pc_list`` is lazy because only
    non-perfect predictors read the PC column.
    """

    __slots__ = (
        "n", "flags_l", "opcode_l", "size_l", "src0_l", "src1_l",
        "base_l", "dst_l", "sp_l", "spimm_l", "addr_l", "fu_latency_l",
        "total_branches", "loads", "stores", "_trace", "_pc_l",
    )

    def __init__(self, trace: ColumnarTrace):
        self._trace = trace
        self._pc_l = None
        self.n = len(trace.pc)
        self.flags_l = list(trace.flags)
        self.opcode_l = list(trace.opcode)
        self.size_l = list(trace.size)
        nsrc = list(trace.nsrc)
        self.src0_l = [
            src if count else _NO_SRC
            for src, count in zip(trace.src0, nsrc)
        ]
        self.src1_l = [
            src if count > 1 else _NO_SRC
            for src, count in zip(trace.src1, nsrc)
        ]
        self.base_l = trace.base.tolist()
        self.dst_l = list(bytes(trace.dst).translate(_DST_TABLE))
        self.sp_l = trace.sp.tolist()
        self.spimm_l = trace.spimm.tolist()
        self.addr_l = trace.addr.tolist()
        self.fu_latency_l = list(
            bytes(trace.opcode).translate(_MULT_LATENCY_TABLE)
        )
        self.total_branches = _count_flags(trace.flags, 4)
        self.stores = _count_flags(trace.flags, 2)
        self.loads = _count_flags(trace.flags, 3) - self.stores

    def pc_list(self) -> list:
        if self._pc_l is None:
            self._pc_l = self._trace.pc.tolist()
        return self._pc_l


def _fast_stepper(config: MachineConfig, columns: _FastColumns):
    """Resumable lean walk over pre-shared columns.

    Same chunked-generator protocol as :func:`_reference_stepper`, and
    cycle-for-cycle identical to it; all trace-derived state comes
    from ``columns`` so a batch of steppers shares one
    :class:`_FastColumns`.
    """
    stats = SimStats(config_name=config.name)
    predictor = make_predictor(config.branch_predictor)
    predict_bits = getattr(predictor, "predict_bits", None)
    if config.branch_predictor == "perfect":
        predict_bits = None
    dl1, l2 = build_hierarchy(config.dl1, config.l2, config.memory_latency)

    svf_conf = config.svf
    mode = svf_conf.mode
    svf: Optional[StackValueFile] = None
    stack_cache: Optional[StackCache] = None
    if mode == "svf":
        svf = StackValueFile(
            capacity_bytes=svf_conf.capacity_bytes,
            granularity=svf_conf.granularity,
        )
        svf.writeback_sink = lambda addr: dl1.access(addr, True)
    elif mode == "stack_cache":
        stack_cache = StackCache(capacity_bytes=svf_conf.capacity_bytes)

    n = columns.n

    # -------------------------- columns shared across the whole batch
    flags_l = columns.flags_l
    opcode_l = columns.opcode_l
    size_l = columns.size_l
    src0_l = columns.src0_l
    src1_l = columns.src1_l
    base_l = columns.base_l
    dst_l = columns.dst_l
    sp_l = columns.sp_l
    spimm_l = columns.spimm_l
    addr_l = columns.addr_l
    pc_l = columns.pc_list() if predict_bits is not None else None
    fu_latency_l = columns.fu_latency_l
    total_branches = columns.total_branches

    # --------------------------------------- dense occupancy windows
    # The highest commit cycle so far bounds every cycle a probe can
    # touch for the next instruction, up to one worst-case latency/
    # penalty chain (``margin``); the windows grow whenever a commit
    # lands within ``margin`` of their end.
    #
    # Port windows (DL1, SVF/stack-cache, banks) also carry skip
    # distances: a value ``v >= width`` marks a full cycle from which
    # at least ``v - width + 1`` consecutive cycles are full.  A port's
    # cycles only ever fill, never free, so a distance stays valid
    # once written; each probe that jumps over a full run rewrites the
    # distances along its path to point at the free cycle it found.
    fetch_width = config.decode_width
    dispatch_width = config.decode_width
    issue_width = config.issue_width
    commit_width = config.commit_width
    alu_width = config.int_alus
    mult_width = config.int_mults
    dl1_width = config.dl1_ports
    stack_width = svf_conf.ports
    forward_latency = config.store_forward_latency
    margin = (
        256
        + config.frontend_depth
        + config.agu_depth
        + 24
        + 2 * (config.dl1.latency + config.l2.latency
               + config.memory_latency)
        + config.mispredict_redirect
        + svf_conf.squash_penalty
        + config.context_switch_overhead
        + forward_latency
    )
    capacity = n + margin + 64
    windows = [
        CycleWindow("issue", issue_width, capacity),
        CycleWindow("mult", mult_width, capacity),
        CycleWindow("dl1_ports", dl1_width, capacity),
    ]
    issue_slots = windows[0].slots
    mult_slots = windows[1].slots
    dl1_slots = windows[2].slots
    # Every ALU op also takes an issue slot in the same cycle, so ALU
    # use never exceeds issue use: with at least as many ALUs as issue
    # slots the ALU pool can never be the one that is full.
    alu_slots = None
    if alu_width < issue_width:
        alu_window = CycleWindow("alu", alu_width, capacity)
        windows.append(alu_window)
        alu_slots = alu_window.slots
    stack_slots = None
    if mode in ("svf", "stack_cache"):
        stack_window = CycleWindow("stack_ports", stack_width, capacity)
        windows.append(stack_window)
        stack_slots = stack_window.slots
    bank_slots = None
    num_banks = svf_conf.banks
    if mode == "svf" and num_banks > 0:
        bank_windows = [
            CycleWindow(f"svf_bank{i}", 1, capacity)
            for i in range(num_banks)
        ]
        windows.extend(bank_windows)
        bank_slots = [w.slots for w in bank_windows]
    grow_at = capacity - margin

    reg_ready = [0] * (NUM_REGISTERS + 2)
    entry_ready = {}
    last_store = {}  # quad-word -> completion of the last DL1/SC store
    pending_gpr_store = {}
    er_get = entry_ready.get
    ls_get = last_store.get
    pg_get = pending_gpr_store.get

    # Ring heads read the dispatch/commit/LSQ-commit history directly:
    # the head of a size-k ring fed once per instruction is the value
    # appended k instructions ago.  Each history starts with k zeros
    # (no floor), so the head of instruction ``index`` is simply
    # ``hist[index]`` and the LSQ head is ``lsq_hist[-lsq_size]``.
    ifq_size = config.ifq_size
    lsq_size = config.lsq_size
    disp_hist = [0] * ifq_size
    disp_append = disp_hist.append
    commit_hist = [0] * config.ruu_size
    commit_append = commit_hist.append
    lsq_hist = [0] * lsq_size
    lsq_append = lsq_hist.append
    lsq_head = -lsq_size

    redirect_at = 0
    decode_block = 0
    # Fetch/dispatch/commit floors are provably non-decreasing (every
    # floor term — redirect_at, the ring heads, the previous cycle of
    # the same stage, decode_block — only ever grows), so each of the
    # three pools collapses to a scalar (current cycle, units left)
    # pair: a probe either lands on the current cycle, advances one
    # when it is full, or jumps forward to a higher floor.  Cycles the
    # floor jumps over can never be probed again.
    fetch_cur = -1
    fetch_left = 0
    fetch_last = fetch_width - 1
    disp_cur = -1
    disp_left = 0
    disp_last = dispatch_width - 1
    commit_cur = 0
    commit_left = commit_width
    commit_last = commit_width - 1
    sp_seen = svf is None
    # The SVF window [svf_lo, svf_hi), refreshed on every $sp update.
    svf_lo = svf_hi = 0
    svf_capacity = svf_conf.capacity_bytes
    adaptive = svf_conf.adaptive and mode == "svf"
    # Stays -1 (never disabled) unless the adaptive controller fires.
    svf_disabled_until = -1
    window_end = svf_conf.adaptive_window
    window_squashes = 0
    disables = 0
    frontend_depth = config.frontend_depth
    dl1_latency = config.dl1.latency
    agu_depth = config.agu_depth
    no_addr_calc = config.no_addr_calc
    spec_sp = svf_conf.spec_sp
    mispredict_redirect = config.mispredict_redirect
    sp_block_mode = mode in ("svf", "ideal")
    mode_svf = mode == "svf"
    # Route of an on-stack reference in every mode but "svf", whose
    # route depends on the window and the base register.
    stack_route = {"ideal": _R_FAST, "stack_cache": _R_SC}.get(mode, _R_DL1)
    svf_fast_latency = svf_conf.fast_latency
    reroute_latency = svf_conf.reroute_latency
    no_squash = svf_conf.no_squash
    squash_penalty = svf_conf.squash_penalty
    adaptive_threshold = svf_conf.adaptive_threshold
    adaptive_off_period = svf_conf.adaptive_off_period
    adaptive_window = svf_conf.adaptive_window
    stack_floor = STACK_REGION_FLOOR
    sp_reg = SP
    lda_op = _LDA
    dl1_access = dl1.access
    svf_access = svf.access if svf is not None else None

    switch_period = config.context_switch_period
    switch_overhead = config.context_switch_overhead
    switch_bytes = 0
    switches = 0

    branches = 0
    mispredictions = 0
    store_forwards = 0
    fast_stores = 0
    fast_loads = 0
    rerouted = 0
    out_of_range = 0
    squashes = 0

    bounds = yield
    while bounds is not None:
        lo, hi = bounds
        if not sp_seen and lo < hi:
            svf.update_sp(sp_l[lo])
            svf_lo = svf.tos
            svf_hi = svf_lo + svf_capacity
            sp_seen = True
        for index, flags, src0, src1, dst in zip(
            range(lo, hi), flags_l[lo:hi], src0_l[lo:hi], src1_l[lo:hi],
            dst_l[lo:hi],
        ):
            is_mem = flags & 3

            # ------------------------------------------- context switches
            if switch_period and index and index % switch_period == 0:
                switches += 1
                when = commit_cur + switch_overhead
                if when > redirect_at:
                    redirect_at = when
                if svf is not None:
                    switch_bytes += svf.context_switch()
                    entry_ready.clear()
                    pending_gpr_store.clear()
                if stack_cache is not None:
                    switch_bytes += stack_cache.context_switch()
                last_store.clear()

            # ------------------------------------------------------ fetch
            cycle = redirect_at
            head = disp_hist[index]
            if head > cycle:
                cycle = head
            if cycle <= fetch_cur and fetch_left:
                fetch_left -= 1
            elif cycle > fetch_cur:
                fetch_cur = cycle
                fetch_left = fetch_last
            else:
                fetch_cur += 1
                fetch_left = fetch_last

            # ---------------------------------------------------- dispatch
            cycle = fetch_cur + frontend_depth
            if disp_cur > cycle:
                cycle = disp_cur
            if decode_block > cycle:
                cycle = decode_block
            head = commit_hist[index]
            if head > cycle:
                cycle = head
            if is_mem:
                head = lsq_hist[lsq_head]
                if head > cycle:
                    cycle = head
            if cycle <= disp_cur and disp_left:
                disp_left -= 1
            elif cycle > disp_cur:
                disp_cur = cycle
                disp_left = disp_last
            else:
                disp_cur += 1
                disp_left = disp_last
            disp_append(disp_cur)
            ready = disp_cur + 1

            # ----------------------------------------------- adaptive
            if adaptive and index >= window_end:
                if window_squashes >= adaptive_threshold:
                    svf_disabled_until = index + adaptive_off_period
                    disables += 1
                    svf.context_switch()
                    pending_gpr_store.clear()
                window_squashes = 0
                window_end = index + adaptive_window

            if is_mem:
                # ------------------------------------------------ routing
                addr = addr_l[index]
                qw = addr & -8
                drop_base = False
                if addr >= stack_floor:
                    if not mode_svf:
                        route = stack_route
                    elif index < svf_disabled_until:
                        route = _R_DL1
                    elif svf_lo <= addr < svf_hi:
                        route = (
                            _R_FAST if base_l[index] == sp_reg else _R_REROUTE
                        )
                    else:
                        route = _R_DL1
                        out_of_range += 1
                    drop_base = (route == _R_FAST and spec_sp) or no_addr_calc
                else:
                    route = _R_DL1

                # ---------------------------------------------- readiness
                if drop_base:
                    base = base_l[index]
                    if src0 != base and reg_ready[src0] > ready:
                        ready = reg_ready[src0]
                    if src1 != base and reg_ready[src1] > ready:
                        ready = reg_ready[src1]
                else:
                    # Deep pipelines place address generation several
                    # stages past dispatch; morphed references resolved
                    # in decode skip them (Section 3.1).
                    ready += agu_depth
                    when = reg_ready[src0]
                    if when > ready:
                        ready = when
                    when = reg_ready[src1]
                    if when > ready:
                        ready = when

                # -------------------------------------------------- issue
                if route == _R_DL1:
                    port_slots = dl1_slots
                    port_width = dl1_width
                elif route == _R_SC:
                    port_slots = stack_slots
                    port_width = stack_width
                elif bank_slots is not None:
                    port_slots = bank_slots[(qw >> 3) % num_banks]
                    port_width = 1
                else:  # svf ports, or None in ideal mode (no port limit)
                    port_slots = stack_slots
                    port_width = stack_width
                cycle = ready
                if port_slots is None:
                    used = issue_slots[cycle]
                    while used >= issue_width:
                        cycle += 1
                        used = issue_slots[cycle]
                    issue_slots[cycle] = used + 1
                else:
                    port_full = port_width - 1
                    while True:
                        port_use = port_slots[cycle]
                        if port_use <= port_full:
                            used = issue_slots[cycle]
                            if used < issue_width:
                                issue_slots[cycle] = used + 1
                                port_slots[cycle] = port_use + 1
                                break
                            cycle += 1
                            continue
                        # Jump the full run; on a multi-hop path, point
                        # every cycle on it at the free cycle found.
                        start = cycle
                        cycle += port_use - port_full
                        port_use = port_slots[cycle]
                        if port_use > port_full:
                            while port_use > port_full:
                                cycle += port_use - port_full
                                port_use = port_slots[cycle]
                            hop = start
                            while hop < cycle:
                                step = port_slots[hop] - port_full
                                port_slots[hop] = port_full + cycle - hop
                                hop += step
                        used = issue_slots[cycle]
                        if used < issue_width:
                            issue_slots[cycle] = used + 1
                            port_slots[cycle] = port_use + 1
                            if port_use == port_full:
                                # That cycle just filled: the run now
                                # reaches one cycle further.
                                port_slots[start] = port_width + cycle - start
                            break
                        cycle += 1
                issue_cycle = cycle

                # ------------------------------------------------ latency
                is_store = flags & 2
                if route == _R_DL1:
                    if is_store:
                        dl1_access(addr, True)
                        complete = issue_cycle + 1
                        last_store[qw] = complete
                    else:
                        when = ls_get(qw, 0)
                        if when > issue_cycle:
                            store_forwards += 1
                            complete = when + forward_latency
                        else:
                            complete = issue_cycle + dl1_access(addr)
                elif route == _R_FAST:
                    fast_latency = svf_fast_latency
                    if svf is not None:
                        if svf_access(addr, size_l[index], is_store != 0).filled:
                            fast_latency = dl1_access(addr) + 1
                    if is_store:
                        fast_stores += 1
                        complete = issue_cycle + svf_fast_latency
                        entry_ready[qw] = complete
                    else:
                        fast_loads += 1
                        complete = issue_cycle + fast_latency
                        when = er_get(qw, 0) + 1
                        if when > complete:
                            complete = when
                        # Squash check (Section 3.2): a pending gpr-store
                        # to the same word not complete by our issue time.
                        pending = pg_get(qw)
                        if (
                            pending is not None
                            and pending[0] < index
                            and pending[1] > issue_cycle
                        ):
                            when = pending[1]
                            if no_squash:
                                if when + 1 > complete:
                                    complete = when + 1
                            else:
                                squashes += 1
                                window_squashes += 1
                                if when + squash_penalty > redirect_at:
                                    redirect_at = when + squash_penalty
                                if when + svf_fast_latency > complete:
                                    complete = when + svf_fast_latency
                elif route == _R_REROUTE:
                    rerouted += 1
                    access_latency = reroute_latency
                    if svf_access(addr, size_l[index], is_store != 0).filled:
                        access_latency = dl1_access(addr) + 1
                    if is_store:
                        complete = issue_cycle + 1
                        entry_ready[qw] = complete
                        pending_gpr_store[qw] = (index, complete)
                    else:
                        when = er_get(qw, 0)
                        complete = (
                            issue_cycle if issue_cycle > when else when
                        ) + access_latency
                else:  # _R_SC
                    if stack_cache.access(
                        addr, size_l[index], is_store != 0
                    ).hit:
                        access_latency = dl1_latency
                    else:
                        access_latency = l2.access(addr, is_store != 0)
                    if is_store:
                        complete = issue_cycle + 1
                        last_store[qw] = complete
                    else:
                        when = ls_get(qw, 0)
                        if when > issue_cycle:
                            store_forwards += 1
                            complete = when + forward_latency
                        else:
                            complete = issue_cycle + access_latency
            else:
                when = reg_ready[src0]
                if when > ready:
                    ready = when
                when = reg_ready[src1]
                if when > ready:
                    ready = when
                latency = fu_latency_l[index]
                cycle = ready
                if not latency and alu_slots is None:
                    # Only the issue width binds (see alu_slots above).
                    used = issue_slots[cycle]
                    while used >= issue_width:
                        cycle += 1
                        used = issue_slots[cycle]
                    issue_slots[cycle] = used + 1
                    complete = cycle + 1
                else:
                    if latency:
                        fu_slots = mult_slots
                        fu_width = mult_width
                    else:
                        fu_slots = alu_slots
                        fu_width = alu_width
                        latency = 1
                    while True:
                        used = issue_slots[cycle]
                        if used < issue_width:
                            fu_use = fu_slots[cycle]
                            if fu_use < fu_width:
                                issue_slots[cycle] = used + 1
                                fu_slots[cycle] = fu_use + 1
                                break
                        cycle += 1
                    complete = cycle + latency

            # --------------------------------------------------- branches
            if predict_bits is not None and flags & 4:
                branches += 1
                if not predict_bits(pc_l[index], flags & 8, flags & 16):
                    mispredictions += 1
                    when = complete + mispredict_redirect
                    if when > redirect_at:
                        redirect_at = when

            # $sp interlock: unexpected (non-immediate) updates stall
            # decode of everything younger until the new $sp resolves.
            if flags & 32:
                if svf is not None:
                    svf.update_sp(sp_l[index])
                    svf_lo = svf.tos
                    svf_hi = svf_lo + svf_capacity
                if sp_block_mode and not (
                    opcode_l[index] == lda_op and spimm_l[index] != 0
                ):
                    if complete > decode_block:
                        decode_block = complete
            # ----------------------------------------------------- commit
            cycle = complete + 1
            if cycle <= commit_cur and commit_left:
                commit_left -= 1
            else:
                if cycle > commit_cur:
                    commit_cur = cycle
                else:
                    commit_cur += 1
                commit_left = commit_last
                if commit_cur >= grow_at:
                    grow_at = grow_windows(
                        windows, commit_cur + 2 * margin + 1024
                    ) - margin
            commit_append(commit_cur)
            if is_mem:
                lsq_append(commit_cur)

            # ---------------------------------------------------- results
            reg_ready[dst] = complete
        bounds = yield

    stats.instructions = n
    stats.branches = total_branches if predict_bits is None else branches
    stats.mispredictions = mispredictions
    stats.cycles = commit_cur
    stats.dl1_accesses = dl1.hits + dl1.misses
    stats.dl1_hits = dl1.hits
    stats.dl1_misses = dl1.misses
    stats.l2_misses = l2.misses
    stats.stores = columns.stores
    stats.loads = columns.loads
    stats.store_forwards = store_forwards
    stats.svf_fast_stores = fast_stores
    stats.svf_fast_loads = fast_loads
    stats.svf_rerouted = rerouted
    stats.svf_out_of_range = out_of_range
    stats.svf_squashes = squashes
    if stack_cache is not None:
        stats.stack_cache_hits = stack_cache.hits
        stats.stack_cache_misses = stack_cache.misses
    if svf is not None:
        stats.svf_fills = svf.fills
    if adaptive:
        stats.extras["svf_disables"] = disables
    if switch_period:
        stats.extras["context_switches"] = switches
        stats.extras["switch_writeback_bytes"] = switch_bytes
    return stats


def _memory_complete(
    is_store,
    addr,
    size,
    index,
    qw,
    route,
    issue_cycle,
    stats,
    config,
    dl1,
    l2,
    svf,
    stack_cache,
    entry_ready,
    last_store,
    pending_gpr_store,
    dl1_latency,
    forward_latency,
):
    """Latency/state handling for one memory reference."""
    svf_conf = config.svf
    if is_store:
        stats.stores += 1
    else:
        stats.loads += 1

    if route == _R_FAST:
        fast_latency = svf_conf.fast_latency
        if svf is not None:
            outcome = svf.access(addr, size, bool(is_store))
            if outcome.filled:
                # A demand fill reads the word from the L1: the data
                # arrives at L1 (or below) latency plus one cycle of
                # SVF insertion.
                fast_latency = dl1.access(addr) + 1
        if is_store:
            stats.svf_fast_stores += 1
            complete = issue_cycle + svf_conf.fast_latency
            entry_ready[qw] = complete
        else:
            stats.svf_fast_loads += 1
            complete = max(
                issue_cycle + fast_latency,
                entry_ready.get(qw, 0) + 1,
            )
        return complete

    if route == _R_REROUTE:
        stats.svf_rerouted += 1
        outcome = svf.access(addr, size, bool(is_store))
        access_latency = svf_conf.reroute_latency
        if outcome.filled:
            access_latency = dl1.access(addr) + 1
        if is_store:
            # Stores complete into the LSQ as on the DL1 path; the
            # reroute penalty applies to loads, which must poll the
            # SVF after their address resolves.
            complete = issue_cycle + 1
            entry_ready[qw] = complete
            pending_gpr_store[qw] = (index, complete)
        else:
            complete = (
                max(issue_cycle, entry_ready.get(qw, 0)) + access_latency
            )
        return complete

    if route == _R_SC:
        outcome = stack_cache.access(addr, size, bool(is_store))
        if outcome.hit:
            access_latency = dl1_latency
        else:
            access_latency = l2.access(addr, is_write=bool(is_store))
        return _lsq_complete(
            is_store,
            index,
            qw,
            issue_cycle,
            access_latency,
            stats,
            last_store,
            forward_latency,
        )

    # Default DL1 path.
    if is_store:
        access_latency = 1
        dl1.access(addr, is_write=True)
    else:
        forwarded = last_store.get(qw)
        if forwarded is not None and forwarded[1] > issue_cycle:
            stats.store_forwards += 1
            return max(issue_cycle, forwarded[1]) + forward_latency
        access_latency = dl1.access(addr)
    return _lsq_complete(
        is_store,
        index,
        qw,
        issue_cycle,
        access_latency,
        stats,
        last_store,
        forward_latency,
    )


def _lsq_complete(
    is_store,
    index,
    qw,
    issue_cycle,
    access_latency,
    stats,
    last_store,
    forward_latency,
):
    """Store-forwarding-aware completion for LSQ-mediated references."""
    if is_store:
        complete = issue_cycle + 1
        last_store[qw] = (index, complete)
        return complete
    forwarded = last_store.get(qw)
    if forwarded is not None and forwarded[1] > issue_cycle:
        stats.store_forwards += 1
        return max(issue_cycle, forwarded[1]) + forward_latency
    return issue_cycle + access_latency
