"""Differential gate for the superblock replay engine.

Step-decode is the reference implementation; replay must be
bit-identical on every registry workload, on hypothesis-fuzzed
programs, across window boundaries, and through mid-block faults.
The gate runs both paths in one process via
``set_superblock_enabled`` and compares full column traces.
"""

import os
import subprocess
import sys
from collections import defaultdict
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from repro.emulator import Machine, superblock
from repro.emulator.machine import EmulatorError
from repro.emulator.memory import TEXT_BASE, MemoryError_
from repro.emulator.superblock import (
    set_superblock_enabled,
    superblock_enabled,
)
from repro.isa import assemble
from repro.isa.encoding import OPCODE_NUMBERS
from repro.profiling import profiled
from repro.trace.columnar import ColumnarTrace
from repro.workloads import registry


def _trace_with(source_or_workload, enabled, max_instructions=None):
    """Run with the engine toggled; returns (trace, machine, error)."""
    previous = set_superblock_enabled(enabled)
    try:
        if isinstance(source_or_workload, str):
            machine = Machine(assemble(source_or_workload))
        else:
            machine = Machine(source_or_workload.program())
        trace = ColumnarTrace()
        error = None
        try:
            machine.run(
                max_instructions=max_instructions, trace_sink=trace
            )
        except (EmulatorError, MemoryError_) as exc:
            error = (type(exc), str(exc))
        return trace, machine, error
    finally:
        set_superblock_enabled(previous)


def _assert_identical(source_or_workload, max_instructions=None):
    ref_trace, ref_machine, ref_error = _trace_with(
        source_or_workload, False, max_instructions
    )
    sb_trace, sb_machine, sb_error = _trace_with(
        source_or_workload, True, max_instructions
    )
    assert sb_error == ref_error
    assert len(sb_trace) == len(ref_trace)
    assert sb_trace == ref_trace
    assert sb_machine.registers == ref_machine.registers
    assert sb_machine.output == ref_machine.output
    assert sb_machine.instruction_count == ref_machine.instruction_count
    assert sb_machine.memory._words == ref_machine.memory._words
    assert sb_machine.halted == ref_machine.halted
    assert sb_machine.pc == ref_machine.pc
    return ref_trace


def _link(source):
    """Fill ``{label}`` fields with the label's text address."""
    labels = assemble(source.format_map(defaultdict(int))).labels
    return source.format_map(
        {label: TEXT_BASE + 4 * index for label, index in labels.items()}
    )


def _split_run(program, stops):
    """One machine run in windows ending at ``stops``, then to the end."""
    machine = Machine(program)
    trace = ColumnarTrace()
    for stop in stops:
        machine.run(
            max_instructions=stop - machine.instruction_count,
            trace_sink=trace,
        )
    machine.run(trace_sink=trace)
    return trace, machine


class TestWorkloadIdentity:
    @pytest.mark.parametrize("name", registry.ALL_BENCHMARKS)
    def test_replay_is_bit_identical(self, name):
        _assert_identical(registry.workload(name), 12_000)

    def test_window_can_land_mid_block(self):
        # Sweep a range of stop counts so some land inside a
        # straight-line region: the engine must fall back to
        # step-decode rather than overshoot the window.
        work = registry.workload("164.gzip")
        for window in range(3_000, 3_009):
            trace = _assert_identical(work, window)
            assert len(trace) == window

    def test_window_stops_at_every_position_of_a_long_region(self):
        # crafty's longest region (137 ops, a fused branch at its
        # end): stop the window at every position inside it, at its
        # terminator and just past it.
        work = registry.workload("186.crafty")
        machine = Machine(work.program())
        lengths = machine._region_len
        head = max(range(len(lengths)), key=lengths.__getitem__)
        length = lengths[head]
        assert length > 100
        reference, _, _ = _trace_with(work, False, 12_000)
        start = list(reference.pc).index(TEXT_BASE + 4 * head)
        for stop in range(start, start + length + 2):
            trace = _assert_identical(work, stop)
            assert len(trace) == stop

    def test_resumed_windows_match_one_run(self):
        # A window that ends inside a region leaves its head unbuilt;
        # the next window resumes mid-region and must still match
        # step-decode, however the run is split.
        program = registry.workload("164.gzip").program()
        previous = set_superblock_enabled(False)
        try:
            reference, ref_machine = _split_run(program, ())
        finally:
            set_superblock_enabled(previous)
        for stops in ((1,), (7, 8, 500), (2_999, 3_000, 3_013)):
            trace, machine = _split_run(program, stops)
            assert trace == reference
            assert machine.registers == ref_machine.registers
            assert machine.output == ref_machine.output

    @pytest.mark.parametrize("window", [40_000, 80_000])
    @pytest.mark.parametrize("name", registry.ALL_BENCHMARKS)
    def test_every_built_template_is_replayed(
        self, monkeypatch, name, window
    ):
        # Builds are window-aware: a template is compiled only when
        # the whole region fits in the window, so none is wasted on
        # a window tail it can never replay.
        replays = []
        build = superblock.build_template

        def counted_build(*args):
            template = build(*args)
            calls = [0]
            run_block = template.run

            def counted_run(*call_args):
                calls[0] += 1
                return run_block(*call_args)

            template.run = counted_run
            replays.append(calls)
            return template

        monkeypatch.setattr(superblock, "build_template", counted_build)
        previous = set_superblock_enabled(True)
        try:
            machine = Machine(registry.workload(name).program())
            machine.run(max_instructions=window, trace_sink=ColumnarTrace())
        finally:
            set_superblock_enabled(previous)
        assert replays
        assert all(calls[0] > 0 for calls in replays)


class TestFaultPaths:
    def test_division_by_zero_mid_block(self):
        # lda/lda/divq/print is one straight-line region; the fault
        # strikes after two ops retired, and the partial emit plus the
        # machine state must match step-decode exactly.
        _assert_identical(
            """
            main:
                lda r1, 7(zero)
                lda r2, 0(zero)
                divq r1, r2, r3
                print r3
                halt
            """
        )

    def test_unaligned_load_mid_block(self):
        _assert_identical(
            """
            main:
                lda r1, 64(zero)
                lda r2, 1(zero)
                ldq r3, 0(r2)
                print r3
                halt
            """
        )

    def test_unaligned_store_mid_block(self):
        _assert_identical(
            """
            main:
                lda r1, 5(zero)
                lda r2, 12(zero)
                stq r1, 1(r2)
                print r1
                halt
            """
        )


#: Hand-written programs whose regions end in every fused terminator
#: and fault after templates are warm (``{label}`` = text address).
_TERMINATOR_PROGRAMS = {
    "jsr_misaligned_target": """
        main:
            lda sp, -16(sp)
            lda r1, 3(zero)
        loop:
            stq r1, 0(sp)
            subq r1, 1, r1
            bne r1, loop
            lda r2, 4098(zero)
            jsr r2
            halt
        """,
    "jmp_below_text": """
        main:
            lda r1, 3(zero)
        loop:
            subq r1, 1, r1
            print r1
            bne r1, loop
            lda r2, 8(zero)
            jmp r2
            halt
        """,
    "jsr_past_text": """
        main:
            lda r1, 2(zero)
        loop:
            subq r1, 1, r1
            bgt r1, loop
            lda r2, 65536(zero)
            jsr r2
            halt
        """,
    "calls_then_ret_to_halt": """
        main:
            lda sp, -16(sp)
            stq ra, 0(sp)
            lda r1, 3(zero)
            lda r6, {leaf}(zero)
        loop:
            bsr leaf
            jsr r6
            subq r1, 1, r1
            lda r7, {next}(zero)
            jmp r7
        next:
            bne r1, loop
            ldq ra, 0(sp)
            lda sp, 16(sp)
            ret
        leaf:
            print r1
            ret
        """,
    "conditional_branches": """
        main:
            lda r1, -2(zero)
        loop:
            blt r1, n1
            print r1
        n1:
            ble r1, n2
            print r1
        n2:
            bgt r1, n3
            print r1
        n3:
            bge r1, n4
            print r1
        n4:
            beq r1, n5
            print r1
        n5:
            bne r1, n6
            print r1
        n6:
            addq r1, 1, r1
            cmpeq r1, 3, r2
            beq r2, loop
            lda r3, 1(zero)
            sll r3, 63, r3
            blt r3, m1
            print r3
        m1:
            bge r3, m2
            print r3
        m2:
            bgt r3, m3
            print r3
        m3:
            ble r3, m4
            print r3
        m4:
            halt
        """,
    "misaligned_store_after_loop": """
        main:
            lda sp, -32(sp)
            lda r1, 3(zero)
        loop:
            stq r1, 8(sp)
            subq r1, 1, r1
            bne r1, loop
            lda r2, 1(sp)
            stq r1, 0(r2)
            halt
        """,
}


class TestTerminators:
    @pytest.mark.parametrize("name", sorted(_TERMINATOR_PROGRAMS))
    def test_every_stop_count_matches_step_decode(self, name):
        source = _link(_TERMINATOR_PROGRAMS[name])
        for stop in range(1, 40):
            _assert_identical(source, stop)
        _assert_identical(source)

    def test_bad_targets_raise_after_the_body_retires(self):
        # A bad jsr/jmp target retires every op before the jump and
        # not the jump itself (jsr has already written $ra); an
        # aligned target past the text retires the jsr and faults on
        # the next fetch.
        for name, message, last_op in (
            ("jsr_misaligned_target", "bad jump target 0x1002", "lda"),
            ("jmp_below_text", "bad jump target 0x8", "lda"),
            ("jsr_past_text", "pc out of range", "jsr"),
        ):
            source = _link(_TERMINATOR_PROGRAMS[name])
            trace, machine, error = _trace_with(source, True)
            assert error[0] is EmulatorError
            assert message in error[1]
            assert trace.opcode[-1] == OPCODE_NUMBERS[last_op]
            if name.startswith("jsr"):
                jsr_pc = trace.pc[-1] + (4 if last_op == "lda" else 0)
                assert machine.registers[26] == jsr_pc + 4

    def test_ret_to_halt_sentinel_halts_inside_a_template(self):
        source = _link(_TERMINATOR_PROGRAMS["calls_then_ret_to_halt"])
        with profiled() as profiler:
            trace, machine, error = _trace_with(source, True)
        assert error is None
        assert machine.halted
        assert machine.output == [3, 3, 2, 2, 1, 1]
        # The final ret retires with next_pc = its own pc, taken.
        assert trace.next_pc[-1] == trace.pc[-1] == machine.pc
        assert trace.flags[-1] & 16
        replayed = profiler.counters["superblock_replayed_instructions"]
        assert replayed == len(trace)


class TestToggleAndCounters:
    def test_toggle_returns_previous_state(self):
        original = superblock_enabled()
        try:
            assert set_superblock_enabled(False) == original
            assert superblock_enabled() is False
            assert set_superblock_enabled(True) is False
            assert superblock_enabled() is True
        finally:
            set_superblock_enabled(original)

    def test_env_var_disables_replay_at_startup(self):
        # Worker processes inherit REPRO_SUPERBLOCK=0, which is how
        # the CI differential smoke forces a --jobs N run onto the
        # step-decode reference path.
        env = dict(os.environ, REPRO_SUPERBLOCK="0")
        env["PYTHONPATH"] = str(Path(__file__).parent.parent / "src")
        probe = (
            "from repro.emulator.superblock import superblock_enabled;"
            "print(superblock_enabled())"
        )
        out = subprocess.run(
            [sys.executable, "-c", probe],
            capture_output=True,
            text=True,
            check=True,
            env=env,
        )
        assert out.stdout.strip() == "False"
        env["REPRO_SUPERBLOCK"] = "1"
        out = subprocess.run(
            [sys.executable, "-c", probe],
            capture_output=True,
            text=True,
            check=True,
            env=env,
        )
        assert out.stdout.strip() == "True"

    def test_counters_surface_through_profiler(self):
        work = registry.workload("164.gzip")
        previous = set_superblock_enabled(True)
        try:
            machine = Machine(work.program())
            with profiled() as profiler:
                machine.run(
                    max_instructions=8_000, trace_sink=ColumnarTrace()
                )
            assert profiler.counters["superblock_builds"] > 0
            # Build time is a counter, not a phase: the emulate phase
            # still covers it, so phase totals do not move.
            assert profiler.counters["superblock_build_us"] > 0
            assert set(profiler.phases) == {"emulate"}
            assert profiler.counters["superblock_replays"] > 0
            replayed = profiler.counters[
                "superblock_replayed_instructions"
            ]
            assert replayed >= profiler.counters["superblock_replays"]
            # Fused terminators: everything but the window tail replays.
            assert replayed / 8_000 > 0.99
            # Warm templates: continuing the same machine may build a
            # few templates for newly reached code, but replays must
            # dominate — compiled templates are reused, never rebuilt.
            cold_builds = profiler.counters["superblock_builds"]
            with profiled() as warm:
                machine.run(
                    max_instructions=8_000, trace_sink=ColumnarTrace()
                )
            warm_builds = warm.counters.get("superblock_builds", 0)
            assert warm_builds <= cold_builds
            assert warm.counters["superblock_replays"] > warm_builds
        finally:
            set_superblock_enabled(previous)

    def test_disabled_engine_emits_no_counters(self):
        work = registry.workload("164.gzip")
        previous = set_superblock_enabled(False)
        try:
            with profiled() as profiler:
                machine = Machine(work.program())
                machine.run(
                    max_instructions=4_000, trace_sink=ColumnarTrace()
                )
            assert "superblock_replays" not in profiler.counters
        finally:
            set_superblock_enabled(previous)


#: registers the fuzz mutates (away from $sp/$ra/$zero).
_REGS = ["r1", "r2", "r3", "r4"]

_straight_op = st.one_of(
    st.tuples(
        st.sampled_from(["addq", "subq", "mulq", "xor", "sll", "srl",
                         "sra", "cmple", "divq", "remq"]),
        st.sampled_from(_REGS),
        st.sampled_from(_REGS),
        st.sampled_from(_REGS),
    ),
    st.tuples(st.just("lda"), st.sampled_from(_REGS),
              st.integers(-4096, 4096)),
    st.tuples(st.just("stq"), st.sampled_from(_REGS),
              st.integers(0, 31)),
    st.tuples(st.just("ldq"), st.sampled_from(_REGS),
              st.integers(0, 31)),
    st.tuples(st.just("print"), st.sampled_from(_REGS)),
)


#: Control transfers that end a fuzzed region.  ``{b}`` is the label
#: right after it; jsr/jmp go through r6, which the fuzz never writes.
_TERMINATORS = {
    "beq": ["beq zero, {b}"],  # taken, to its own fall-through
    "bne": ["bne r1, {b}"],
    "blt": ["blt r2, {b}"],
    "ble": ["ble r3, {b}"],
    "bgt": ["bgt r4, {b}"],
    "bge": ["bge r1, {b}"],
    "br": ["br {b}"],
    "bsr": ["bsr leaf"],
    "jsr": ["lda r6, {{leaf}}(zero)", "jsr r6"],
    "jmp": ["lda r6, {{{b}}}(zero)", "jmp r6"],
    "ret": ["lda r6, {{{b}}}(zero)", "ret r6"],
    "jsr_misaligned": ["lda r6, 4098(zero)", "jsr r6"],
    "jmp_below_text": ["lda r6, 8(zero)", "jmp r6"],
}


def _fuzz_lines(block):
    lines = []
    for op in block:
        if op[0] == "lda":
            _, rd, imm = op
            lines.append(f"    lda {rd}, {imm}(zero)")
        elif op[0] in ("stq", "ldq"):
            name, rd, slot = op
            lines.append(f"    {name} {rd}, {8 * slot}(sp)")
        elif op[0] == "print":
            lines.append(f"    print {op[1]}")
        else:
            name, ra, rb, rd = op
            lines.append(f"    {name} {ra}, {rb}, {rd}")
    return lines


class TestFuzzIdentity:
    @settings(max_examples=40, deadline=None)
    @given(
        st.lists(
            st.lists(_straight_op, min_size=1, max_size=12),
            min_size=1,
            max_size=4,
        ),
        st.integers(1, 3),
    )
    def test_random_blocks_replay_identically(self, blocks, trips):
        # Random straight-line regions separated by a counted loop, so
        # templates are built once and replayed; divq/remq by a
        # possibly-zero register and sp-relative ldq/stq exercise the
        # fault and memory paths.
        lines = [
            "main:",
            "    lda sp, -256(sp)",
            f"    lda r5, {trips}(zero)",
            "loop:",
        ]
        for block_index, block in enumerate(blocks):
            lines += _fuzz_lines(block)
            # A branch terminates the region between fuzzed blocks.
            lines.append(f"    beq zero, b{block_index}")
            lines.append(f"b{block_index}:")
        lines += [
            "    subq r5, 1, r5",
            "    bne r5, loop",
            "    lda sp, 256(sp)",
            "    halt",
        ]
        _assert_identical("\n".join(lines))

    @settings(max_examples=40, deadline=None)
    @given(
        st.lists(
            st.tuples(
                st.lists(_straight_op, max_size=8),
                st.sampled_from(sorted(_TERMINATORS)),
            ),
            min_size=1,
            max_size=4,
        ),
        st.lists(_straight_op, max_size=6),
        st.integers(1, 3),
        st.integers(0, 60),
    )
    def test_random_terminators_replay_identically(
        self, blocks, leaf, trips, stop
    ):
        # Regions end in every fused control transfer: calls to a
        # fuzzed leaf by bsr and jsr, indirect jumps and returns to the
        # next block, bad indirect targets, and main's final ret to
        # the halt sentinel.  A random stop also lands windows inside
        # regions and on terminators.
        lines = [
            "main:",
            "    lda sp, -272(sp)",
            "    stq ra, 264(sp)",
            f"    lda r5, {trips}(zero)",
            "loop:",
        ]
        for block_index, (block, terminator) in enumerate(blocks):
            label = f"b{block_index}"
            lines += _fuzz_lines(block)
            lines += [
                "    " + line.format(b=label)
                for line in _TERMINATORS[terminator]
            ]
            lines.append(f"{label}:")
        lines += [
            "    subq r5, 1, r5",
            "    bne r5, loop",
            "    ldq ra, 264(sp)",
            "    lda sp, 272(sp)",
            "    ret",
            "leaf:",
        ]
        lines += _fuzz_lines(leaf)
        lines.append("    ret")
        source = _link("\n".join(lines))
        _assert_identical(source)
        if stop:
            _assert_identical(source, stop)
