"""Superblock replay engine: compiled basic blocks, branch included.

The emulator's step path pays per retired instruction for a bounds
check, a 9-tuple unpack, an integer dispatch and fourteen column
``append`` calls.  Between two control transfers the instruction
sequence, and therefore twelve of the fourteen column values, are a
pure function of the entry ``pc_index``; only the effective addresses,
``$sp``, and where the block's branch goes depend on machine state.

This module gives the *simulator* the same trace-cache-style
microarchitecture the paper gives the stack.  A *region* is the
straight-line run of ALU/load/store/lda/print/nop ops starting at a
``pc_index`` plus the control transfer that ends it (``beq``…``bge``,
``br``, ``bsr``, ``jsr``, ``ret``/``jmp``; ``halt`` is left to the
step path).  The first time ``Machine.run`` lands on a region head
and the whole region fits in the window, it compiles the region into
a *template*: a straight-line Python function generated once with
``exec`` that

* runs every op with inlined ALU expressions and aligned loads and
  stores against the memory's word dict (no dispatch, no bounds check,
  no tuple unpack);
* evaluates the terminator itself (branch predicate, ``$ra`` write,
  indirect-target check, the halt sentinel) and returns the *exit*
  taken: ``(next_index, static column blobs, halts)``;
* appends its ``addr`` and ``sp`` column slices with one ``extend``
  each, zeros written as literals.

The twelve static columns of an exit (``pc``, ``opcode``, ``flags``,
``size``, ``base``, ``dst``, ``nsrc``, ``src0``, ``src1``, ``disp``,
``spimm``, ``next_pc``) are pre-packed byte blobs; ``flags`` and
``next_pc`` differ per exit (taken and not-taken differ in
``FLAG_TAKEN`` even when a branch targets its own fall-through), so
each exit's blobs are built lazily the first time it is taken.  The
caller logs each replay's blobs and joins the log into the columns in
chunks (:func:`flush_log`), so a replay costs one list append for the
static columns.

``Machine`` computes every pc's region length once
(:func:`region_lengths`) and never builds a template the window
cannot replay: near the end of a window it steps instead, and the
head stays unexamined so a later, longer window can build it.

Templates are keyed on ``pc_index`` and **never invalidated**: the
text segment is immutable for the lifetime of a :class:`Machine`
(programs are assembled up front; there is no store-to-text path), so
a compiled template can never go stale.  Build/replay counters and
the build time (``superblock_build_us``) are surfaced through
:mod:`repro.profiling` by ``Machine.run``.

Replay is bit-identical to step-decode and is gated differentially by
``tests/test_emulator_superblock.py`` (all registry workloads,
hypothesis-fuzzed programs, window stops at every position of a
region, and fault paths).  Faults keep the step path's semantics:
when an op raises (division by zero, a bad effective address, a bad
indirect target), the ops before it have retired, registers and
memory are exactly as the interpreter would leave them, and
:meth:`SuperblockTemplate.emit_retired` appends the retired ops'
columns from the generated function's locals before the error
propagates.

``set_superblock_enabled`` toggles the engine at runtime (the
differential gate and the benchmarks compare both paths in one
process); the step-decode walk remains the reference implementation.
"""

from __future__ import annotations

import os
from array import array
from functools import partial
from typing import List

from repro.trace.columnar import FLAG_TAKEN

_MASK64 = (1 << 64) - 1

#: Runtime switch (see :func:`set_superblock_enabled`).  The
#: ``REPRO_SUPERBLOCK=0`` environment variable starts the process with
#: replay off — worker processes inherit it, so a whole ``--jobs N``
#: run can be forced onto the step-decode reference path (the CI
#: differential smoke compares both full reports byte-for-byte).
_ENABLED = os.environ.get("REPRO_SUPERBLOCK", "1") != "0"


def superblock_enabled() -> bool:
    """True when ``Machine.run`` replays templates on the packed path."""
    return _ENABLED


def set_superblock_enabled(enabled: bool) -> bool:
    """Toggle superblock replay; returns the previous state.

    Step-decode is the reference implementation; the differential
    tests and the benchmarks use this to run both paths in one
    process.  Disabling never drops compiled templates — re-enabling
    reuses them (text is immutable, so they cannot be stale).
    """
    global _ENABLED
    previous = _ENABLED
    _ENABLED = bool(enabled)
    return previous


# Structural kinds, mirrored from repro.emulator.machine (kept as
# literals here to avoid a circular import).
_K_ALU = 0
_K_LOAD = 1
_K_LDA = 2
_K_STORE = 3
_K_CBR = 4
_K_BR = 5
_K_BSR = 6
_K_JSR = 7
_K_JMP = 8
_K_PRINT = 9
_K_NOP = 11

#: Kinds a region's body may contain.
_STRAIGHT_KINDS = frozenset((_K_ALU, _K_LOAD, _K_LDA, _K_STORE,
                             _K_PRINT, _K_NOP))

#: Control transfers a template runs itself (``halt`` is not one).
_TERMINATOR_KINDS = frozenset((_K_CBR, _K_BR, _K_BSR, _K_JSR, _K_JMP))

#: ALU handlers that are safe to inline as expressions.  Handlers that
#: need sign conversion or can raise stay as calls so error and
#: rounding semantics are byte-for-byte the step path's.
_INLINE_ALU = {
    "addq": "({a} + {b}) & M",
    "subq": "({a} - {b}) & M",
    "mulq": "({a} * {b}) & M",
    "and": "{a} & {b}",
    "or": "{a} | {b}",
    "xor": "{a} ^ {b}",
    "bic": "{a} & ~{b} & M",
    "sll": "({a} << ({b} & 63)) & M",
    "srl": "({a} & M) >> ({b} & 63)",
    "cmpeq": "1 if {a} == {b} else 0",
    "cmpult": "1 if {a} < {b} else 0",
}

#: ALU ops that can raise at runtime (division by zero).
_FAULTING_ALU = frozenset(("divq", "remq"))

#: Conditional-branch predicates over an *unsigned* 64-bit register
#: value (registers always hold values in ``[0, 2**64)``), equivalent
#: to the step path's predicates over the sign-converted value.
_BRANCH_TESTS = {
    "beq": "{v} == 0",
    "bne": "{v} != 0",
    "blt": "{v} >= S",
    "bge": "{v} < S",
    "ble": "not 0 < {v} < S",
    "bgt": "0 < {v} < S",
}

_ZERO = 31
_SP = 30
_RA = 26


def region_lengths(decoded) -> List[int]:
    """Template length at every ``pc_index`` of a decoded program.

    The length counts the straight-line body and the fused terminator;
    zero marks a ``halt``, where no template is built.  Every other
    region gets one, however short: a one-op region replays a little
    slower than it steps, but stepping it would also flush the block
    log, and on full runs a floor of 2 or 3 ops was no faster.
    """
    lengths = [0] * (len(decoded) + 1)
    for index in range(len(decoded) - 1, -1, -1):
        kind = decoded[index][0]
        if kind in _STRAIGHT_KINDS:
            lengths[index] = lengths[index + 1] + 1
        elif kind in _TERMINATOR_KINDS:
            lengths[index] = 1
    del lengths[-1]
    return lengths


def flush_log(log: list, emitters) -> None:
    """Join the logged replays' static blobs into the columns.

    ``log`` holds one 12-tuple of column blobs per replay, in
    retirement order; ``emitters`` are the matching column appenders.
    """
    for emit, parts in zip(emitters, zip(*log)):
        emit(b"".join(parts))
    log.clear()


class _Exits(dict):
    """Exit key -> ``(next_index, column blobs, halts)``, built lazily."""

    __slots__ = ("_build",)

    def __init__(self, build):
        super().__init__()
        self._build = build

    def __missing__(self, key):
        entry = self[key] = self._build(key)
        return entry


def _exit_entry(start_index, length, static, fused, text_base, key):
    """Build the ``(next_index, blobs, halts)`` entry of one exit.

    ``static`` holds the column blobs of every op; the terminator's
    flags there carry no FLAG_TAKEN and its next_pc is a placeholder.
    ``fused`` is the terminator's ``(kind, target_index)``, or None
    when the region ends at a ``halt`` or at the end of the text.
    """
    end = start_index + length
    if fused is None:
        return end, static, False
    kind, target = fused
    halts = False
    if kind == _K_CBR:
        taken = key == 1
        next_index = target if taken else end
    elif kind == _K_BR or kind == _K_BSR:
        taken = True
        next_index = target
    elif key == -1:  # ret/jmp to the halt sentinel
        taken = halts = True
        next_index = end - 1
    else:  # jsr/ret/jmp: the key is the target index
        taken = True
        next_index = key
    blobs = list(static)
    if taken:
        flags = bytearray(blobs[2])
        flags[-1] |= FLAG_TAKEN
        blobs[2] = bytes(flags)
    blobs[11] = blobs[11][:-8] + array(
        "Q", (text_base + 4 * next_index,)
    ).tobytes()
    return next_index, tuple(blobs), halts


class SuperblockTemplate:
    """One compiled region: its straight-line body and terminator.

    :attr:`run` is the generated function.  Called as
    ``run(registers, words, load, load_signed, store, output_append,
    addr_extend, sp_extend)``, it executes the region, appends its
    ``addr``/``sp`` slices, and returns the exit taken.  Exit keys are
    ``0``/``1`` for fall-through/taken, the target ``pc_index`` of an
    indirect jump, or ``-1`` for a ``ret`` to the halt sentinel.

    Nothing the generated function reaches refers back to the template
    or the machine, so a dropped ``Machine`` is freed at once rather
    than by the cycle collector.
    """

    __slots__ = (
        "start_index",
        "length",
        "run",
        "_code",
        "_static",
        "_sp_names",
    )

    def __init__(self, start_index, length, run, static_blobs, sp_names):
        self.start_index = start_index
        self.length = length
        self.run = run
        #: Code of the generated function (finds its frame on a fault).
        self._code = run.__code__
        self._static = static_blobs
        #: Per op, the local holding ``$sp`` after it retired.
        self._sp_names = sp_names

    def emit_retired(self, error: BaseException, emitters, addr_extend,
                     sp_extend) -> None:
        """Append the columns of the ops retired before ``error``.

        ``emitters`` are the static columns' appenders, in the order
        :func:`flush_log` takes them.  Reads the generated function's
        locals from the traceback of the fault it raised.  Effective
        addresses live in locals ``a<k>`` (bound before op ``k``
        touches memory), and ``p`` is stored just before a division or
        indirect jump, so the faulting op is the highest position the
        frame has reached.
        """
        tb = error.__traceback__
        while tb.tb_frame.f_code is not self._code:
            tb = tb.tb_next
        frame = tb.tb_frame.f_locals
        done = frame.get("p", 0)
        for name in frame:
            if name[0] == "a" and name[1:].isdigit():
                done = max(done, int(name[1:]))
        if done == 0:
            return
        for emit, blob in zip(emitters, self._static):
            emit(blob[:done * (len(blob) // self.length)])
        addr_extend(frame.get(f"a{k}", 0) for k in range(done))
        sp_extend(frame[name] for name in self._sp_names[:done])


def build_template(decoded, emit_cols, start_index, length, text_base,
                   halt_address, index_of) -> SuperblockTemplate:
    """Compile the ``length``-op region at ``start_index``.

    ``decoded``/``emit_cols`` are ``Machine``'s per-instruction
    execution tuples and static column tuples (the ALU handler and
    branch predicate ride in the decoded tuple); ``length`` comes from
    :func:`region_lengths`.  ``index_of`` is the machine's
    jump-target check, called only to raise on a bad indirect target.
    """
    ops = decoded[start_index:start_index + length]
    terminator = None
    if ops[-1][0] in _TERMINATOR_KINDS:
        terminator = ops.pop()
    body_length = len(ops)

    # ---------------------------------------------------------- body
    # R=registers W=memory word dict ml/mls/ms=Memory methods (fault
    # fallback) oa=output.append AX/SX=addr/sp column extends.
    # Aligned memory accesses are inlined against W with the exact
    # semantics of Memory.load/load_signed/store; the method call
    # survives only on the fault path (misalignment), so error type
    # and message are the step path's.  Effective addresses land in
    # locals a<k>; $sp after each $sp write in s<k> (s = on entry).
    namespace = {"M": _MASK64, "S": 1 << 63}
    lines = ["def _block(R, W, ml, mls, ms, oa, AX, SX):", "    s = R[30]"]
    if any(op[0] in (_K_LOAD, _K_STORE) for op in ops):
        lines.append("    WG = W.get")
    code = []
    addr_names = []
    sp_names = []
    sp_now = "s"
    for position, op in enumerate(ops):
        kind, fn, rd, ra, rb, imm, rimm, _target, mem_size = op
        addr_names.append("0")
        if kind == _K_ALU:
            name = fn.__name__[5:]  # _alu_<name>
            left = _reg(ra)
            right = repr(rimm) if rimm is not None else _reg(rb)
            if name in _FAULTING_ALU:
                # Division by zero must raise, even into $zero.
                namespace[f"H{position}"] = fn
                call = f"H{position}({left}, {right})"
                code.append(f"p = {position}")
                code.append(f"R[{rd}] = {call}" if rd != _ZERO else call)
            elif rd == _ZERO:
                pass  # pure op, dead destination
            elif left == "0" and not right.startswith("R"):
                # Constant operands: fold the pure handler now.
                code.append(f"R[{rd}] = {fn(0, int(right))}")
            elif name in _INLINE_ALU:
                expr = _INLINE_ALU[name].format(a=left, b=right)
                code.append(f"R[{rd}] = {expr}")
            else:
                namespace[f"H{position}"] = fn
                code.append(f"R[{rd}] = H{position}({left}, {right})")
        elif kind == _K_LOAD:
            a = addr_names[-1] = f"a{position}"
            code.append(f"{a} = {_address(rb, imm)}")
            if mem_size == 8:
                load = f"WG({a}, 0) if not {a} & 7 else ml({a}, 8)"
                if rd != _ZERO:
                    code.append(f"R[{rd}] = {load}")
                else:
                    code.append(f"({load})")
            else:
                code.append(
                    f"v = ((WG({a} & -8, 0) >> (({a} & 4) << 3))"
                    f" & 0xFFFFFFFF) if not {a} & 3 else mls({a}, 4)"
                )
                if rd != _ZERO:
                    code.append(
                        f"R[{rd}] = (v - 0x100000000) & M"
                        " if v & 0x80000000 else v"
                    )
        elif kind == _K_LDA:
            if rd != _ZERO:
                code.append(f"R[{rd}] = {_address(rb, imm)}")
        elif kind == _K_STORE:
            a = addr_names[-1] = f"a{position}"
            value = _reg(rd)
            code.append(f"{a} = {_address(rb, imm)}")
            if mem_size == 8:
                # A misaligned store raises inside ms before W changes.
                code.append(
                    f"W[{a}] = {value} & M if not {a} & 7"
                    f" else ms({a}, {value}, 8)"
                )
            else:
                code += [
                    f"if {a} & 3:",
                    f"    ms({a}, {value}, 4)",
                    "else:",
                    f"    b = {a} & -8",
                    f"    t = ({a} & 4) << 3",
                    "    W[b] = (WG(b, 0) & ~(0xFFFFFFFF << t))"
                    f" | (({value} & 0xFFFFFFFF) << t)",
                ]
        elif kind == _K_PRINT:
            namespace.setdefault("SG", _signed)
            code.append(f"oa(SG({_reg(ra)}))")
        # _K_NOP: retires a record but computes nothing.
        if kind in (_K_ALU, _K_LOAD, _K_LDA) and rd == _SP:
            sp_now = f"s{position}"
            code.append(f"{sp_now} = R[30]")
        sp_names.append(sp_now)

    # ---------------------------------------------------- terminator
    exit_expr = "0"
    fused = None  # (kind, target_index) of the terminator, for the exits
    if terminator is not None:
        kind, fn, _rd, ra, rb, _imm, _rimm, target, _size = terminator
        position = body_length
        addr_names.append("0")
        sp_names.append(sp_now)
        return_address = text_base + 4 * (start_index + position + 1)
        if kind == _K_CBR:
            test = _BRANCH_TESTS[fn.__name__[6:]]  # _cond_<name>
            exit_expr = "1 if " + test.format(v=_reg(ra)) + " else 0"
        elif kind == _K_BR:
            exit_expr = "1"
        elif kind == _K_BSR:
            code.append(f"R[{_RA}] = {return_address}")
            exit_expr = "1"
        else:
            namespace["IX"] = index_of
            code.append(f"d = {_reg(rb)}")
            check = f"d & 3 or d < {text_base}"
            if kind == _K_JSR:
                code.append(f"R[{_RA}] = {return_address}")
                exit_expr = f"(d - {text_base}) >> 2"
            else:  # ret/jmp: the sentinel address halts the machine
                check = f"d != {halt_address} and ({check})"
                exit_expr = (
                    f"-1 if d == {halt_address} else (d - {text_base}) >> 2"
                )
            code += [f"if {check}:", f"    p = {position}", "    IX(d)"]
        fused = (kind, target)

    lines += ["    " + line for line in code]
    if any(name != "0" for name in addr_names):
        lines.append(f"    AX(({', '.join(addr_names)},))")
    else:
        namespace["Z"] = array("Q", bytes(8 * length))
        lines.append("    AX(Z)")
    if sp_now == "s":
        lines.append(f"    SX((s,) * {length})")
    else:
        lines.append(f"    SX(({', '.join(sp_names)},))")
    lines.append(f"    return X[{exit_expr}]")

    # ------------------------------------------------- static columns
    pcs = array("Q")
    opcodes = bytearray()
    flags = bytearray()
    sizes = bytearray()
    bases = array("b")
    dsts = array("b")
    nsrcs = bytearray()
    src0s = bytearray()
    src1s = bytearray()
    disps = array("q")
    spimms = array("q")
    next_pcs = array("Q")
    for index in range(start_index, start_index + length):
        (pc, opnum, flag, size, base, dst, nsrc, src0, src1, disp,
         spimm) = emit_cols[index]
        pcs.append(pc)
        opcodes.append(opnum)
        flags.append(flag)
        sizes.append(size)
        bases.append(base)
        dsts.append(dst)
        nsrcs.append(nsrc)
        src0s.append(src0)
        src1s.append(src1)
        disps.append(disp)
        spimms.append(spimm)
        next_pcs.append(text_base + 4 * (index + 1))
    static_blobs = (
        pcs.tobytes(),
        bytes(opcodes),
        bytes(flags),
        bytes(sizes),
        bases.tobytes(),
        dsts.tobytes(),
        bytes(nsrcs),
        bytes(src0s),
        bytes(src1s),
        disps.tobytes(),
        spimms.tobytes(),
        next_pcs.tobytes(),
    )
    namespace["X"] = _Exits(partial(
        _exit_entry, start_index, length, static_blobs, fused, text_base
    ))
    exec(compile("\n".join(lines), "<superblock>", "exec"), namespace)
    return SuperblockTemplate(
        start_index, length, namespace["_block"], static_blobs, sp_names
    )


def _reg(register: int) -> str:
    """Source expression of a register read (``$zero`` reads as 0)."""
    return "0" if register == _ZERO else f"R[{register}]"


def _address(base: int, displacement: int) -> str:
    """Expression for ``base + displacement``, folded off ``$zero``."""
    if base == _ZERO:
        return str(displacement & _MASK64)
    return f"(R[{base}] + {displacement}) & M"


def _signed(value: int) -> int:
    return value - (1 << 64) if value & (1 << 63) else value


__all__ = [
    "SuperblockTemplate",
    "build_template",
    "flush_log",
    "region_lengths",
    "set_superblock_enabled",
    "superblock_enabled",
]
