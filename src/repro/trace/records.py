"""Dynamic-instruction trace records: the tests' reference shape.

Production code keeps traces as columns
(:class:`~repro.trace.columnar.ColumnarTrace`).  A :class:`TraceRecord`
is the same information for one retired instruction as an object; the
emulator's reference emitter and ``ColumnarTrace.record_at`` build
them so the differential tests can check every column walk against a
record-at-a-time walk.  A record carries everything the downstream
consumers need:

* the timing model (``repro.uarch``) uses the register source/dest sets,
  op class, memory address and branch outcome;
* the trace analyses (Figures 1-3) use the base register, memory
  address and the ``$sp`` value at retirement;
* the SVF/stack-cache traffic models (Table 3/4) use addresses, sizes
  and the ``sp_update`` markers.

Records use ``__slots__``: a reference run produces 10^5-10^6 of them.
"""

from __future__ import annotations

from typing import Optional, Tuple

from repro.isa.instructions import OpClass


class TraceRecord:
    """One dynamically executed instruction."""

    __slots__ = (
        "index",
        "pc",
        "op",
        "op_class",
        "srcs",
        "dst",
        "is_load",
        "is_store",
        "addr",
        "size",
        "base_reg",
        "displacement",
        "is_branch",
        "is_conditional",
        "taken",
        "next_pc",
        "sp_value",
        "sp_update",
        "sp_update_immediate",
    )

    def __init__(
        self,
        index: int,
        pc: int,
        op: str,
        op_class: OpClass,
        srcs: Tuple[int, ...],
        dst: Optional[int],
        is_load: bool = False,
        is_store: bool = False,
        addr: int = 0,
        size: int = 0,
        base_reg: Optional[int] = None,
        displacement: int = 0,
        is_branch: bool = False,
        is_conditional: bool = False,
        taken: bool = False,
        next_pc: int = 0,
        sp_value: int = 0,
        sp_update: bool = False,
        sp_update_immediate: int = 0,
    ):
        self.index = index
        self.pc = pc
        self.op = op
        self.op_class = op_class
        self.srcs = srcs
        self.dst = dst
        self.is_load = is_load
        self.is_store = is_store
        self.addr = addr
        self.size = size
        self.base_reg = base_reg
        self.displacement = displacement
        self.is_branch = is_branch
        self.is_conditional = is_conditional
        self.taken = taken
        self.next_pc = next_pc
        self.sp_value = sp_value
        self.sp_update = sp_update
        self.sp_update_immediate = sp_update_immediate

    @property
    def is_mem(self) -> bool:
        return self.is_load or self.is_store

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        extra = ""
        if self.is_mem:
            kind = "load" if self.is_load else "store"
            extra = f" {kind} @0x{self.addr:x}"
        if self.is_branch:
            extra += f" taken={self.taken}"
        return f"<TraceRecord #{self.index} {self.op}{extra}>"
