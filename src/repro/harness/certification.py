"""Dynamic cross-validation of static certificates.

The certifier's verdicts are only worth committing if execution never
contradicts them.  This harness runs a program on the emulator with a
full :class:`~repro.trace.columnar.ColumnarTrace` and checks the two
falsifiable claims of a :class:`~repro.analysis.certify.ProgramCertificate`:

* **depth soundness** — the observed maximum stack depth
  (``STACK_BASE - min(sp)``) never exceeds the certified bound; an
  ``UNBOUNDED`` verdict is vacuously sound;
* **escape soundness** — every *computed-base* stack access (a load or
  store whose base register is neither ``$sp`` nor ``$fp`` but whose
  effective address lies in the live stack region) retires inside a
  function the certificate lists in :meth:`gpr_functions`.  When the
  certificate carries an ``unclean-escape`` flag that set degrades to
  every live function — an address laundered through memory can
  resurface anywhere, and the validation honors exactly that claim.

The observed→static direction is the only one that can be checked:
static sets are upper bounds, so ``observed ⊆ certified`` must hold on
every run while the converse legitimately may not.
"""

from __future__ import annotations

import bisect
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Set, Tuple

from repro.analysis.certify import ProgramCertificate, certify_program
from repro.emulator.memory import STACK_BASE, TEXT_BASE
from repro.trace.columnar import FLAG_LOAD, FLAG_STORE, ColumnarTrace
from repro.isa.registers import FP, SP


@dataclass
class ValidationResult:
    """Outcome of validating one certificate against one trace."""

    name: str
    instructions: int
    observed_depth: int
    certified_depth: Optional[int]  # None = UNBOUNDED (vacuously sound)
    depth_ok: bool
    observed_gpr: Tuple[str, ...]
    certified_gpr: Tuple[str, ...]
    escapes_ok: bool
    halted: bool = True
    notes: List[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return self.depth_ok and self.escapes_ok

    def render(self) -> str:
        mark = "ok" if self.ok else "FAIL"
        bound = (
            f"<= {self.certified_depth}"
            if self.certified_depth is not None else "UNBOUNDED"
        )
        extra = f"; {'; '.join(self.notes)}" if self.notes else ""
        return (
            f"{self.name}: validation {mark} — observed depth "
            f"{self.observed_depth} vs certified {bound}; "
            f"computed-base stack access in "
            f"{list(self.observed_gpr) or 'no'} function(s), certified "
            f"{list(self.certified_gpr) or 'none'} "
            f"({self.instructions} instructions){extra}"
        )

    def to_dict(self) -> Dict:
        return {
            "name": self.name,
            "ok": self.ok,
            "instructions": self.instructions,
            "halted": self.halted,
            "observed_depth": self.observed_depth,
            "certified_depth": self.certified_depth,
            "depth_ok": self.depth_ok,
            "observed_gpr": list(self.observed_gpr),
            "certified_gpr": list(self.certified_gpr),
            "escapes_ok": self.escapes_ok,
            "notes": list(self.notes),
        }


def _function_table(certificate: ProgramCertificate
                    ) -> Tuple[List[int], List[str]]:
    """Sorted (start pc, name) arrays for pc→function attribution."""
    if certificate.summary is None:
        return [], []
    functions = certificate.summary.graph.pcfg.functions
    pairs = sorted(
        (TEXT_BASE + 4 * function.start, name)
        for name, function in functions.items()
    )
    return [pc for pc, _name in pairs], [name for _pc, name in pairs]


def _observed_gpr_functions(trace: ColumnarTrace,
                            certificate: ProgramCertificate,
                            floor: int) -> Set[str]:
    """Functions retiring computed-base accesses into the stack region."""
    starts, names = _function_table(certificate)
    if not starts:
        return set()
    observed: Set[str] = set()

    arrays = trace.as_arrays()
    if arrays is not None:
        import numpy as np

        is_mem = (arrays.flags & (FLAG_LOAD | FLAG_STORE)) != 0
        computed = (arrays.base != SP) & (arrays.base != FP) & is_mem
        in_stack = (arrays.addr >= floor) & (arrays.addr < STACK_BASE)
        hits = np.flatnonzero(computed & in_stack)
        if len(hits):
            pcs = np.unique(arrays.pc[hits])
            for pc in pcs.tolist():
                slot = bisect.bisect_right(starts, pc) - 1
                if slot >= 0:
                    observed.add(names[slot])
        return observed

    for index in range(len(trace)):
        flags = trace.flags[index]
        if not flags & (FLAG_LOAD | FLAG_STORE):
            continue
        base = trace.base[index]
        if base == SP or base == FP:
            continue
        addr = trace.addr[index]
        if not floor <= addr < STACK_BASE:
            continue
        slot = bisect.bisect_right(starts, trace.pc[index]) - 1
        if slot >= 0:
            observed.add(names[slot])
    return observed


def validate_certificate(certificate: ProgramCertificate,
                         trace: ColumnarTrace,
                         halted: bool = True) -> ValidationResult:
    """Check one certificate against one execution trace."""
    if len(trace):
        arrays = trace.as_arrays()
        floor = min(trace.sp) if arrays is None else int(arrays.sp.min())
        observed_depth = STACK_BASE - floor
    else:
        floor = STACK_BASE
        observed_depth = 0

    depth_ok = (
        certificate.depth_bound is None
        or observed_depth <= certificate.depth_bound
    )

    certified_gpr = set(certificate.gpr_functions())
    observed_gpr = _observed_gpr_functions(trace, certificate, floor)
    escapes_ok = observed_gpr <= certified_gpr

    result = ValidationResult(
        name=certificate.name,
        instructions=len(trace),
        observed_depth=observed_depth,
        certified_depth=certificate.depth_bound,
        depth_ok=depth_ok,
        observed_gpr=tuple(sorted(observed_gpr)),
        certified_gpr=tuple(sorted(certified_gpr)),
        escapes_ok=escapes_ok,
        halted=halted,
    )
    if not depth_ok:
        result.notes.append(
            f"observed depth {observed_depth} EXCEEDS certified "
            f"{certificate.depth_bound}"
        )
    if not escapes_ok:
        rogue = sorted(observed_gpr - certified_gpr)
        result.notes.append(
            f"uncertified computed-base stack access in {rogue}"
        )
    return result


def certify_workload(work, options=None) -> ProgramCertificate:
    """Certificate for one registry workload (static only)."""
    return certify_program(work.program(options), name=work.full_name)


def validate_workload(work, options=None,
                      max_instructions: Optional[int] = None
                      ) -> Tuple[ProgramCertificate, ValidationResult]:
    """Certify one registry workload and validate it on a full run."""
    certificate = certify_workload(work, options)
    trace = ColumnarTrace()
    machine = work.run(
        max_instructions=max_instructions, trace_sink=trace,
        options=options,
    )
    return certificate, validate_certificate(
        certificate, trace, halted=machine.halted
    )


def certify_adversarial(member) -> ProgramCertificate:
    """Certificate for one adversarial program (static only)."""
    return certify_program(member.program(), name=member.name)


def validate_adversarial(member,
                         max_instructions: Optional[int] = 1_000_000
                         ) -> Tuple[ProgramCertificate, ValidationResult]:
    """Certify one adversarial program and validate its claims.

    Even contract-breaking programs must not contradict the verdicts:
    a flagged certificate still carries a depth bound / escape set
    claim (possibly degraded to all-live), and the observed run must
    stay inside it.
    """
    certificate = certify_adversarial(member)
    trace = ColumnarTrace()
    machine = member.run(max_instructions=max_instructions,
                         trace_sink=trace)
    return certificate, validate_certificate(
        certificate, trace, halted=machine.halted
    )


def render_validations(results: Sequence[ValidationResult]) -> str:
    lines = [result.render() for result in results]
    failed = [result.name for result in results if not result.ok]
    footer = f"{len(results)} run(s) validated"
    footer += (
        " — FAIL: " + ", ".join(failed) if failed else ", all sound"
    )
    lines.append(footer)
    return "\n".join(lines)


__all__ = [
    "ValidationResult",
    "certify_adversarial",
    "certify_workload",
    "render_validations",
    "validate_adversarial",
    "validate_certificate",
    "validate_workload",
]
