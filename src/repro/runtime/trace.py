"""Dynamic-trace vocabulary and static program layout.

The timing simulator is trace-driven.  A traced interpreter run
(:func:`repro.runtime.interp.run_program` with ``collect_trace=True``)
writes the trace straight into the columns of a
:class:`~repro.trace.pack.PackedTrace`; per dynamic instruction they
record

* ``pc`` — the instruction's laid-out address (I-cache, branch
  predictor indexing), via the static row,
* ``subsystem`` — which half of the partitioned machine executes it,
* ``reads``/``writes`` — *dependence tokens*, register instances made
  unique across activations as ``(frame_id, register name)``, so true
  dependences survive recursion and cross-call value flow,
* ``mem_addr`` — effective address for loads/stores (D-cache, memory
  disambiguation),
* ``taken`` — branch outcome (predictor training / misprediction).

:class:`TraceEntry` spells one such instruction out as an object.  The
interpreter never builds one: it exists so hand-written micro-traces (the
pipeline-model tests) can be packed with
:func:`~repro.trace.pack.pack_entries`.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

from repro.ir.instructions import Instruction
from repro.ir.program import Program

#: Base address of the laid-out text segment.
TEXT_BASE = 0x400000

Token = tuple[int, str]


class Subsystem(enum.Enum):
    """Which half of the partitioned microarchitecture executes an
    instruction.  Loads and stores always occupy the INT subsystem's
    load/store port regardless of where their data register lives."""

    INT = "int"
    FP = "fp"


def subsystem_of(instr: Instruction) -> Subsystem:
    """Static subsystem assignment of an instruction."""
    return Subsystem.FP if instr.info.fp_subsystem else Subsystem.INT


@dataclass(eq=False, slots=True)
class TraceEntry:
    """One dynamic instruction, as an object: the input format of
    :func:`~repro.trace.pack.pack_entries` for hand-built traces."""

    instr: Instruction
    pc: int
    subsystem: Subsystem
    reads: tuple[Token, ...]
    writes: tuple[Token, ...]
    mem_addr: int | None = None
    taken: bool | None = None

    @property
    def is_branch(self) -> bool:
        return self.taken is not None

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        extra = ""
        if self.mem_addr is not None:
            extra = f" @{self.mem_addr:#x}"
        if self.taken is not None:
            extra = f" taken={self.taken}"
        return f"<T pc={self.pc:#x} {self.instr.op}{extra}>"


class ProgramLayout:
    """Assigns a text address to every static instruction.

    Functions are laid out sequentially in declaration order, four bytes
    per instruction, starting at :data:`TEXT_BASE`.
    """

    def __init__(self, program: Program):
        self.pc_of: dict[tuple[str, int], int] = {}
        #: the instruction at each pc (a packed trace keeps only pcs)
        self.instr_at: dict[int, Instruction] = {}
        self.text_size = 0
        addr = TEXT_BASE
        for func in program.functions.values():
            for instr in func.instructions():
                self.pc_of[(func.name, instr.uid)] = addr
                self.instr_at[addr] = instr
                addr += 4
        self.text_size = addr - TEXT_BASE

    def pc(self, func_name: str, uid: int) -> int:
        return self.pc_of[(func_name, uid)]
