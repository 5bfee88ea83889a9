"""Property-based timing-simulator tests: random well-formed traces must
simulate without deadlock and obey basic throughput/latency bounds."""

from __future__ import annotations

import math

from hypothesis import given, settings, strategies as st

from repro.ir.instructions import Instruction
from repro.ir.opcodes import Opcode
from repro.ir.registers import RegClass, virtual_reg
from repro.runtime.trace import Subsystem, TraceEntry
from repro.sim.config import eight_way, four_way
from repro.sim.pipeline import simulate_trace
from repro.trace.pack import pack_entries

_PC = 0x400000


def _simulate(entries, config, **kwargs):
    """Pack a hand-built micro-trace and simulate it."""
    return simulate_trace(pack_entries(entries), config, **kwargs)


@st.composite
def random_trace(draw, max_len=120):
    """A dependence-correct trace: every read refers to an earlier write
    (or is omitted), memory addresses are aligned, branches carry
    outcomes."""
    n = draw(st.integers(1, max_len))
    entries = []
    written: list[str] = []
    for i in range(n):
        kind = draw(st.integers(0, 9))
        reads = ()
        if written and draw(st.booleans()):
            reads = (
                (0, written[draw(st.integers(0, len(written) - 1))]),
            )
        pc = _PC + 4 * (i % 24)  # loop-ish pc reuse
        name = f"r{i}"
        if kind <= 4:  # int ALU
            instr = Instruction(Opcode.ADDU, defs=[virtual_reg(0)],
                                uses=[virtual_reg(1)] * 2)
            entry = TraceEntry(instr, pc, Subsystem.INT, reads, ((0, name),))
        elif kind <= 6:  # fpa ALU
            instr = Instruction(
                Opcode.ADDU_A,
                defs=[virtual_reg(0, RegClass.FP)],
                uses=[virtual_reg(1, RegClass.FP)] * 2,
            )
            entry = TraceEntry(instr, pc, Subsystem.FP, reads, ((0, name),))
        elif kind == 7:  # load
            instr = Instruction(Opcode.LW, defs=[virtual_reg(0)],
                                uses=[virtual_reg(1)], imm=0)
            addr = 0x1000 + 4 * draw(st.integers(0, 63))
            entry = TraceEntry(instr, pc, Subsystem.INT, reads, ((0, name),),
                               mem_addr=addr)
        elif kind == 8:  # store
            instr = Instruction(Opcode.SW, uses=[virtual_reg(0), virtual_reg(1)], imm=0)
            addr = 0x1000 + 4 * draw(st.integers(0, 63))
            entry = TraceEntry(instr, pc, Subsystem.INT, reads, (),
                               mem_addr=addr)
        else:  # branch
            instr = Instruction(Opcode.BNE, uses=[virtual_reg(0)] * 2, target="x")
            entry = TraceEntry(instr, pc, Subsystem.INT, reads, (),
                               taken=draw(st.booleans()))
        entries.append(entry)
        if entry.writes:
            written.append(name)
    return entries


@settings(max_examples=40, deadline=None)
@given(random_trace())
def test_every_instruction_retires(trace):
    stats = _simulate(trace, four_way())
    assert stats.retired == len(trace)


@settings(max_examples=40, deadline=None)
@given(random_trace())
def test_cycle_bounds(trace):
    """Cycles are bounded below by fetch bandwidth and above by a
    fully-serialized worst case."""
    stats = _simulate(trace, four_way())
    lower = math.ceil(len(trace) / 4)
    assert stats.cycles >= lower
    # worst case: every instruction serialized with a miss + mispredict
    assert stats.cycles <= 40 * len(trace) + 100


@settings(max_examples=25, deadline=None)
@given(random_trace())
def test_eight_way_never_slower(trace):
    four = _simulate(list(trace), four_way())
    eight = _simulate(list(trace), eight_way())
    assert eight.cycles <= four.cycles + 2


@settings(max_examples=25, deadline=None)
@given(random_trace())
def test_issue_counts_partition_correctly(trace):
    stats = _simulate(trace, four_way())
    fp_expected = sum(1 for e in trace if e.subsystem is Subsystem.FP)
    assert stats.fp_issued == fp_expected
    assert stats.int_issued == len(trace) - fp_expected


@settings(max_examples=25, deadline=None)
@given(random_trace())
def test_simulation_is_deterministic(trace):
    a = _simulate(list(trace), four_way())
    b = _simulate(list(trace), four_way())
    assert a.cycles == b.cycles
    assert a.branch_mispredicts == b.branch_mispredicts
