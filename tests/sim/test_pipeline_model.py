"""Pipeline-model tests on handcrafted traces with known timing."""

import pytest

from repro.ir.instructions import Instruction
from repro.ir.opcodes import Opcode
from repro.ir.registers import RegClass, virtual_reg
from repro.runtime.trace import Subsystem, TraceEntry
from repro.sim.config import four_way
from repro.sim.pipeline import simulate_trace
from repro.trace.pack import pack_entries

_PC = 0x400000


def _simulate(entries, config, **kwargs):
    """Pack a hand-built micro-trace and simulate it."""
    return simulate_trace(pack_entries(entries), config, **kwargs)


def _alu(dst, srcs=(), op=Opcode.ADDU, pc=None, fp=False):
    """One ALU trace entry writing token dst, reading tokens srcs."""
    if fp:
        op = Opcode.ADDU_A
    n_uses = 2 if op in (Opcode.ADDU, Opcode.ADDU_A, Opcode.MULT) else 1
    rclass = RegClass.FP if fp else RegClass.INT
    instr = Instruction(
        op,
        defs=[virtual_reg(0, rclass)],
        uses=[virtual_reg(1, rclass)] * min(n_uses, 2),
        imm=0 if op is Opcode.ADDIU else None,
    )
    return TraceEntry(
        instr=instr,
        pc=pc if pc is not None else _PC,
        subsystem=Subsystem.FP if fp else Subsystem.INT,
        reads=tuple((0, s) for s in srcs),
        writes=((0, dst),),
    )


def _load(dst, addr, srcs=(), pc=None):
    instr = Instruction(Opcode.LW, defs=[virtual_reg(0)], uses=[virtual_reg(1)], imm=0)
    return TraceEntry(
        instr=instr,
        pc=pc if pc is not None else _PC,
        subsystem=Subsystem.INT,
        reads=tuple((0, s) for s in srcs),
        writes=((0, dst),),
        mem_addr=addr,
    )


def _store(addr, srcs=(), pc=None):
    instr = Instruction(Opcode.SW, uses=[virtual_reg(0), virtual_reg(1)], imm=0)
    return TraceEntry(
        instr=instr,
        pc=pc if pc is not None else _PC,
        subsystem=Subsystem.INT,
        reads=tuple((0, s) for s in srcs),
        writes=(),
        mem_addr=addr,
    )


def _branch(taken, pc, srcs=(), fp=False):
    op = Opcode.BNE_A if fp else Opcode.BNE
    rclass = RegClass.FP if fp else RegClass.INT
    instr = Instruction(op, uses=[virtual_reg(0, rclass)] * 2, target="x")
    return TraceEntry(
        instr=instr,
        pc=pc,
        subsystem=Subsystem.FP if fp else Subsystem.INT,
        reads=tuple((0, s) for s in srcs),
        writes=(),
        taken=taken,
    )


def _sequential_pcs(entries, start=_PC):
    for i, entry in enumerate(entries):
        entry.pc = start + 4 * i
    return entries


class TestLatencyAndWidth:
    def test_serial_chain_runs_at_one_ipc(self):
        n = 200
        trace = _sequential_pcs(
            [_alu(f"r{i}", srcs=(f"r{i-1}",) if i else ()) for i in range(n)]
        )
        stats = _simulate(trace, four_way())
        assert stats.retired == n
        # ~1 instruction per cycle plus pipeline fill
        assert n <= stats.cycles <= n + 30

    def test_independent_work_limited_by_int_units(self):
        n = 200
        trace = _sequential_pcs([_alu(f"r{i}") for i in range(n)])
        stats = _simulate(trace, four_way())
        # 2 INT units: about n/2 cycles
        assert stats.cycles == pytest.approx(n / 2, abs=25)

    def test_partitioned_work_uses_both_subsystems(self):
        """The paper's whole point: with half the work in FPa, both
        subsystems run concurrently and the busy time halves (cold
        I-cache misses affect both runs equally)."""
        n = 200
        mixed = _sequential_pcs([_alu(f"r{i}", fp=bool(i % 2)) for i in range(n)])
        int_only = _sequential_pcs([_alu(f"r{i}") for i in range(n)])
        mixed_stats = _simulate(mixed, four_way())
        int_stats = _simulate(int_only, four_way())
        assert mixed_stats.fp_issued == n / 2
        assert mixed_stats.int_busy_cycles == pytest.approx(n / 4, abs=10)
        assert mixed_stats.int_busy_cycles < int_stats.int_busy_cycles / 1.8
        assert mixed_stats.cycles < int_stats.cycles

    def test_eight_way_faster_on_wide_parallelism(self):
        from repro.sim.config import eight_way

        n = 400
        trace_fn = lambda: _sequential_pcs([_alu(f"r{i}") for i in range(n)])
        four = _simulate(trace_fn(), four_way())
        eight = _simulate(trace_fn(), eight_way())
        assert eight.cycles < four.cycles

    def test_multiply_latency_on_critical_path(self):
        n = 50
        chain = [
            _alu(f"r{i}", srcs=(f"r{i-1}",) if i else (), op=Opcode.MULT)
            for i in range(n)
        ]
        stats = _simulate(_sequential_pcs(chain), four_way())
        assert stats.cycles >= 6 * n  # mul latency 6

    def test_int_idle_while_fp_busy_counted(self):
        n = 100
        trace = _sequential_pcs([_alu(f"r{i}", fp=True) for i in range(n)])
        stats = _simulate(trace, four_way())
        assert stats.fp_busy_cycles > 0
        assert stats.int_idle_fp_busy_cycles == stats.fp_busy_cycles


class TestMemorySystem:
    def test_single_ls_port_serializes_loads(self):
        n = 100
        trace = _sequential_pcs(
            [_load(f"r{i}", addr=0x1000 + 4 * (i % 8)) for i in range(n)]
        )
        stats = _simulate(trace, four_way())
        assert stats.cycles >= n  # one load per cycle max
        assert stats.loads == n

    def test_dcache_miss_penalty_visible(self):
        # serial dependent loads, each to a fresh line -> miss every time
        n = 50
        trace = _sequential_pcs(
            [_load(f"r{i}", addr=0x1000 + 64 * i, srcs=(f"r{i-1}",) if i else ())
             for i in range(n)]
        )
        miss_stats = _simulate(trace, four_way())
        trace2 = _sequential_pcs(
            [_load(f"r{i}", addr=0x1000, srcs=(f"r{i-1}",) if i else ())
             for i in range(n)]
        )
        hit_stats = _simulate(trace2, four_way())
        assert miss_stats.cycles > hit_stats.cycles + 5 * n / 2
        assert miss_stats.dcache_misses >= n - 1

    def test_load_waits_for_matching_store(self):
        trace = _sequential_pcs(
            [
                _alu("v"),
                _store(0x2000, srcs=("v",)),
                _load("w", 0x2000),
                _alu("x", srcs=("w",)),
            ]
        )
        stats = _simulate(trace, four_way())
        assert stats.retired == 4  # completes without deadlock

    def test_store_counted(self):
        trace = _sequential_pcs([_alu("v"), _store(0x2000, srcs=("v",))])
        stats = _simulate(trace, four_way())
        assert stats.stores == 1


class TestBranches:
    def _branchy(self, pattern, fp=False):
        """A loop-shaped trace: the same two static instructions (compare
        + branch) re-execute once per pattern element, so the predictor
        sees a single hot branch as in real loops."""
        entries = []
        for i, taken in enumerate(pattern):
            entries.append(_alu(f"c{i}", fp=fp, pc=_PC))
            entries.append(_branch(taken, pc=_PC + 4, srcs=(f"c{i}",), fp=fp))
        return entries

    def test_predictable_branches_cheap(self):
        stats = _simulate(self._branchy([True] * 200), four_way())
        assert stats.branch_accuracy > 0.9

    def test_mispredictions_cost_cycles(self):
        import random

        rng = random.Random(7)
        pattern = [rng.random() < 0.5 for _ in range(200)]
        noisy = _simulate(self._branchy(pattern), four_way())
        steady = _simulate(self._branchy([True] * 200), four_way())
        assert noisy.branch_mispredicts > steady.branch_mispredicts
        assert noisy.cycles > steady.cycles

    def test_perfect_predictor_ablation(self):
        import random

        rng = random.Random(7)
        pattern = [rng.random() < 0.5 for _ in range(200)]
        real = _simulate(self._branchy(pattern), four_way())
        oracle = _simulate(
            self._branchy(pattern), four_way(), perfect_branches=True
        )
        assert oracle.cycles < real.cycles
        assert oracle.branch_mispredicts == 0

    def test_fpa_branches_resolve_in_fp_subsystem(self):
        stats = _simulate(self._branchy([True] * 50, fp=True), four_way())
        assert stats.retired == 100
        assert stats.fp_issued == 100


class TestBookkeeping:
    def test_empty_trace(self):
        stats = _simulate([], four_way())
        assert stats.cycles == 0 and stats.retired == 0

    def test_all_instructions_retired_exactly_once(self):
        trace = _sequential_pcs([_alu(f"r{i}") for i in range(333)])
        stats = _simulate(trace, four_way())
        assert stats.retired == 333

    def test_ipc_derivation(self):
        trace = _sequential_pcs([_alu(f"r{i}") for i in range(100)])
        stats = _simulate(trace, four_way())
        assert stats.ipc == pytest.approx(stats.retired / stats.cycles)

    def test_as_dict_contains_all_keys(self):
        trace = _sequential_pcs([_alu("a")])
        stats = _simulate(trace, four_way())
        d = stats.as_dict()
        assert {"cycles", "ipc", "fp_fraction", "int_idle_while_fp_busy"} <= set(d)
