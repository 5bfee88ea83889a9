"""The functional interpreter.

Executes an IR :class:`~repro.ir.program.Program` to completion with
MIPS-like semantics: 32-bit wrapping integer arithmetic, truncating
division, sparse byte/word memory, and the explicit-operand call model
(``call``/``param``/``ret``).

A run collects a basic-block execution profile (the cost model's input)
and, on request, the dynamic trace the timing simulator replays — as a
:class:`~repro.trace.pack.PackedTrace` written column by column while
the program runs, with no per-instruction objects in between.

Each function is predecoded once into a flat list of tuples, one per
static instruction: a small integer kind, the semantics function,
register slots, the resolved immediate and jump target, profile keys,
and the instruction's dependence-token slots.  An activation's registers
live in a list indexed by slot, with a sentinel for "undefined".
"""

from __future__ import annotations

from array import array
from collections import deque
from dataclasses import dataclass

from repro.errors import ExecutionError, FuelExhausted
from repro.ir.opcodes import Opcode, OpKind
from repro.ir.program import Program
from repro.partition.cost import ExecutionProfile
from repro.progress import report_progress
from repro.runtime.state import MachineState, s32
from repro.runtime.trace import ProgramLayout
from repro.trace.pack import KIND_CODE, PackedTrace

# ---------------------------------------------------------------------------
# opcode semantics
# ---------------------------------------------------------------------------


def _div(a: int, b: int) -> int:
    if b == 0:
        raise ExecutionError("integer division by zero")
    q = abs(a) // abs(b)
    return s32(-q if (a < 0) != (b < 0) else q)


def _rem(a: int, b: int) -> int:
    if b == 0:
        raise ExecutionError("integer remainder by zero")
    return s32(a - _div(a, b) * b)


def _u32(a: int) -> int:
    return a & 0xFFFFFFFF


def _cvt_w_s(a: float) -> int:
    # MIPS cvt.w.s: non-finite inputs don't trap, they produce the IEEE
    # invalid-operation default (saturated max for +/-inf, 0 for NaN);
    # finite values truncate and wrap like the rest of the integer ALU
    if a != a:  # NaN
        return 0
    if a == float("inf"):
        return 0x7FFFFFFF
    if a == float("-inf"):
        return -0x80000000
    return s32(int(a))


_ALU = {
    Opcode.ADDU: lambda a, b: s32(a + b),
    Opcode.SUBU: lambda a, b: s32(a - b),
    Opcode.AND: lambda a, b: a & b,
    Opcode.OR: lambda a, b: a | b,
    Opcode.XOR: lambda a, b: s32(a ^ b),
    Opcode.NOR: lambda a, b: s32(~(a | b)),
    Opcode.SLT: lambda a, b: int(a < b),
    Opcode.SLTU: lambda a, b: int(_u32(a) < _u32(b)),
    Opcode.SLLV: lambda a, b: s32(a << (b & 31)),
    Opcode.SRLV: lambda a, b: s32(_u32(a) >> (b & 31)),
    Opcode.SRAV: lambda a, b: s32(a >> (b & 31)),
    Opcode.ADDIU: lambda a, b: s32(a + b),
    Opcode.ANDI: lambda a, b: a & b,
    Opcode.ORI: lambda a, b: a | b,
    Opcode.XORI: lambda a, b: s32(a ^ b),
    Opcode.SLTI: lambda a, b: int(a < b),
    Opcode.SLTIU: lambda a, b: int(_u32(a) < _u32(b)),
    Opcode.SLL: lambda a, b: s32(a << (b & 31)),
    Opcode.SRL: lambda a, b: s32(_u32(a) >> (b & 31)),
    Opcode.SRA: lambda a, b: s32(a >> (b & 31)),
    Opcode.LUI: lambda a, b: s32(b << 16),
    Opcode.LI: lambda a, b: b,
    Opcode.MOVE: lambda a, b: a,
    Opcode.MULT: lambda a, b: s32(a * b),
    Opcode.DIV: _div,
    Opcode.REM: _rem,
    # floating point
    Opcode.ADD_S: lambda a, b: a + b,
    Opcode.SUB_S: lambda a, b: a - b,
    Opcode.MUL_S: lambda a, b: a * b,
    Opcode.DIV_S: lambda a, b: a / b if b != 0.0 else float("inf") if a > 0 else float("-inf") if a < 0 else float("nan"),
    Opcode.NEG_S: lambda a, b: -a,
    Opcode.MOV_S: lambda a, b: a,
    Opcode.LI_S: lambda a, b: float(b),
    Opcode.CVT_S_W: lambda a, b: float(a),
    Opcode.CVT_W_S: lambda a, b: _cvt_w_s(a),
    # copies
    Opcode.CP_TO_COMP: lambda a, b: a,
    Opcode.CP_FROM_COMP: lambda a, b: a,
}
# FPa twins share the integer semantics
_ALU.update(
    {
        Opcode.ADDU_A: _ALU[Opcode.ADDU],
        Opcode.SUBU_A: _ALU[Opcode.SUBU],
        Opcode.AND_A: _ALU[Opcode.AND],
        Opcode.OR_A: _ALU[Opcode.OR],
        Opcode.XOR_A: _ALU[Opcode.XOR],
        Opcode.SLT_A: _ALU[Opcode.SLT],
        Opcode.SLTU_A: _ALU[Opcode.SLTU],
        Opcode.SLLV_A: _ALU[Opcode.SLLV],
        Opcode.SRAV_A: _ALU[Opcode.SRAV],
        Opcode.ADDIU_A: _ALU[Opcode.ADDIU],
        Opcode.ANDI_A: _ALU[Opcode.ANDI],
        Opcode.SLTI_A: _ALU[Opcode.SLTI],
        Opcode.SLTIU_A: _ALU[Opcode.SLTIU],
        Opcode.SLL_A: _ALU[Opcode.SLL],
        Opcode.SRL_A: _ALU[Opcode.SRL],
        Opcode.SRA_A: _ALU[Opcode.SRA],
        Opcode.LI_A: _ALU[Opcode.LI],
        Opcode.MOVE_A: _ALU[Opcode.MOVE],
    }
)

_BRANCH = {
    Opcode.BEQ: lambda a, b: a == b,
    Opcode.BNE: lambda a, b: a != b,
    Opcode.BLEZ: lambda a, b: a <= 0,
    Opcode.BGTZ: lambda a, b: a > 0,
    Opcode.BLTZ: lambda a, b: a < 0,
    Opcode.BGEZ: lambda a, b: a >= 0,
    Opcode.BEQ_S: lambda a, b: a == b,
    Opcode.BNE_S: lambda a, b: a != b,
    Opcode.BLT_S: lambda a, b: a < b,
    Opcode.BLE_S: lambda a, b: a <= b,
}
_BRANCH.update(
    {
        Opcode.BEQ_A: _BRANCH[Opcode.BEQ],
        Opcode.BNE_A: _BRANCH[Opcode.BNE],
        Opcode.BLEZ_A: _BRANCH[Opcode.BLEZ],
        Opcode.BLTZ_A: _BRANCH[Opcode.BLTZ],
    }
)

# ---------------------------------------------------------------------------
# predecoded function code
# ---------------------------------------------------------------------------

# Predecoded kinds.  The dispatch chain tests them in this order, roughly
# by dynamic frequency; the first few inline the semantics of the most
# common opcodes.  _EMPTY and _FELL are not instructions: they are
# neither counted against the fuel nor traced.
_LI = 0  # a constant: li, lui, li.s (value precomputed)
_ADD = 1  # addu: two registers
_ALU1 = 2  # one register source + immediate
_ADDI = 3  # addiu: register + immediate
_LW = 4  # lw, l.s
_SLL = 5  # sll: register << immediate
_BR1 = 6  # branch on one register
_BR2 = 7  # branch on two registers
_JUMP = 8
_SW = 9  # sw, s.s
_ALU2 = 10  # two register sources
_PARAM = 11
_CALL = 12
_RET = 13
_MOVE = 14  # register copies
_ALU0 = 15  # immediate only, not folded at decode time
_LB = 16
_LBU = 17
_SB = 18
_NOP = 19
_UNHANDLED = 20
_EMPTY = 21  # an empty block (a profile point only)
_FELL = 22  # past the last instruction of a function

_ALU_KINDS = (OpKind.ALU, OpKind.MUL, OpKind.DIV, OpKind.COPY)
_ADDS = (Opcode.ADDU, Opcode.ADDU_A, Opcode.ADDIU, Opcode.ADDIU_A)
_SHIFTS = (Opcode.SLL, Opcode.SLL_A)
_CONSTANTS = (Opcode.LI, Opcode.LI_A, Opcode.LUI, Opcode.LI_S)
_MOVES = (
    Opcode.MOVE, Opcode.MOVE_A, Opcode.MOV_S, Opcode.CP_TO_COMP, Opcode.CP_FROM_COMP,
)

#: Register slots every activation has: ``$zero`` reads 0, ``$sp`` reads
#: the activation's stack pointer, and writes to either land in a slot
#: nothing reads.
_ZERO, _SP, _DISCARD = 0, 1, 2

#: The pseudo-register naming an activation's incoming arguments in the
#: trace (written by ``call``, read by ``param``); token slot 0.
_ARGS = "@args"


#: Register value of a slot that has not been written.
_U = object()


class _Code:
    """One function, predecoded.

    ``instrs[i]`` is the tuple ``(kind, fn, d, a, b, imm, target,
    target_key, fall_key, g, r1, r2, w1)``:

    * ``fn`` — the semantics function (ALU ops, branches; a ``call``'s
      callee name);
    * ``d``/``a``/``b`` — destination and source register slots (a
      ``call`` keeps its argument slots in ``a`` and their token slots
      in ``b``);
    * ``imm`` — the resolved immediate (global symbols become addresses,
      load/store offsets default to 0, ``li``-like constants and shift
      amounts are folded);
    * ``target``/``target_key`` — jump index and its block's profile key
      (a ``call`` keeps its result's token slot in ``target``);
    * ``fall_key`` — profile key of the block starting at ``i + 1``, if
      one does;
    * ``g`` — program-wide static instruction index (the trace row);
    * ``r1``/``r2``/``w1`` — the token slots the trace records as read
      and written in the activation's own frame, -1 for none (slot 0 is
      ``@args``).
    """

    __slots__ = (
        "name", "instrs", "blank", "reg_names", "no_tokens", "tok_names",
        "frame_size", "entry_key",
    )


def _undefined(code: _Code, slot: int) -> ExecutionError:
    return ExecutionError(
        f"{code.name}: read of undefined register {code.reg_names[slot]}"
    )


def _tick(executed: int, fuel: int) -> int:
    """Fuel and progress bookkeeping; returns the next count to stop at."""
    if executed > fuel:
        raise FuelExhausted(f"exceeded fuel of {fuel} dynamic instructions")
    if executed & 65535 == 0:
        report_progress(executed=executed)
    return min(fuel + 1, (executed | 65535) + 1)


@dataclass(eq=False, slots=True)
class RunResult:
    """Outcome of one program run."""

    value: int | None
    instructions: int
    profile: ExecutionProfile
    #: the dynamic trace in ``repro-trace/1`` columns (``collect_trace``)
    trace: PackedTrace | None
    state: MachineState


class Interpreter:
    """Executes a program; see :func:`run_program` for the usual entry."""

    def __init__(self, program: Program):
        program.layout()
        self.program = program
        self.layout = ProgramLayout(program)
        self._code: dict[str, _Code] = {}
        # profile keys: (function, block label) by integer id
        self._keys: list[tuple[str, str]] = []
        self._key_id: dict[tuple[str, str], int] = {}
        #: static-row fields per static instruction g: (instruction, pc,
        #: fp side, kind code, int defs, fp defs)
        self._rows: list[tuple] = []

    def _key(self, func_name: str, label: str) -> int:
        key = (func_name, label)
        kid = self._key_id.get(key)
        if kid is None:
            kid = self._key_id[key] = len(self._keys)
            self._keys.append(key)
        return kid

    def _decode(self, name: str) -> _Code:
        """Predecode ``name`` (once per interpreter)."""
        program = self.program
        func = program.function(name)
        pc_of = self.layout.pc_of

        code = _Code()
        code.name = name
        code.frame_size = func.frame_size
        code.entry_key = self._key(name, func.entry.label)
        reg_names = ["$zero", "$sp", None]
        reg_slot = {"$zero": _ZERO, "$sp": _SP}
        tok_names = [_ARGS]
        tok_slot = {_ARGS: 0}

        def rslot(reg) -> int:
            slot = reg_slot.get(reg.name)
            if slot is None:
                slot = reg_slot[reg.name] = len(reg_names)
                reg_names.append(reg.name)
            return slot

        def wslot(reg) -> int:
            return _DISCARD if reg.name in ("$zero", "$sp") else rslot(reg)

        def tokens(regs) -> tuple[int, ...]:
            out = []
            for reg in regs:
                slot = tok_slot.get(reg.name)
                if slot is None:
                    slot = tok_slot[reg.name] = len(tok_names)
                    tok_names.append(reg.name)
                out.append(slot)
            return tuple(out)

        # flat layout; an empty block still needs a profile point
        flat = []
        start_of: dict[str, int] = {}
        block_key: dict[int, int] = {}
        for blk in func.blocks:
            start_of[blk.label] = len(flat)
            block_key[len(flat)] = self._key(name, blk.label)
            flat.extend(blk.instructions or [None])

        instrs = []
        for index, instr in enumerate(flat):
            fall_key = block_key.get(index + 1)
            if instr is None:
                instrs.append((_EMPTY, None, 0, 0, 0, None, 0, None, fall_key, -1, -1, -1, -1))
                continue
            op = instr.op
            kind = instr.kind
            uses = instr.uses
            imm = instr.imm
            if isinstance(imm, str):
                imm = program.global_address(imm)
            reads = tokens(r for r in uses if r.name != "$zero" and r.name != "$sp")
            writes = tokens(instr.defs)
            fn = d = a = b = 0
            target = target_key = None
            if kind in _ALU_KINDS:
                fn = _ALU[op]
                d = wslot(instr.defs[0])
                if len(uses) == 2:
                    k, a, b = _ALU2, rslot(uses[0]), rslot(uses[1])
                    if op in _ADDS:
                        k = _ADD
                elif len(uses) == 1:
                    k, a = _ALU1, rslot(uses[0])
                    if op in _MOVES:
                        k = _MOVE
                    elif isinstance(imm, int) and op in _ADDS:
                        k = _ADDI
                    elif isinstance(imm, int) and op in _SHIFTS:
                        k, imm = _SLL, imm & 31
                else:
                    k = _ALU0
                    if op in _CONSTANTS:
                        try:
                            k, imm = _LI, fn(0, imm)
                        except (TypeError, OverflowError):
                            pass  # a malformed immediate raises when executed
            elif kind is OpKind.LOAD:
                k = _LW if op is Opcode.LW or op is Opcode.LS else _LB if op is Opcode.LB else _LBU
                d, a, imm = wslot(instr.defs[0]), rslot(uses[0]), imm or 0
            elif kind is OpKind.STORE:
                k = _SB if op is Opcode.SB else _SW
                a, b, imm = rslot(uses[0]), rslot(uses[1]), imm or 0
            elif kind is OpKind.BRANCH:
                fn = _BRANCH[op]
                k, a = _BR1, rslot(uses[0])
                if len(uses) == 2:
                    k, b = _BR2, rslot(uses[1])
                target, target_key = start_of[instr.target], self._key(name, instr.target)
            elif kind is OpKind.JUMP:
                k = _JUMP
                target, target_key = start_of[instr.target], self._key(name, instr.target)
            elif kind is OpKind.PARAM:
                k, d = _PARAM, wslot(instr.defs[0])
                reads = (0,)
            elif kind is OpKind.CALL:
                k, fn = _CALL, instr.target
                a = tuple(rslot(r) for r in uses)
                # the result register is written by the callee's ret
                d = wslot(instr.defs[0]) if instr.defs else -1
                target = writes[0] if writes else None
                b, reads = reads, ()  # read in the call's own branch
                writes = ()  # the callee frame's @args instead
            elif kind is OpKind.RET:
                k = _RET
                a = rslot(uses[0]) if uses else -1
            elif kind is OpKind.NOP:
                k = _NOP
            else:  # pragma: no cover - defensive
                k = _UNHANDLED
            g = len(self._rows)
            ints = sum(1 for r in instr.defs if r.rclass.value != "fp")
            self._rows.append((
                instr,
                pc_of[(name, instr.uid)],
                1 if instr.info.fp_subsystem else 0,
                KIND_CODE[kind],
                ints,
                len(instr.defs) - ints,
            ))
            # verified IR reads at most two tokens per instruction (a
            # call's are recorded separately) and writes at most one; a
            # ret writes none itself (its caller's call names the result)
            if len(reads) > 2 or len(writes) > (k != _RET):
                raise ExecutionError(
                    f"{name}: {op.value} has more operands than the IR allows"
                )
            r1, r2 = (*reads, -1, -1)[:2]
            w1 = writes[0] if writes else -1
            instrs.append((k, fn, d, a, b, imm, target, target_key, fall_key, g, r1, r2, w1))
        instrs.append((_FELL, None, 0, 0, 0, None, 0, None, None, -1, -1, -1, -1))

        code.instrs = instrs
        code.reg_names = reg_names
        code.blank = [0, 0] + [_U] * (len(reg_names) - 2)
        code.tok_names = tok_names
        code.no_tokens = [-1] * len(tok_names)
        self._code[name] = code
        return code

    def run(
        self,
        entry: str | None = None,
        fuel: int = 50_000_000,
        collect_trace: bool = False,
        profile: ExecutionProfile | None = None,
    ) -> RunResult:
        """Run to completion (the entry function's ``ret``).

        Args:
            entry: Function to start in (defaults to the program entry).
            fuel: Dynamic-instruction budget; exceeded -> FuelExhausted.
            collect_trace: Whether to capture the dynamic trace as a
                :class:`~repro.trace.pack.PackedTrace`.
            profile: Profile to accumulate into (fresh one if None).

        Returns:
            A :class:`RunResult`.
        """
        state = MachineState(self.program)
        if profile is None:
            profile = ExecutionProfile()
        memory = state.memory
        words = memory._words
        wget = words.get
        codes = self._code

        tr = collect_trace
        pack = PackedTrace()
        # Trace columns, filled as the program runs (lists append faster
        # than arrays; they become the pack's arrays at the end, the
        # offsets every 65536 instructions since each holds a fresh int).
        # Static rows and tokens are interned on first appearance, as
        # pack_entries numbers them; the offset columns get each entry's
        # start (the totals are appended at the end); addresses and branch
        # outcomes are recorded with their 1-based entry number and spread
        # out at the end.
        instr_ids: list[int] = []
        read_tokens: list[int] = []
        write_tokens: list[int] = []
        read_offsets: list[int] = []
        write_offsets: list[int] = []
        ids_append = instr_ids.append
        r_append, w_append = read_tokens.append, write_tokens.append
        roff_append, woff_append = read_offsets.append, write_offsets.append
        mem_at, mem_vals = array("q"), array("q")
        taken_at, taken_vals = array("q"), array("b")
        mem_at_append, mem_append = mem_at.append, mem_vals.append
        taken_at_append, taken_append = taken_at.append, taken_vals.append
        rows = self._rows
        sids = [-1] * len(rows)  # trace row per static instruction
        row_of: dict[tuple[int, int, int], int] = {}
        name_id: dict[str, int] = {}

        def new_row(g: int) -> int:
            instr, pc, fp, kind_code, int_defs, fp_defs = rows[g]
            key = (id(instr), pc, fp)
            sid = row_of.get(key)
            if sid is None:
                sid = row_of[key] = len(pack.pcs)
                pack.pcs.append(pc)
                pack.kinds.append(kind_code)
                pack.fp_side.append(fp)
                pack.int_defs.append(int_defs)
                pack.fp_defs.append(fp_defs)
            sids[g] = sid
            return sid

        def new_token(frame: int, name: str) -> int:
            nid = name_id.get(name)
            if nid is None:
                nid = name_id[name] = len(pack.names)
                pack.names.append(name)
            pack.token_frames.append(frame)
            pack.token_names.append(nid)
            return len(pack.token_frames) - 1

        def flush_offsets() -> None:
            pack.read_offsets.fromlist(read_offsets)
            pack.write_offsets.fromlist(write_offsets)
            read_offsets.clear()
            write_offsets.clear()

        def decode(name: str) -> _Code:
            code = self._decode(name)
            sids.extend([-1] * (len(rows) - len(sids)))
            return code

        counts: dict[int, int] = {}
        cget = counts.get

        entry_name = entry or self.program.entry
        cobj = codes.get(entry_name) or decode(entry_name)
        code = cobj.instrs
        cur_sp = state.sp
        sp_restore = 0
        regs = cobj.blank[:]
        regs[_SP] = cur_sp
        args: list = []
        frame = 0
        next_frame = 1
        tids = cobj.no_tokens[:] if tr else None  # token id per token slot
        stack: list[tuple] = []
        counts[cobj.entry_key] = 1
        i = 0
        executed = 0
        check = min(fuel + 1, 65536)
        result_value = None
        U = _U

        while True:
            kind, fn, d, a, b, imm, target, tkey, fkey, g, r1, r2, w1 = code[i]
            if kind >= _EMPTY:
                if kind == _FELL:
                    raise ExecutionError(f"fell off the end of function {cobj.name}")
                i += 1
                if fkey is not None:
                    counts[fkey] = cget(fkey, 0) + 1
                continue
            executed += 1
            if executed >= check:
                check = _tick(executed, fuel)
                if tr:
                    flush_offsets()
            if tr:
                sid = sids[g]
                ids_append(sid if sid >= 0 else new_row(g))
                roff_append(len(read_tokens))
                woff_append(len(write_tokens))
                # a read follows the write that defined the register, so
                # its token is already interned (or the read raises below)
                if r1 >= 0:
                    r_append(tids[r1])
                    if r2 >= 0:
                        r_append(tids[r2])
                if w1 >= 0:
                    x = tids[w1]
                    if x < 0:
                        x = tids[w1] = new_token(frame, cobj.tok_names[w1])
                    w_append(x)

            if kind == _LI:
                regs[d] = imm
            elif kind == _ADD:
                x = regs[a]
                if x is U:
                    raise _undefined(cobj, a)
                y = regs[b]
                if y is U:
                    raise _undefined(cobj, b)
                # s32(x + y)
                regs[d] = ((x + y + 0x80000000) & 0xFFFFFFFF) - 0x80000000
            elif kind == _ALU1:
                x = regs[a]
                if x is U:
                    raise _undefined(cobj, a)
                regs[d] = fn(x, imm)
            elif kind == _ADDI:
                x = regs[a]
                if x is U:
                    raise _undefined(cobj, a)
                regs[d] = ((x + imm + 0x80000000) & 0xFFFFFFFF) - 0x80000000
            elif kind == _LW:
                x = regs[a]
                if x is U:
                    raise _undefined(cobj, a)
                addr = x + imm
                if addr & 3:
                    raise ExecutionError(f"unaligned word load at {addr:#x}")
                regs[d] = wget(addr >> 2, 0)
                if tr:
                    mem_at_append(executed)
                    mem_append(addr)
            elif kind == _SLL:
                x = regs[a]
                if x is U:
                    raise _undefined(cobj, a)
                regs[d] = ((x << imm) + 0x80000000 & 0xFFFFFFFF) - 0x80000000
            elif kind == _BR1 or kind == _BR2:
                x = regs[a]
                if x is U:
                    raise _undefined(cobj, a)
                if kind == _BR2:
                    y = regs[b]
                    if y is U:
                        raise _undefined(cobj, b)
                else:
                    y = 0
                if fn(x, y):
                    if tr:
                        taken_at_append(executed)
                        taken_append(1)
                    i = target
                    counts[tkey] = cget(tkey, 0) + 1
                    continue
                if tr:
                    taken_at_append(executed)
                    taken_append(0)
            elif kind == _JUMP:
                i = target
                counts[tkey] = cget(tkey, 0) + 1
                continue
            elif kind == _SW:
                v = regs[a]
                if v is U:
                    raise _undefined(cobj, a)
                x = regs[b]
                if x is U:
                    raise _undefined(cobj, b)
                addr = x + imm
                if addr & 3:
                    raise ExecutionError(f"unaligned word store at {addr:#x}")
                # Memory.store_word: ints wrap to signed 32 bits
                words[addr >> 2] = (
                    ((v + 0x80000000) & 0xFFFFFFFF) - 0x80000000
                    if isinstance(v, int) else v
                )
                if tr:
                    mem_at_append(executed)
                    mem_append(addr)
            elif kind == _ALU2:
                x = regs[a]
                if x is U:
                    raise _undefined(cobj, a)
                y = regs[b]
                if y is U:
                    raise _undefined(cobj, b)
                regs[d] = fn(x, y)
            elif kind == _PARAM:
                regs[d] = args[imm]
            elif kind == _CALL:
                vals = []
                for s in a:
                    v = regs[s]
                    if v is U:
                        raise _undefined(cobj, s)
                    vals.append(v)
                callee = codes.get(fn) or decode(fn)
                if tr:
                    for t in b:
                        r_append(tids[t])
                stack.append((cobj, code, regs, args, tids, frame, i, d, target, fkey, sp_restore))
                cobj = callee
                code = callee.instrs
                sp_restore = cur_sp
                cur_sp -= callee.frame_size
                regs = callee.blank[:]
                regs[_SP] = cur_sp
                args = vals
                frame = next_frame
                next_frame += 1
                if tr:
                    tids = callee.no_tokens[:]
                    x = tids[0] = new_token(frame, _ARGS)
                    w_append(x)
                counts[callee.entry_key] = cget(callee.entry_key, 0) + 1
                i = 0
                continue
            elif kind == _RET:
                if a >= 0:
                    value = regs[a]
                    if value is U:
                        raise _undefined(cobj, a)
                else:
                    value = None
                cur_sp = sp_restore
                if not stack:
                    result_value = value
                    break
                cobj, code, regs, args, tids, frame, i, d, dtok, fkey, sp_restore = stack.pop()
                if d >= 0:
                    # a valueless ret leaves the result register undefined
                    regs[d] = U if value is None else value
                    if tr:
                        x = tids[dtok]
                        if x < 0:
                            x = tids[dtok] = new_token(frame, cobj.tok_names[dtok])
                        w_append(x)
                i += 1
                if fkey is not None:
                    counts[fkey] = cget(fkey, 0) + 1
                continue
            elif kind == _MOVE:
                x = regs[a]
                if x is U:
                    raise _undefined(cobj, a)
                regs[d] = x
            elif kind == _ALU0:
                regs[d] = fn(0, imm)
            elif kind == _LB or kind == _LBU:
                x = regs[a]
                if x is U:
                    raise _undefined(cobj, a)
                addr = x + imm
                regs[d] = memory.load_byte(addr, signed=kind == _LB)
                if tr:
                    mem_at_append(executed)
                    mem_append(addr)
            elif kind == _SB:
                v = regs[a]
                if v is U:
                    raise _undefined(cobj, a)
                x = regs[b]
                if x is U:
                    raise _undefined(cobj, b)
                addr = x + imm
                memory.store_byte(addr, v)
                if tr:
                    mem_at_append(executed)
                    mem_append(addr)
            elif kind == _NOP:
                pass
            else:  # pragma: no cover - defensive
                raise ExecutionError(f"unhandled opcode {rows[g][0].op}")

            i += 1
            if fkey is not None:
                counts[fkey] = cget(fkey, 0) + 1

        state.sp = cur_sp
        # block entries were counted in first-entry order; summing them here
        # gives the same counts and key order as recording each entry
        keys = self._keys
        for kid, n in counts.items():
            func_name, label = keys[kid]
            profile.record(func_name, label, float(n))
        trace = None
        if tr:
            read_offsets.append(len(read_tokens))
            write_offsets.append(len(write_tokens))
            flush_offsets()
            pack.instr_ids = array("q", instr_ids)
            pack.read_tokens = array("q", read_tokens)
            pack.write_tokens = array("q", write_tokens)
            # entry numbers are 1-based: fill one extra slot, then drop it
            mem = array("q", [-1]) * (executed + 1)
            deque(map(mem.__setitem__, mem_at, mem_vals), maxlen=0)
            pack.mem_addr = mem[1:]
            taken = array("b", [-1]) * (executed + 1)
            deque(map(taken.__setitem__, taken_at, taken_vals), maxlen=0)
            pack.taken = taken[1:]
            pack.value = result_value
            pack._finalize()
            trace = pack
        return RunResult(
            value=result_value,
            instructions=executed,
            profile=profile,
            trace=trace,
            state=state,
        )


def run_program(
    program: Program,
    entry: str | None = None,
    fuel: int = 50_000_000,
    collect_trace: bool = False,
    profile: ExecutionProfile | None = None,
) -> RunResult:
    """Convenience wrapper: build an :class:`Interpreter` and run."""
    return Interpreter(program).run(
        entry=entry, fuel=fuel, collect_trace=collect_trace, profile=profile
    )
