"""Interpreter tests: opcode semantics, calls, tracing, profiling."""

import pytest

from repro.errors import ExecutionError, FuelExhausted
from repro.ir.opcodes import OpKind
from repro.ir.parser import parse_program
from repro.runtime.interp import run_program
from repro.runtime.trace import ProgramLayout
from repro.trace.pack import KIND_CODE


def _run_body(body, globals_text="", **kwargs):
    program = parse_program(
        f"""{globals_text}
func main(0) {{
entry:
{body}
}}
"""
    )
    return run_program(program, **kwargs)


def _instructions(program, pack):
    """The static instruction of every traced entry, found by pc."""
    instr_at = ProgramLayout(program).instr_at
    return [instr_at[pack.pcs[sid]] for sid in pack.instr_ids]


def _entries_of_kind(pack, kind):
    code = KIND_CODE[kind]
    return [i for i, sid in enumerate(pack.instr_ids) if pack.kinds[sid] == code]


def _eval(lines):
    """Run instruction lines ending with `ret vN` and return the value."""
    body = "\n".join(f"  {line}" for line in lines)
    return _run_body(body).value


class TestAluSemantics:
    @pytest.mark.parametrize(
        "lines,expected",
        [
            (["v0 = li 5", "v1 = addiu v0, -3", "ret v1"], 2),
            (["v0 = li 5", "v1 = li 3", "v2 = subu v0, v1", "ret v2"], 2),
            (["v0 = li 2147483647", "v1 = addiu v0, 1", "ret v1"], -2147483648),
            (["v0 = li 6", "v1 = li 3", "v2 = and v0, v1", "ret v2"], 2),
            (["v0 = li 6", "v1 = li 3", "v2 = nor v0, v1", "ret v2"], ~7),
            (["v0 = li -8", "v1 = sra v0, 1", "ret v1"], -4),
            (["v0 = li -8", "v1 = srl v0, 1", "ret v1"], 0x7FFFFFFC),
            (["v0 = li 3", "v1 = sll v0, 4", "ret v1"], 48),
            (["v0 = li -1", "v1 = sltiu v0, 1", "ret v1"], 0),  # unsigned
            (["v0 = li -1", "v1 = slti v0, 1", "ret v1"], 1),
            (["v0 = lui 2", "ret v0"], 0x20000),
            (["v0 = li -7", "v1 = li 2", "v2 = div v0, v1", "ret v2"], -3),
            (["v0 = li -7", "v1 = li 2", "v2 = rem v0, v1", "ret v2"], -1),
            (["v0 = li 5", "v1 = li 3", "v2 = sllv v0, v1", "ret v2"], 40),
            (["v0 = li -16", "v1 = li 2", "v2 = srav v0, v1", "ret v2"], -4),
        ],
    )
    def test_int_ops(self, lines, expected):
        assert _eval(lines) == expected

    def test_fpa_twins_match_int_semantics(self):
        int_result = _eval(["v0 = li 21", "v1 = addiu v0, 21", "ret v1"])
        program = parse_program(
            """
func main(0) {
entry:
  vf0 = li.a 21
  vf1 = addiu.a vf0, 21
  v2 = cp_from_comp vf1
  ret v2
}
"""
        )
        assert run_program(program).value == int_result == 42

    def test_float_ops(self):
        program = parse_program(
            """
func main(0) {
entry:
  vf0 = li.s 2.5
  vf1 = li.s 4.0
  vf2 = mul.s vf0, vf1
  vf3 = cvt.w.s vf2
  v4 = cp_from_comp vf3
  ret v4
}
"""
        )
        assert run_program(program).value == 10

    def test_division_by_zero_raises(self):
        with pytest.raises(ExecutionError, match="zero"):
            _eval(["v0 = li 1", "v1 = li 0", "v2 = div v0, v1", "ret v2"])

    def test_undefined_register_read_raises(self):
        with pytest.raises(ExecutionError, match="undefined"):
            _eval(["v1 = addiu v99, 1", "ret v1"])


class TestControlAndCalls:
    def test_branch_taken_and_not_taken(self):
        program = parse_program(
            """
func main(0) {
entry:
  v0 = li 5
  bltz v0, neg
pos:
  v1 = li 1
  ret v1
neg:
  v1 = li 2
  ret v1
}
"""
        )
        assert run_program(program).value == 1

    def test_fuel_exhaustion(self):
        program = parse_program(
            """
func main(0) {
entry:
  j entry
}
"""
        )
        with pytest.raises(FuelExhausted):
            run_program(program, fuel=100)

    def test_nested_calls_with_independent_frames(self):
        program = parse_program(
            """
func inner(1) returns {
entry:
  v0 = param 0
  v1 = addiu v0, 100
  ret v1
}

func outer(1) returns {
entry:
  v0 = param 0
  v1 = call inner(v0)
  v2 = addu v0, v1
  ret v2
}

func main(0) {
entry:
  v0 = li 5
  v1 = call outer(v0)
  ret v1
}
"""
        )
        # outer(5) = 5 + inner(5) = 5 + 105
        assert run_program(program).value == 110

    def test_recursion_depth(self):
        program = parse_program(
            """
func count(1) returns {
entry:
  v0 = param 0
  v1 = slti v0, 1
  v2 = li 0
  beq v1, v2, rec
base:
  ret v2
rec:
  v3 = addiu v0, -1
  v4 = call count(v3)
  v5 = addiu v4, 1
  ret v5
}

func main(0) {
entry:
  v0 = li 50
  v1 = call count(v0)
  ret v1
}
"""
        )
        assert run_program(program).value == 50

    def test_fell_off_function_end(self):
        program = parse_program(
            """
func main(0) {
entry:
  v0 = li 1
}
"""
        )
        with pytest.raises(ExecutionError, match="fell off"):
            run_program(program)


class TestProfileAndTrace:
    def test_profile_counts_block_entries(self, vector_sum_program):
        result = run_program(vector_sum_program)
        assert result.profile.block_count("main", "loop") == 16
        assert result.profile.block_count("main", "entry") == 1
        assert result.profile.block_count("main", "exit") == 1

    def test_trace_length_matches_dynamic_count(self, vector_sum_program):
        result = run_program(vector_sum_program, collect_trace=True)
        assert result.trace.n == result.instructions
        assert result.trace.value == result.value

    def test_trace_has_memory_addresses(self, vector_sum_program):
        pack = run_program(vector_sum_program, collect_trace=True).trace
        mem = set(_entries_of_kind(pack, OpKind.LOAD))
        mem |= set(_entries_of_kind(pack, OpKind.STORE))
        assert len(mem) == 48
        assert all(
            (pack.mem_addr[i] >= 0) == (i in mem) for i in range(pack.n)
        )
        # the first iteration loads a[0] and b[0], then stores c[0]
        first = sorted(mem)[:3]
        assert [pack.mem_addr[i] for i in first] == [
            vector_sum_program.global_address(name) for name in "abc"
        ]

    def test_trace_branch_outcomes(self, vector_sum_program):
        pack = run_program(vector_sum_program, collect_trace=True).trace
        branches = _entries_of_kind(pack, OpKind.BRANCH)
        assert len(branches) == 16
        assert [pack.taken[i] for i in branches] == [1] * 15 + [0]  # falls out once
        assert all(pack.taken[i] == -1 for i in range(pack.n) if i not in branches)

    def test_dependence_tokens_unique_per_frame(self):
        program = parse_program(
            """
func id(1) returns {
entry:
  v0 = param 0
  ret v0
}

func main(0) {
entry:
  v0 = li 1
  v1 = call id(v0)
  v2 = call id(v1)
  ret v2
}
"""
        )
        pack = run_program(program, collect_trace=True).trace

        def tokens(offsets, column, i):
            return [pack.token(t) for t in column[offsets[i]:offsets[i + 1]]]

        def reads(i):
            return tokens(pack.read_offsets, pack.read_tokens, i)

        def writes(i):
            return tokens(pack.write_offsets, pack.write_tokens, i)

        calls = _entries_of_kind(pack, OpKind.CALL)
        params = _entries_of_kind(pack, OpKind.PARAM)
        rets = _entries_of_kind(pack, OpKind.RET)
        # each call writes its callee's @args, which the callee's param reads
        assert [writes(i) for i in calls] == [[(1, "@args")], [(2, "@args")]]
        assert [reads(i) for i in params] == [[(1, "@args")], [(2, "@args")]]
        frames = {writes(i)[0][0] for i in params}
        assert frames == {1, 2}  # two activations, two distinct frames
        # a callee's ret writes the caller's result register; main's writes nothing
        assert [writes(i) for i in rets] == [[(0, "v1")], [(0, "v2")], []]
        assert reads(calls[1]) == [(0, "v1")]

    def test_subsystem_classification(self):
        program = parse_program(
            """
global g 8

func main(0) {
entry:
  v0 = li @g
  vf1 = li.a 7
  s.s vf1, v0, 0
  vf2 = l.s v0, 0
  ret
}
"""
        )
        pack = run_program(program, collect_trace=True).trace
        side = {
            instr.op.value: pack.fp_side[sid]
            for instr, sid in zip(_instructions(program, pack), pack.instr_ids)
        }
        assert side["li"] == 0
        assert side["li.a"] == 1
        # memory ops stay in INT even with FP data registers
        assert side["s.s"] == 0
        assert side["l.s"] == 0

    def test_dynamic_mix(self, vector_sum_program):
        result = run_program(vector_sum_program, collect_trace=True)
        mix = result.trace.dynamic_mix()
        assert mix["loads"] == 32
        assert mix["stores"] == 16
        assert mix["branches"] == 16
        assert mix["fp_executed"] == 0
        assert mix["total"] == result.instructions

    @pytest.mark.parametrize("traced", [False, True], ids=["untraced", "traced"])
    def test_profile_counts_in_first_entry_order(self, traced):
        """Calls, returns mid-block, taken/untaken branches and an empty
        block; the counts keep the order blocks were first entered in."""
        program = parse_program(
            """
func f(1) returns {
entry:
  v0 = param 0
  blez v0, zero
pos:
  v1 = addiu v0, -1
  ret v1
zero:
  ret v0
}

func main(0) {
entry:
  v0 = li 2
  j skip
skip:
loop:
  v0 = call f(v0)
  bgtz v0, loop
done:
  v1 = call f(v0)
  ret v1
}
"""
        )
        profile = run_program(program, collect_trace=traced).profile
        assert list(profile.counts.items()) == [
            (("main", "entry"), 1.0),
            (("main", "skip"), 1.0),
            (("main", "loop"), 2.0),
            (("f", "entry"), 3.0),
            (("f", "pos"), 2.0),
            (("main", "done"), 1.0),
            (("f", "zero"), 1.0),
        ]

    def test_global_initialization(self):
        result = _run_body(
            "  v0 = li @t\n  v1 = lw v0, 4\n  ret v1",
            globals_text="global t 12 = 7 8 9",
        )
        assert result.value == 8


_CALLS_VALUELESS = """
func f(0) returns {
entry:
  ret
}

func main(0) {
entry:
  v1 = call f()
  v2 = addiu v1, 1
  ret v2
}
"""


class TestValuelessReturn:
    """A ``returns`` function whose ``ret`` carries no value leaves the
    caller's result register undefined rather than holding ``None``."""

    @pytest.mark.parametrize("traced", [False, True], ids=["untraced", "traced"])
    def test_result_register_is_undefined(self, traced):
        program = parse_program(_CALLS_VALUELESS)
        with pytest.raises(
            ExecutionError, match="^main: read of undefined register v1$"
        ):
            run_program(program, collect_trace=traced)

    @pytest.mark.parametrize("traced", [False, True], ids=["untraced", "traced"])
    def test_unread_result_is_harmless(self, traced):
        program = parse_program(
            _CALLS_VALUELESS.replace("v2 = addiu v1, 1", "v2 = li 3")
        )
        assert run_program(program, collect_trace=traced).value == 3


def _body(lines, globals_text=""):
    body = "\n".join(f"  {line}" for line in lines)
    return parse_program(f"{globals_text}\nfunc main(0) {{\nentry:\n{body}\n}}\n")


#: One program per interpreter error path: (id, program, exception, message)
_ERRORS = [
    ("fuel", parse_program("func main(0) {\nentry:\n  j entry\n}\n"),
     FuelExhausted, "exceeded fuel of 100 dynamic instructions"),
    ("undefined", _body(["v1 = addiu v99, 1", "ret v1"]),
     ExecutionError, "main: read of undefined register v99"),
    ("undefined-store-base", _body(["v0 = li 1", "sw v0, v5, 0", "ret"]),
     ExecutionError, "main: read of undefined register v5"),
    ("div-zero", _body(["v0 = li 1", "v1 = li 0", "v2 = div v0, v1", "ret v2"]),
     ExecutionError, "integer division by zero"),
    ("rem-zero", _body(["v0 = li 1", "v1 = li 0", "v2 = rem v0, v1", "ret v2"]),
     ExecutionError, "integer remainder by zero"),
    ("fell-off", _body(["v0 = li 1"]),
     ExecutionError, "fell off the end of function main"),
    ("unaligned-load", _body(["v0 = li 4098", "v1 = lw v0, 0", "ret v1"]),
     ExecutionError, "unaligned word load at 0x1002"),
    ("unaligned-store", _body(["v0 = li 4097", "sw v0, v0, 0", "ret"]),
     ExecutionError, "unaligned word store at 0x1001"),
    ("byte-load-float", _body(
        ["v0 = li @g", "vf1 = li.s 2", "s.s vf1, v0, 0", "v1 = lb v0, 1", "ret v1"],
        "global g 4"),
     ExecutionError, "byte load from float data at 0x1001"),
    ("byte-store-float", _body(
        ["v0 = li @g", "vf1 = li.s 2", "s.s vf1, v0, 0", "sb v0, v0, 2", "ret"],
        "global g 4"),
     ExecutionError, "byte store into float data at 0x1002"),
]


@pytest.mark.parametrize(
    ("program", "error", "message"),
    [case[1:] for case in _ERRORS],
    ids=[case[0] for case in _ERRORS],
)
def test_error_paths_agree_traced_and_untraced(program, error, message):
    raised = []
    for traced in (False, True):
        with pytest.raises(error) as info:
            run_program(program, fuel=100, collect_trace=traced)
        raised.append((type(info.value), str(info.value)))
    assert raised == [(error, message)] * 2


@pytest.mark.parametrize("traced", [False, True], ids=["untraced", "traced"])
def test_cvt_saturation_traced_and_untraced(traced):
    program = _body(
        ["vf0 = li.s 1", "vf1 = li.s 0", "vf2 = div.s vf0, vf1",
         "v3 = cvt.w.s vf2", "ret v3"]
    )
    assert run_program(program, collect_trace=traced).value == 0x7FFFFFFF
