"""Tests for the IR verifier."""

import pytest

from repro.errors import IRError
from repro.ir.parser import parse_function, parse_program
from repro.ir.verify import verify_function, verify_program


def _verify_text(text):
    verify_function(parse_function(text))


class TestStructure:
    def test_valid_function_passes(self, figure3):
        verify_function(figure3)

    def test_control_mid_block_rejected(self):
        with pytest.raises(IRError, match="mid-block"):
            _verify_text(
                """
func f(0) {
entry:
  j out
  v0 = li 1
out:
  ret
}
"""
            )

    def test_branch_to_unknown_label(self):
        with pytest.raises(IRError, match="unknown label"):
            _verify_text(
                """
func f(0) {
entry:
  v0 = li 1
  blez v0, nowhere
last:
  ret
}
"""
            )

    def test_param_count_mismatch(self):
        with pytest.raises(IRError, match="param"):
            _verify_text(
                """
func f(2) {
entry:
  v0 = param 0
  ret
}
"""
            )

    def test_param_outside_entry_block(self):
        with pytest.raises(IRError, match="outside the entry block"):
            _verify_text(
                """
func f(1) {
entry:
  v0 = param 0
  j next
next:
  v1 = param 0
  ret
}
"""
            )

    def test_writes_zero_rejected(self):
        with pytest.raises(IRError, match="zero"):
            _verify_text(
                """
func f(0) {
entry:
  $zero = li 1
  ret
}
"""
            )


class TestClassConstraints:
    def test_fpa_op_with_int_operand_rejected(self):
        with pytest.raises(IRError, match="FP-class"):
            _verify_text(
                """
func f(0) {
entry:
  v0 = li 1
  vf1 = addiu.a v0, 1
  ret
}
"""
            )

    def test_int_op_with_fp_operand_rejected(self):
        with pytest.raises(IRError, match="INT-class"):
            _verify_text(
                """
func f(0) {
entry:
  vf0 = li.a 1
  v1 = addiu vf0, 1
  ret
}
"""
            )

    def test_load_base_must_be_int(self):
        with pytest.raises(IRError, match="base must be INT"):
            _verify_text(
                """
func f(0) {
entry:
  vf0 = li.a 4096
  v1 = lw vf0, 0
  ret
}
"""
            )

    def test_ss_value_must_be_fp(self):
        with pytest.raises(IRError, match="FP-class"):
            _verify_text(
                """
func f(0) {
entry:
  v0 = li 4096
  v1 = li 3
  s.s v1, v0, 0
  ret
}
"""
            )

    def test_call_arguments_must_be_int(self):
        program = parse_program(
            """
func g(1) {
entry:
  v0 = param 0
  ret
}

func main(0) {
entry:
  vf0 = li.a 3
  call g(vf0)
  ret
}
"""
        )
        with pytest.raises(IRError, match="INT-class"):
            verify_program(program)

    def test_copy_direction_checked(self):
        with pytest.raises(IRError, match="cp_to_comp"):
            _verify_text(
                """
func f(0) {
entry:
  vf0 = li.a 1
  vf1 = cp_to_comp vf0
  ret
}
"""
            )


class TestProgramLevel:
    def test_missing_entry(self):
        program = parse_program(
            """
func helper(0) {
entry:
  ret
}
"""
        )
        with pytest.raises(IRError, match="entry"):
            verify_program(program)

    def test_call_to_unknown_function(self):
        program = parse_program(
            """
func main(0) {
entry:
  call ghost()
  ret
}
"""
        )
        with pytest.raises(IRError, match="unknown function"):
            verify_program(program)

    def test_call_arity_mismatch(self):
        program = parse_program(
            """
func g(2) {
entry:
  v0 = param 0
  v1 = param 1
  ret
}

func main(0) {
entry:
  v0 = li 1
  call g(v0)
  ret
}
"""
        )
        with pytest.raises(IRError, match="expected 2"):
            verify_program(program)

    def test_call_def_requires_returning_callee(self):
        program = parse_program(
            """
func g(0) {
entry:
  ret
}

func main(0) {
entry:
  v0 = call g()
  ret
}
"""
        )
        with pytest.raises(IRError, match="does not return"):
            verify_program(program)

    def test_unknown_global_reference(self):
        program = parse_program(
            """
func main(0) {
entry:
  v0 = li @ghost
  ret
}
"""
        )
        with pytest.raises(IRError, match="unknown global"):
            verify_program(program)

    def test_entry_with_params_rejected(self):
        program = parse_program(
            """
func main(1) {
entry:
  v0 = param 0
  ret
}
"""
        )
        with pytest.raises(IRError, match="no parameters"):
            verify_program(program)


def _main(body, header="func main(0) {"):
    return f"{header}\nentry:\n{body}\n}}\n"


def _instr(program, index, func="main", label="entry"):
    return program.functions[func].block(label).instructions[index]


def _drop_second_use(program):
    _instr(program, 1).uses.pop()


def _clear_imm(program):
    _instr(program, 1).imm = None


def _clear_target(program):
    _instr(program, 0).target = None


def _second_ret_value(program):
    ret = _instr(program, 1)
    ret.uses.append(ret.uses[0])


def _reuse_uid(program):
    _instr(program, 1).uid = 0


def _detach(program):
    _instr(program, 0).uid = -1


def _drop_blocks(program):
    program.functions["main"].blocks.clear()


def _duplicate_label(program):
    program.functions["main"].blocks[1].label = "entry"


_G1 = "func g(1) {\nentry:\n  v0 = param 0\n  ret\n}\n"
_G2 = "func g(2) {\nentry:\n  v0 = param 0\n  v1 = param 1\n  ret\n}\n"
_G0 = "func g(0) {\nentry:\n  ret\n}\n"

#: (id, program text, mutation applied after parsing, exact IRError text)
PINNED_MESSAGES = [
    ("use-count", _main("  v0 = li 1\n  v1 = addu v0, v0\n  ret"), _drop_second_use,
     "main: <v1 = addu v0 #1>: expected 2 uses"),
    ("def-count", _main("  v0 = li 1\n  addu v0, v0\n  ret"), None,
     "main: <addu v0, v0 #1>: expected 1 defs"),
    ("missing-immediate", _main("  v0 = li 1\n  v1 = addiu v0, 1\n  ret"), _clear_imm,
     "main: <v1 = addiu v0, 0 #1>: missing immediate"),
    ("missing-target", _main("  j out\nout:\n  ret"), _clear_target,
     "main: <j None #0>: missing target"),
    ("zero-def", _main("  $zero = li 1\n  ret"), None,
     "main: <$zero = li 1 #0>: writes $zero"),
    ("def-class", _main("  vf0 = li 1\n  ret"), None,
     "main: <vf0 = li 1 #0>: def vf0 must be INT-class"),
    ("load-base", _main("  vf0 = li.a 4096\n  v1 = lw vf0, 0\n  ret"), None,
     "main: <v1 = lw vf0, 0 #1>: load base must be INT-class"),
    ("store-base", _main("  v0 = li 3\n  vf1 = li.a 4096\n  sw v0, vf1, 0\n  ret"), None,
     "main: <sw v0, vf1, 0 #2>: store base must be INT-class"),
    ("store-value", _main("  vf0 = li.a 3\n  v1 = li 4096\n  sw vf0, v1, 0\n  ret"), None,
     "main: <sw vf0, v1, 0 #2>: store value must be INT-class"),
    ("ret-class", _main("  vf0 = li.a 3\n  ret vf0", "func main(0) returns {"), None,
     "main: <ret vf0 #1>: return value must be INT-class"),
    ("alu-class", _main("  vf0 = li.a 1\n  v1 = addiu vf0, 1\n  ret"), None,
     "main: <v1 = addiu vf0, 1 #1>: use vf0 must be INT-class for addiu"),
    ("ret-arity", _main("  v0 = li 1\n  ret v0"), _second_ret_value,
     "main: <ret v0 #1>: ret takes at most one value"),
    ("unknown-label", _main("  v0 = li 1\n  blez v0, nowhere\nlast:\n  ret"), None,
     "main: <blez v0, nowhere #1>: branch to unknown label 'nowhere'"),
    ("mid-block", _main("  j out\n  v0 = li 1\nout:\n  ret"), None,
     "main: control instruction mid-block in entry"),
    ("duplicate-uid", _main("  v0 = li 1\n  v1 = li 2\n  ret"), _reuse_uid,
     "main: duplicate uid 0"),
    ("unattached", _main("  v0 = li 1\n  ret"), _detach,
     "main: unattached instruction in entry"),
    ("no-blocks", _main("  ret"), _drop_blocks,
     "main: function has no blocks"),
    ("duplicate-label", _main("  j out\nout:\n  ret"), _duplicate_label,
     "main: duplicate block labels"),
    ("call-arity", _G2 + _main("  v0 = li 1\n  call g(v0)\n  ret"), None,
     "main: call to g with 1 args, expected 2"),
    ("call-argument-class", _G1 + _main("  vf0 = li.a 3\n  call g(vf0)\n  ret"), None,
     "main: argument 0 of call to g must be INT-class"),
    ("call-unknown", _main("  call ghost()\n  ret"), None,
     "main: call to unknown function 'ghost'"),
    ("call-no-return", _G0 + _main("  v0 = call g()\n  ret"), None,
     "main: g does not return a value"),
    ("unknown-global", _main("  v0 = li @ghost\n  ret"), None,
     "main: reference to unknown global 'ghost'"),
    ("param-count", _main("  ret") + "func f(2) {\nentry:\n  v0 = param 0\n  ret\n}\n", None,
     "f: expected 2 param instructions, found 1"),
    ("param-index", _main("  ret") + "func f(1) {\nentry:\n  v0 = param 1\n  ret\n}\n", None,
     "f: param indices must be 0..0"),
    ("param-outside-entry",
     _main("  ret") + "func f(1) {\nentry:\n  v0 = param 0\n  j next\nnext:\n  v1 = param 0\n  ret\n}\n",
     None, "f: param instruction outside the entry block"),
    ("entry-missing", _G0.replace("g(", "helper("), None,
     "entry 'main' not defined"),
    ("entry-params", "func main(1) {\nentry:\n  v0 = param 0\n  ret\n}\n", None,
     "entry function must take no parameters"),
]


@pytest.mark.parametrize(
    ("text", "mutate", "message"),
    [case[1:] for case in PINNED_MESSAGES],
    ids=[case[0] for case in PINNED_MESSAGES],
)
def test_pinned_message(text, mutate, message):
    """Every verifier message, byte for byte."""
    program = parse_program(text)
    if mutate is not None:
        mutate(program)
    with pytest.raises(IRError) as exc:
        verify_program(program)
    assert str(exc.value) == message
