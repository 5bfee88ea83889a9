"""Tests for the interprocedural FP-argument extension (§6.6)."""

import pytest

from repro.errors import ReproError
from repro.ir.parser import parse_program
from repro.ir.printer import print_program
from repro.ir.verify import verify_program
from repro.partition import partition_program
from repro.runtime.interp import run_program

# caller computes the argument in FPa; callee consumes it only in FPa
GOOD_CASE = """
global acc 8
global data 64

func mix(1) {
entry:
  v0 = param 0
  v8 = li @acc
body:
  v1 = lw v8, 0
  v2 = addu v1, v0
  v3 = sll v2, 3
  v4 = xor v3, v0
  v5 = addu v4, v2
  v6 = sra v5, 1
  sw v6, v8, 0
  ret
}

func main(0) {
entry:
  v9 = li @data
  v0 = li 0
loop:
  v1 = sll v0, 2
  v2 = addu v9, v1
  v3 = lw v2, 0
  v4 = addiu v3, 5
  v5 = sll v4, 1
  v6 = addu v5, v4
  call mix(v6)
  v0 = addiu v0, 1
  v10 = slti v0, 16
  v11 = li 0
  bne v10, v11, loop
exit:
  ret
}
"""


def _run_with(src, interprocedural):
    program = parse_program(src)
    profile = run_program(program).profile
    program = parse_program(src)
    result = partition_program(
        program, "advanced", profile=profile, interprocedural=interprocedural
    )
    verify_program(program)
    run = run_program(program, collect_trace=True)
    return program, result, run


class TestGoodCase:
    def test_decision_made(self):
        program, result, _run = _run_with(GOOD_CASE, True)
        assert result.decisions.fp_params == {"mix": {0}}
        assert program.functions["mix"].fp_params == {0}

    def test_copies_eliminated_dynamically(self):
        _, _, base_run = _run_with(GOOD_CASE, False)
        _, result, ext_run = _run_with(GOOD_CASE, True)
        base_copies = base_run.trace.dynamic_mix()["copies"]
        ext_copies = ext_run.trace.dynamic_mix()["copies"]
        assert result.copies_eliminated == 2  # one per side of the call
        assert ext_copies < base_copies
        assert ext_run.instructions < base_run.instructions

    def test_semantics_preserved(self):
        reference = run_program(parse_program(GOOD_CASE)).value
        _, _, ext_run = _run_with(GOOD_CASE, True)
        assert ext_run.value == reference

    def test_header_roundtrips(self):
        program, _, _ = _run_with(GOOD_CASE, True)
        text = print_program(program)
        assert "func mix(1) fp[0]" in text
        again = parse_program(text)
        assert again.functions["mix"].fp_params == {0}
        verify_program(again)

    def test_call_argument_is_fp_class(self):
        program, _, _ = _run_with(GOOD_CASE, True)
        from repro.ir.opcodes import OpKind
        from repro.ir.registers import RegClass

        calls = [
            i
            for i in program.functions["main"].instructions()
            if i.kind is OpKind.CALL
        ]
        assert calls[0].uses[0].rclass is RegClass.FP


class TestVetoes:
    def test_int_producer_vetoes(self):
        """A call site whose argument comes from INT blocks the decision."""
        src = GOOD_CASE.replace(
            "  v6 = addu v5, v4\n  call mix(v6)",
            "  v6 = addu v5, v4\n  v7 = mult v0, v0\n  call mix(v7)",
        )
        _, result, _ = _run_with(src, True)
        assert result.decisions.fp_params == {}

    def test_int_consumer_in_callee_vetoes(self):
        """A callee that also uses the parameter in INT (addressing)
        keeps the integer convention."""
        src = GOOD_CASE.replace(
            "  v1 = lw v8, 0\n  v2 = addu v1, v0",
            "  v98 = andi v0, 4\n  v99 = addu v8, v98\n  v1 = lw v99, 0\n  v2 = addu v1, v0",
        )
        _, result, run = _run_with(src, True)
        assert result.decisions.fp_params == {}
        assert run.value == run_program(parse_program(src)).value

    def test_uncalled_function_untouched(self):
        src = GOOD_CASE.replace("func mix(1)", "func mix(1)").replace(
            "call mix(v6)", "call mix(v6)"
        )
        # add an orphan function with an offloadable param
        src += """
func orphan(1) {
entry:
  v0 = param 0
  v8 = li @acc
body:
  v1 = lw v8, 0
  v2 = addu v1, v0
  v3 = xor v2, v0
  sw v3, v8, 0
  ret
}
"""
        program, result, _ = _run_with(src, True)
        assert "orphan" not in result.decisions.fp_params
        assert program.functions["orphan"].fp_params == set()


class TestOrchestrator:
    def test_disabled_is_identity_to_per_function(self):
        _, result, run = _run_with(GOOD_CASE, False)
        assert result.decisions is None
        assert result.copies_eliminated == 0

    def test_totals(self):
        _, result, _ = _run_with(GOOD_CASE, True)
        assert result.total("offloaded_instructions") > 5

    def test_basic_scheme_rejects_interprocedural(self):
        program = parse_program(GOOD_CASE)
        with pytest.raises(ReproError, match="advanced"):
            partition_program(program, "basic", interprocedural=True)

    def test_unknown_scheme(self):
        program = parse_program(GOOD_CASE)
        with pytest.raises(ReproError, match="unknown scheme"):
            partition_program(program, "turbo")

    def test_works_on_workloads(self):
        """The extension must hold up on the full li surrogate (the most
        call-intensive benchmark)."""
        from repro.workloads import compile_workload, workload_source
        from repro.minic.compile import compile_source

        source = workload_source("li", 2)
        reference = run_program(compile_source(source)).value

        program = compile_source(source)
        profile = run_program(program).profile
        result = partition_program(
            program, "advanced", profile=profile, interprocedural=True
        )
        verify_program(program)
        assert run_program(program).value == reference
