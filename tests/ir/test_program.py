"""Tests for the Program container and global layout."""

import pytest

from repro.ir.function import Function
from repro.ir.program import DATA_BASE, GlobalVar, Program


class TestGlobals:
    def test_layout_assigns_word_aligned_addresses(self):
        program = Program()
        program.add_global("a", 6)  # rounds to 8
        program.add_global("b", 4)
        program.layout()
        assert program.globals["a"].address == DATA_BASE
        assert program.globals["b"].address == DATA_BASE + 8
        assert program.globals["b"].address % 4 == 0

    def test_global_address_lazy_layout(self):
        program = Program()
        program.add_global("x", 4)
        assert program.global_address("x") == DATA_BASE

    def test_duplicate_global_rejected(self):
        program = Program()
        program.add_global("x", 4)
        with pytest.raises(ValueError):
            program.add_global("x", 4)

    def test_init_preserved(self):
        program = Program()
        var = program.add_global("t", 12, [1, 2, 3])
        assert var.init == [1, 2, 3]


class TestFunctions:
    def test_duplicate_function_rejected(self):
        program = Program()
        program.add_function(Function("f"))
        with pytest.raises(ValueError):
            program.add_function(Function("f"))

    def test_lookup_missing(self):
        with pytest.raises(KeyError):
            Program().function("ghost")

    def test_instruction_count_sums(self, vector_sum_program):
        total = sum(
            f.instruction_count() for f in vector_sum_program.functions.values()
        )
        assert vector_sum_program.instruction_count() == total


class TestLayoutInterop:
    def test_program_layout_pcs_unique_and_word_spaced(self, vector_sum_program):
        from repro.runtime.trace import ProgramLayout, TEXT_BASE

        layout = ProgramLayout(vector_sum_program)
        pcs = sorted(layout.pc_of.values())
        assert pcs[0] == TEXT_BASE
        assert len(set(pcs)) == len(pcs)
        assert all(b - a == 4 for a, b in zip(pcs, pcs[1:]))
        assert layout.text_size == 4 * len(pcs)


class TestClone:
    @pytest.fixture
    def program(self):
        from repro.minic.compile import compile_source

        return compile_source(
            "int t[3] = {1, 2, 3};\n"
            "int f(int a) { return a * 2 + t[a]; }\n"
            "int main() { int i; int s = 0;\n"
            "  for (i = 0; i < 3; i = i + 1) { s = s + f(i); }\n"
            "  return s; }\n",
            optimize=True,
        )

    def test_printed_ir_identical(self, program):
        from repro.ir.printer import print_program

        assert print_program(program.clone()) == print_program(program)

    def test_uids_and_counters_kept(self, program):
        clone = program.clone()
        assert clone.entry == program.entry
        for name, func in program.functions.items():
            copy = clone.functions[name]
            assert copy is not func
            assert [i.uid for i in copy.instructions()] == [
                i.uid for i in func.instructions()
            ]
            assert copy._next_uid == func._next_uid
            assert copy._next_vreg == func._next_vreg
            assert copy.new_vreg() == func.new_vreg()
            assert copy.frame_size == func.frame_size
            assert copy.fp_params == func.fp_params
            assert copy.fp_params is not func.fp_params

    def test_mutating_the_clone_leaves_the_original(self, program):
        from repro.ir.printer import print_program

        before = print_program(program)
        init = list(program.globals["t"].init)
        clone = program.clone()
        main = clone.functions["main"]
        first = main.blocks[0].instructions[0]
        first.uses.append(first.uses[0] if first.uses else first.defs[0])
        first.defs.clear()
        first.imm = 99
        main.blocks[0].instructions.pop()
        main.blocks.pop()
        main.fp_params.add(0)
        clone.functions["f"].blocks[0].label = "renamed"
        clone.globals["t"].init[0] = 42
        clone.globals["t"].address = 7
        del clone.functions["f"]
        assert print_program(program) == before
        assert program.globals["t"].init == init
        assert program.globals["t"].address != 7
        assert "f" in program.functions
        assert not program.functions["main"].fp_params
