"""Workload integration tests.

Every surrogate must compile, run, and produce a checksum that is
invariant across the whole transformation stack: unoptimized, optimized,
basic-partitioned, advanced-partitioned, register-allocated.
"""

import pytest

from repro.errors import WorkloadError
from repro.ir.verify import verify_program
from repro.minic.compile import compile_source
from repro.partition.advanced import advanced_partition
from repro.partition.basic import basic_partition
from repro.partition.rewrite import apply_partition
from repro.regalloc.linear_scan import allocate_program
from repro.runtime.interp import run_program
from repro.workloads import (
    FP_BENCHMARKS,
    INT_BENCHMARKS,
    WORKLOADS,
    compile_workload,
    get_workload,
    workload_source,
)

#: small scales: enough to exercise every code path, fast enough for CI
TEST_SCALES = {
    "compress": 120,
    "gcc": 1,
    "go": 1,
    "ijpeg": 2,
    "li": 2,
    "m88ksim": 1,
    "perl": 1,
    "ear": 1,
    "swim": 1,
}


class TestRegistry:
    def test_expected_benchmarks_present(self):
        assert set(INT_BENCHMARKS) == {
            "compress", "gcc", "go", "ijpeg", "li", "m88ksim", "perl",
        }
        assert set(FP_BENCHMARKS) == {"ear", "swim"}

    def test_unknown_workload(self):
        with pytest.raises(WorkloadError):
            get_workload("doom")

    def test_invalid_scale(self):
        with pytest.raises(WorkloadError):
            workload_source("compress", scale=0)

    def test_specs_have_descriptions(self):
        for spec in WORKLOADS.values():
            assert spec.description
            assert spec.paper_input
            assert spec.default_scale > 0


@pytest.mark.parametrize("name", sorted(WORKLOADS))
class TestEveryWorkload:
    def test_compiles_and_runs(self, name):
        program = compile_workload(name, TEST_SCALES[name])
        verify_program(program)
        result = run_program(program)
        assert result.value is not None
        assert result.instructions > 100

    def test_checksum_invariant_across_stack(self, name):
        scale = TEST_SCALES[name]
        source = workload_source(name, scale)

        reference = run_program(compile_source(source, optimize=False)).value

        optimized = compile_source(source)
        assert run_program(optimized).value == reference

        for scheme_fn in (basic_partition, advanced_partition):
            program = compile_source(source)
            for func in program.functions.values():
                apply_partition(func, scheme_fn(func))
            verify_program(program)
            assert run_program(program).value == reference, scheme_fn.__name__
            allocate_program(program)
            verify_program(program)
            assert run_program(program).value == reference

    def test_scale_changes_work(self, name):
        small = run_program(compile_workload(name, TEST_SCALES[name]))
        bigger = run_program(
            compile_workload(name, TEST_SCALES[name] + 1)
        )
        assert bigger.instructions > small.instructions


def _kind_count(pack, *kinds) -> int:
    """Dynamic instructions of the given opcode kinds in a packed trace."""
    from repro.trace.pack import KIND_CODE

    codes = {KIND_CODE[kind] for kind in kinds}
    return sum(1 for sid in pack.instr_ids if pack.kinds[sid] in codes)


class TestWorkloadCharacteristics:
    """The structural traits the surrogates were designed around."""

    def test_integer_workloads_execute_no_fp(self):
        for name in INT_BENCHMARKS:
            program = compile_workload(name, TEST_SCALES[name])
            result = run_program(program, collect_trace=True)
            assert result.trace.dynamic_mix()["fp_executed"] == 0, name

    def test_ldst_slice_near_half_for_integer_programs(self):
        """Palacharla & Smith: LdSt slices of integer programs account
        for close to 50% of dynamic instructions — the bound on FPa
        partition size (§4).  Loads+stores+address work should dominate."""
        for name in INT_BENCHMARKS:
            program = compile_workload(name, TEST_SCALES[name])
            result = run_program(program, collect_trace=True)
            mix = result.trace.dynamic_mix()
            memory_fraction = (mix["loads"] + mix["stores"]) / mix["total"]
            # at CI scales initialization code dilutes some benchmarks,
            # so the lower bound is looser than the paper's ~50% claim
            assert 0.05 < memory_fraction < 0.60, (name, memory_fraction)

    def test_li_is_call_intensive(self):
        from repro.ir.opcodes import OpKind

        program = compile_workload("li", TEST_SCALES["li"])
        result = run_program(program, collect_trace=True)
        assert _kind_count(result.trace, OpKind.CALL) / result.instructions > 0.05

    def test_ijpeg_has_small_multiply_fraction(self):
        """The paper reports ~3% mul/div for ijpeg."""
        from repro.ir.opcodes import OpKind

        program = compile_workload("ijpeg", TEST_SCALES["ijpeg"])
        result = run_program(program, collect_trace=True)
        muldiv = _kind_count(result.trace, OpKind.MUL, OpKind.DIV)
        assert 0.0 < muldiv / result.instructions < 0.08

    def test_fp_workloads_use_fp_subsystem(self):
        for name in FP_BENCHMARKS:
            program = compile_workload(name, TEST_SCALES[name])
            result = run_program(program, collect_trace=True)
            assert result.trace.dynamic_mix()["fp_executed"] > 0, name
