"""Tests for the experiment pipeline (small scales)."""

import pytest

from repro.errors import PartitionError, ReproError
from repro.experiments import runner
from repro.experiments.runner import (
    BenchmarkResult,
    prepare_program,
    run_benchmark,
    run_pair,
)

SCALE = {"compress": 150, "m88ksim": 1}


class TestPrepare:
    def test_conventional_has_no_partition(self):
        artifacts = prepare_program("compress", "conventional", scale=SCALE["compress"])
        assert artifacts.partition_summary == {}
        assert artifacts.static_instructions > 0

    def test_partitioned_has_summary(self):
        artifacts = prepare_program("compress", "advanced", scale=SCALE["compress"])
        assert artifacts.partition_summary["offloaded_instructions"] > 0

    def test_unknown_scheme(self):
        with pytest.raises(ReproError, match="scheme"):
            prepare_program("compress", "hyper", scale=10)

    def test_profile_optional(self):
        with_profile = prepare_program(
            "compress", "advanced", scale=SCALE["compress"], use_profile=True
        )
        without = prepare_program(
            "compress", "advanced", scale=SCALE["compress"], use_profile=False
        )
        assert with_profile.profile is not None
        assert without.profile is None

    def test_regalloc_toggle(self):
        raw = prepare_program("compress", "conventional", scale=100, regalloc=False)
        allocated = prepare_program("compress", "conventional", scale=100, regalloc=True)
        # spill code may add instructions but virtual regs must be gone
        for func in allocated.program.functions.values():
            for instr in func.instructions():
                assert all(not r.virtual for r in instr.defs + instr.uses)
        assert any(
            any(r.virtual for r in i.defs + i.uses)
            for f in raw.program.functions.values()
            for i in f.instructions()
        )


class TestProfiling:
    """Only the advanced scheme reads a profile, so only it is profiled."""

    @pytest.fixture
    def profile_runs(self, monkeypatch):
        calls = []
        real = runner.run_program

        def counting(*args, **kwargs):
            calls.append(kwargs)
            return real(*args, **kwargs)

        monkeypatch.setattr(runner, "run_program", counting)
        return calls

    def test_basic_is_not_profiled(self, profile_runs):
        artifacts = prepare_program("compress", "basic", scale=SCALE["compress"])
        assert profile_runs == []
        assert artifacts.profile is None
        assert artifacts.partition_summary["offloaded_instructions"] > 0

    def test_advanced_is_profiled_once(self, profile_runs):
        artifacts = prepare_program("compress", "advanced", scale=SCALE["compress"])
        assert profile_runs == [{}]
        assert artifacts.profile is not None

    def test_degraded_basic_is_not_reprofiled(self, profile_runs, monkeypatch):
        real = runner.partition_program

        def failing_advanced(program, scheme, **kwargs):
            if scheme == "advanced":
                raise PartitionError("injected")
            return real(program, scheme, **kwargs)

        monkeypatch.setattr(runner, "partition_program", failing_advanced)
        artifacts = prepare_program(
            "compress", "advanced", scale=SCALE["compress"], degrade=True
        )
        assert artifacts.degraded
        assert len(profile_runs) == 1  # the failed advanced attempt only
        assert artifacts.profile is None


class TestRunBenchmark:
    def test_result_fields(self):
        result = run_benchmark("m88ksim", "advanced", width=4, scale=SCALE["m88ksim"])
        assert isinstance(result, BenchmarkResult)
        assert result.cycles > 0
        assert result.dynamic_instructions > 0
        assert 0.0 < result.offload_fraction < 0.6
        assert result.machine == "4-way"
        assert result.mix["total"] == result.dynamic_instructions

    def test_conventional_offloads_nothing(self):
        result = run_benchmark("m88ksim", "conventional", width=4, scale=1)
        assert result.offload_fraction == 0.0
        assert result.stats.fp_issued == 0

    def test_run_pair_speedup(self):
        baseline, partitioned, speedup = run_pair(
            "m88ksim", "advanced", width=4, scale=SCALE["m88ksim"]
        )
        assert baseline.checksum == partitioned.checksum
        assert speedup == pytest.approx(baseline.cycles / partitioned.cycles)
        assert speedup > 1.0  # m88ksim is the paper's best case

    def test_checksum_mismatch_detected(self):
        a = run_benchmark("m88ksim", "conventional", width=4, scale=1)
        b = run_benchmark("compress", "conventional", width=4, scale=150)
        with pytest.raises(ReproError, match="checksum"):
            b.speedup_over(a)

    def test_eight_way_machine(self):
        result = run_benchmark("m88ksim", "conventional", width=8, scale=1)
        assert result.machine == "8-way"
