"""End-to-end: profile-driven partitioning **without running the program**.

``partition_program(..., static_profile=True)`` must produce partitions
that are lint-clean, certified, semantics-preserving, and that retire
legally on both simulated machines.
"""

from __future__ import annotations

import pytest

from repro.errors import ReproError
from repro.partition.program import partition_program
from repro.regalloc.linear_scan import allocate_program
from repro.runtime.interp import run_program
from repro.sim.config import eight_way, four_way
from repro.sim.pipeline import simulate_trace
from repro.workloads import compile_workload

SCALE = 3


def _static_partitioned(name: str):
    program = compile_workload(name, scale=SCALE)
    # lint=True raises on any error diagnostic: this asserts the
    # static-profile partitions stay clean under all eight rules
    result = partition_program(program, "advanced", static_profile=True, lint=True)
    allocate_program(program)
    return program, result


class TestStaticProfilePartition:
    def test_exclusive_with_measured_profile(self):
        program = compile_workload("compress", scale=SCALE)
        profile = run_program(program).profile
        with pytest.raises(ReproError, match="exclusive"):
            partition_program(
                program, "advanced", profile=profile, static_profile=True
            )

    def test_semantics_preserved(self):
        baseline = run_program(compile_workload("compress", scale=SCALE))
        program, _ = _static_partitioned("compress")
        run = run_program(program)
        assert run.value == baseline.value

    def test_offloads_something(self):
        _, result = _static_partitioned("compress")
        offloaded = sum(
            stats["offloaded_instructions"] for stats in result.stats.values()
        )
        assert offloaded > 0

    def test_deterministic(self):
        _, first = _static_partitioned("compress")
        _, second = _static_partitioned("compress")
        for name in first.partitions:
            fp_a = {n.uid for n in first.partitions[name].fp}
            fp_b = {n.uid for n in second.partitions[name].fp}
            assert fp_a == fp_b

    @pytest.mark.parametrize("config", [four_way, eight_way])
    def test_legal_retirement_on_both_machines(self, config):
        program, _ = _static_partitioned("compress")
        run = run_program(program, collect_trace=True)
        stats = simulate_trace(run.trace, config())
        assert stats.retired == run.trace.n
        assert stats.cycles > 0

    @pytest.mark.parametrize("name", ["li", "perl"])
    def test_more_workloads_stay_clean(self, name):
        program, _ = _static_partitioned(name)
        baseline = run_program(compile_workload(name, scale=SCALE))
        assert run_program(program).value == baseline.value
