"""The cycle lower bounds of :mod:`repro.sim.bounds` hold on every run.

The bounds are computed from the trace and the machine alone, so they
check the simulator from outside: the pinned cells on every variant
machine, random MiniC programs under all three schemes, and random
micro-traces must all simulate in at least as many cycles as either
bound allows.  Hand-built traces pin what each bound computes.
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest
from hypothesis import given, settings

from repro.gen.build import BuildConfig, build_program
from repro.gen.fuzz import DifferentialOracle
from repro.ir.opcodes import Opcode
from repro.minic.compile import compile_source
from repro.partition.program import partition_program
from repro.regalloc.linear_scan import allocate_program
from repro.runtime.interp import run_program
from repro.sim.bounds import FIRST_ISSUE_CYCLE, dataflow_bound, resource_bound
from repro.sim.config import eight_way, four_way
from repro.sim.pipeline import TimingSimulator, simulate_trace
from repro.trace.pack import pack_entries

from tests.sim.test_pipeline_model import _alu, _load, _sequential_pcs, _store
from tests.sim.test_sim_properties import random_trace
from tests.trace.capture_cells import pinned_cells, variant_machine

PINNED = json.loads(
    (Path(__file__).parents[1] / "trace" / "pinned_variants.json").read_text()
)
SCHEMES = ("conventional", "basic", "advanced")
#: Small random programs (the fuzz benchmark's build shape).
SMALL_BUILD = BuildConfig(max_stmt_depth=2, max_stmts=3, max_helpers=1, max_locals=3)


def _assert_bounded(cycles: int, trace, config, where: str) -> None:
    low = resource_bound(trace, config)
    flow = dataflow_bound(trace, config)
    assert cycles >= low, f"{where}: {cycles} cycles < resource bound {low}"
    assert cycles >= flow, f"{where}: {cycles} cycles < dataflow bound {flow}"


@pytest.fixture(scope="module")
def pinned_packs():
    return {
        cell: run_program(program, collect_trace=True).trace
        for cell, program in pinned_cells().items()
    }


def test_pinned_cells_respect_both_bounds_on_every_variant(pinned_packs):
    """The pinned counters came from the engine the current one replaced,
    so this checks both engines against the same independent bounds."""
    for cell, pack in pinned_packs.items():
        flow = {}  # the variants share latencies: one dataflow pass each
        for name, counters in PINNED[cell].items():
            config, _ = variant_machine(name)
            where = f"{cell} on {name}"
            cycles = counters["cycles"]
            low = resource_bound(pack, config)
            assert cycles >= low, f"{where}: {cycles} cycles < resource bound {low}"
            latencies = (
                config.mul_latency, config.div_latency, config.dcache.hit_cycles
            )
            if latencies not in flow:
                flow[latencies] = dataflow_bound(pack, config)
            assert cycles >= flow[latencies], f"{where}: below the dataflow bound"


@pytest.mark.parametrize("seed", range(6))
def test_random_minic_programs_respect_both_bounds(seed):
    source = build_program(seed, SMALL_BUILD)
    for scheme in SCHEMES:
        program = compile_source(source, optimize=True)
        if scheme != "conventional":
            partition_program(program, scheme, profile=run_program(program).profile)
        allocate_program(program)
        pack = run_program(program, collect_trace=True).trace
        for config in (four_way(), eight_way(), four_way(int_units=1, ls_ports=2)):
            stats = TimingSimulator(config).run(pack)
            _assert_bounded(stats.cycles, pack, config, f"seed {seed}/{scheme}")


@settings(max_examples=60, deadline=None)
@given(random_trace())
def test_random_micro_traces_respect_both_bounds(entries):
    pack = pack_entries(entries)
    for config in (four_way(), eight_way(fp_units=1)):
        stats = simulate_trace(pack, config)
        _assert_bounded(stats.cycles, pack, config, "micro-trace")


class TestWhatTheBoundsCompute:
    def test_empty_trace(self):
        pack = pack_entries([])
        assert resource_bound(pack, four_way()) == 0
        assert dataflow_bound(pack, four_way()) == 0

    def test_resource_bound_takes_the_scarcest_resource(self):
        # 12 INT ALUs, 4 FP ALUs, 6 loads + 2 stores on one port
        entries = (
            [_alu(f"i{k}") for k in range(12)]
            + [_alu(f"f{k}", fp=True) for k in range(4)]
            + [_load(f"l{k}", 0x1000 + 4 * k) for k in range(6)]
            + [_store(0x2000 + 4 * k) for k in range(2)]
        )
        pack = pack_entries(_sequential_pcs(entries))
        config = four_way()  # retire 4, 2 INT units, 2 FP units, 1 port
        # INT side: 12 + 8 memory = 20 -> 10 cycles; ports: 8; retire: 6
        assert resource_bound(pack, config) == 10
        assert resource_bound(pack, four_way(int_units=4)) == 8

    def test_dataflow_bound_follows_the_longest_chain(self):
        config = four_way()
        chain = [
            _alu("a"),
            _alu("b", srcs=["a"], op=Opcode.MULT),
            _alu("c", srcs=["b"]),
        ]
        pack = pack_entries(_sequential_pcs(chain))
        # a: issue 3, done 4; b (mul): issue 4, done 4+6; c: done 11
        expected = FIRST_ISSUE_CYCLE + 1 + config.mul_latency + 1
        assert dataflow_bound(pack, config) == expected
        assert simulate_trace(pack, config).cycles >= expected

    def test_loads_count_at_hit_time(self):
        config = four_way()
        entries = [_load("x", 0x1000), _alu("y", srcs=["x"])]
        pack = pack_entries(_sequential_pcs(entries))
        expected = FIRST_ISSUE_CYCLE + config.dcache.hit_cycles + 1
        assert dataflow_bound(pack, config) == expected


class TestOracleInvariant:
    def test_clean_program_passes(self):
        case = DifferentialOracle().check_source(build_program(1, SMALL_BUILD))
        assert not [v for v in case.violations if v.kind == "cycle-bound"]

    def test_simulator_under_reporting_is_caught(self, monkeypatch):
        real_run = TimingSimulator.run

        def too_fast(self, trace, max_cycles=None):
            stats = real_run(self, trace, max_cycles)
            stats.cycles = 1
            return stats

        monkeypatch.setattr(TimingSimulator, "run", too_fast)
        case = DifferentialOracle().check_source(build_program(1, SMALL_BUILD))
        kinds = {v.kind for v in case.violations}
        assert "cycle-bound" in kinds
