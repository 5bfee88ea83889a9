"""The differential net over the interpret→simulate hot path.

The interpreter captures its trace directly as ``repro-trace/1`` columns.
For every cell of the smoke matrix, and for every fuzz regression and
``examples/*.mc`` program pinned in ``pinned_capture.json`` (all three
schemes), the capture's encoding must hash to the committed digest —
recorded from the per-entry ``TraceEntry`` capture that direct capture
replaced.  On the smoke matrix, simulating
the capture (fresh or decoded from disk) must reproduce the committed
``SimStats`` counters field by field on both Table 1 machine widths, and
the capture must spell out as an entry stream that follows from the
program's instructions.  This is the suite CI runs as the
``trace-equivalence`` step: it is what licenses the fast replay path to
substitute for fresh interpretation.
"""

from __future__ import annotations

import hashlib

import pytest

from repro.runtime.interp import run_program
from repro.sim.pipeline import simulate_trace
from repro.trace.pack import PackedTrace, pack_entries
from repro.trace.store import TRACE_CACHE_ENV, clear_trace_pool

from tests.trace.capture_cells import (
    MACHINES,
    SMOKE,
    SMOKE_CELLS,
    check_operands,
    entry_stream,
    load_digests,
    prepare_smoke,
    prepare_source,
    smoke_id,
    source_id,
)

CELLS = SMOKE_CELLS
IDS = [smoke_id(*cell) for cell in CELLS]
PINNED = load_digests()
SOURCE_CELLS = [tuple(cell.rsplit("/", 1)) for cell in sorted(PINNED["sources"])]


@pytest.fixture(scope="module")
def captured():
    """(workload, scheme) -> (program, pack); interpreted once."""
    runs = {}
    for workload, scale, scheme in CELLS:
        program = prepare_smoke(workload, scale, scheme)
        runs[(workload, scheme)] = (
            program, run_program(program, collect_trace=True).trace,
        )
    return runs


def _assert_counters(got: dict, want: dict, where: str) -> None:
    for field, value in want.items():
        assert got[field] == value, (
            f"{where}: SimStats.{field} diverges from the committed counters"
        )
    assert got == want


@pytest.mark.parametrize(("workload", "scale", "scheme"), CELLS, ids=IDS)
def test_capture_matches_pinned_digest(captured, workload, scale, scheme):
    _, pack = captured[(workload, scheme)]
    pinned = PINNED["smoke"][smoke_id(workload, scale, scheme)]
    assert (pack.n, pack.value) == (pinned["instructions"], pinned["value"])
    assert hashlib.sha256(pack.to_bytes()).hexdigest() == pinned["sha256"]


@pytest.mark.parametrize(
    ("path", "scheme"), SOURCE_CELLS, ids=[source_id(*c) for c in SOURCE_CELLS]
)
def test_source_capture_matches_pinned_digest(path, scheme):
    pack = run_program(prepare_source(path, scheme), collect_trace=True).trace
    pinned = PINNED["sources"][source_id(path, scheme)]
    assert (pack.n, pack.value) == (pinned["instructions"], pinned["value"])
    assert pack.dynamic_mix() == pinned["mix"]
    assert hashlib.sha256(pack.to_bytes()).hexdigest() == pinned["sha256"]


@pytest.mark.parametrize(("workload", "scale", "scheme"), CELLS, ids=IDS)
@pytest.mark.parametrize("config", sorted(MACHINES))
def test_packed_replay_is_bit_identical(captured, workload, scale, scheme, config):
    _, pack = captured[(workload, scheme)]
    replayed = simulate_trace(pack, MACHINES[config]())
    pinned = PINNED["smoke"][smoke_id(workload, scale, scheme)]
    _assert_counters(
        replayed.to_counters(), pinned["sim"][config], f"{workload}/{scheme}"
    )


@pytest.mark.parametrize(("workload", "scale", "scheme"), CELLS, ids=IDS)
def test_encode_decode_encode_is_byte_stable(captured, workload, scale, scheme):
    _, pack = captured[(workload, scheme)]
    data = pack.to_bytes()
    decoded = PackedTrace.from_bytes(data)
    assert decoded.to_bytes() == data


@pytest.mark.parametrize(("workload", "scale", "scheme"), CELLS, ids=IDS)
def test_decoded_pack_still_replays_identically(captured, workload, scale, scheme):
    """Equivalence must survive the disk encoding, not just in-memory
    capture — the store hands the simulator decoded packs."""
    _, pack = captured[(workload, scheme)]
    decoded = PackedTrace.from_bytes(pack.to_bytes())
    replayed = simulate_trace(decoded, MACHINES["4way"]())
    pinned = PINNED["smoke"][smoke_id(workload, scale, scheme)]
    _assert_counters(replayed.to_counters(), pinned["sim"]["4way"], f"{workload}/{scheme}")


@pytest.mark.parametrize(("workload", "scale", "scheme"), CELLS, ids=IDS)
def test_dynamic_mix_matches(captured, workload, scale, scheme):
    _, pack = captured[(workload, scheme)]
    pinned = PINNED["smoke"][smoke_id(workload, scale, scheme)]
    assert pack.dynamic_mix() == pinned["mix"]


@pytest.mark.parametrize(("workload", "scale", "scheme"), CELLS, ids=IDS)
def test_unpack_reconstructs_the_entry_stream(captured, workload, scale, scheme):
    """The columns spell out an entry stream that follows from the
    program, and that the entry-stream packer packs to the same bytes."""
    program, pack = captured[(workload, scheme)]
    entries = entry_stream(program, pack)
    assert len(entries) == pack.n
    check_operands(entries)
    assert pack_entries(entries, value=pack.value).to_bytes() == pack.to_bytes()


class TestInterpretOnce:
    """The acceptance property: one interpretation feeds every config."""

    def test_second_config_replays_from_the_pool(self, monkeypatch):
        from repro.experiments import runner

        monkeypatch.delenv(TRACE_CACHE_ENV, raising=False)
        clear_trace_pool()
        traced_runs = 0
        real_run_program = runner.run_program

        def counting_run_program(*args, **kwargs):
            nonlocal traced_runs
            if kwargs.get("collect_trace"):
                traced_runs += 1
            return real_run_program(*args, **kwargs)

        monkeypatch.setattr(runner, "run_program", counting_run_program)
        four = runner.run_benchmark(
            "compress", "conventional", width=4, scale=SMOKE["compress"]
        )
        eight = runner.run_benchmark(
            "compress", "conventional", width=8, scale=SMOKE["compress"]
        )
        clear_trace_pool()
        assert traced_runs == 1, "second machine config re-ran the interpreter"
        assert four.checksum == eight.checksum
        assert four.dynamic_instructions == eight.dynamic_instructions

    def test_pool_replay_is_bit_identical_end_to_end(self, monkeypatch):
        from repro.experiments import runner

        monkeypatch.delenv(TRACE_CACHE_ENV, raising=False)
        clear_trace_pool()
        first = runner.run_benchmark(
            "compress", "basic", width=4, scale=SMOKE["compress"]
        )
        replayed = runner.run_benchmark(
            "compress", "basic", width=4, scale=SMOKE["compress"]
        )
        clear_trace_pool()
        fresh = runner.run_benchmark(
            "compress", "basic", width=4, scale=SMOKE["compress"]
        )
        assert replayed.stats.to_counters() == first.stats.to_counters()
        assert fresh.stats.to_counters() == first.stats.to_counters()
        assert fresh.checksum == first.checksum
        assert fresh.mix == first.mix
