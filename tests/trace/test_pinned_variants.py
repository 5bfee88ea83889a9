"""Simulator counters pinned on variant machines.

``pinned_variants.json`` (next to this file) holds the ``SimStats``
counters of every pinned cell — the smoke matrix plus the ``examples/``
and fuzz-regression programs of ``pinned_capture.json`` — on each machine
of :data:`~tests.trace.capture_cells.VARIANT_MACHINES`: both Table 1
machines with one parameter changed (issue window, INT units, load/store
ports, FP units, in-flight cap) or with perfect branch prediction.  The
values were produced by the window-scanning engine that the event-driven
one replaced, so every field must still match exactly.  They are pinned
data: do not regenerate them from the engine under test.
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from repro.runtime.interp import run_program
from repro.sim.pipeline import TimingSimulator

from tests.trace.capture_cells import (
    VARIANT_MACHINES,
    pinned_cells,
    variant_machine,
)

PINNED = json.loads(Path(__file__).with_name("pinned_variants.json").read_text())
CELLS = sorted(PINNED)


@pytest.fixture(scope="module")
def packs():
    return {
        cell: run_program(program, collect_trace=True).trace
        for cell, program in pinned_cells().items()
    }


def test_every_pinned_cell_and_machine_is_covered(packs):
    assert sorted(packs) == CELLS
    for cell in CELLS:
        assert sorted(PINNED[cell]) == sorted(VARIANT_MACHINES)


@pytest.mark.parametrize("cell", CELLS)
def test_counters_match_on_every_variant(packs, cell):
    pack = packs[cell]
    for name, want in PINNED[cell].items():
        config, perfect = variant_machine(name)
        got = TimingSimulator(config, perfect_branches=perfect).run(pack)
        assert got.to_counters() == want, f"{cell} on {name}"
