"""The kill-and-retry guarantee, as a test.

Simulations keep no mid-run checkpoints: a cell whose worker dies is
retried from the first cycle.  That retry is only as good as the claim
that a killed simulation leaves nothing behind — in the shared packed
trace or anywhere else in the process — that a later run could see.
For every cell of the smoke matrix, on both Table 1 machine widths:
stop a simulation at its cycle limit (once, or twice at growing limits),
retry it on the same trace, and the final ``SimStats`` must be
**bit-identical** — every counter — to the counters pinned in
``tests/trace/pinned_capture.json`` for an uninterrupted run.  The kill
points rotate over the cases, so early, mid, late and double kills are
each checked on both machines without a simulation of their own.
"""

from __future__ import annotations

from itertools import cycle, product

import pytest

from repro.errors import SimulationError
from repro.experiments.runner import SCHEMES, prepare_program
from repro.runtime.interp import run_program
from repro.sim.config import eight_way, four_way
from repro.sim.pipeline import TimingSimulator

from tests.trace.capture_cells import load_digests, smoke_id

#: The smoke matrix (mirrors ``repro.bench.matrix``'s smoke suite).
SMOKE = {"compress": 150, "m88ksim": 2}
MACHINES = {"4way": four_way, "8way": eight_way}
#: Kill points as fractions of the pinned cycle count, in kill order.
PLANS = {"double": (1 / 3, 2 / 3), "mid": (0.5,), "early": (0.15,), "late": (0.9,)}

CELLS = [
    (workload, scale, scheme)
    for workload, scale in sorted(SMOKE.items())
    for scheme in SCHEMES
]
CASES = [
    (machine, cell, plan)
    for (machine, cell), plan in zip(product(MACHINES, CELLS), cycle(PLANS))
]
PINNED = load_digests()["smoke"]


@pytest.fixture(scope="module")
def packs():
    """(workload, scheme) -> packed trace; each cell interpreted once."""
    return {
        (workload, scheme): run_program(
            prepare_program(workload, scheme, scale=scale).program, collect_trace=True
        ).trace
        for workload, scale, scheme in CELLS
    }


@pytest.mark.parametrize(
    ("machine", "cell", "plan"),
    CASES,
    ids=[f"{m}-{w}@{s}/{scheme}-{plan}" for m, (w, s, scheme), plan in CASES],
)
def test_kill_and_retry(packs, machine, cell, plan):
    workload, scale, scheme = cell
    pack = packs[(workload, scheme)]
    config = MACHINES[machine]
    clean = PINNED[smoke_id(workload, scale, scheme)]["sim"][machine]
    for fraction in PLANS[plan]:
        kill_at = max(1, int(clean["cycles"] * fraction))
        sim = TimingSimulator(config())
        with pytest.raises(SimulationError, match=f"exceeded {kill_at} cycles"):
            sim.run(pack, max_cycles=kill_at)
        assert sim.stats.retired < pack.n
    stats = TimingSimulator(config()).run(pack)
    assert stats.to_counters() == clean
    assert stats.retired == pack.n
