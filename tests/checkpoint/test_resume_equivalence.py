"""The kill-and-retry guarantee, as a test.

Simulations keep no mid-run checkpoints: a cell whose worker dies is
retried from the first cycle.  That retry is only as good as the claim
that a killed simulation leaves nothing behind — in the shared packed
trace or anywhere else in the process — that a later run could see.
For every cell of the smoke matrix, on both Table 1 machine widths:
stop a simulation mid-run at its cycle limit, retry it on the same
trace, and the final ``SimStats`` must be **bit-identical** — every
counter — to the counters pinned in ``tests/trace/pinned_capture.json``
for an uninterrupted run.
"""

from __future__ import annotations

import pytest

from repro.errors import SimulationError
from repro.sim.config import eight_way, four_way
from repro.sim.pipeline import TimingSimulator

from tests.checkpoint.conftest import CELLS, IDS
from tests.trace.capture_cells import load_digests, smoke_id

PINNED = load_digests()["smoke"]


def pinned(workload, scale, scheme, machine):
    return PINNED[smoke_id(workload, scale, scheme)]["sim"][machine]


def kill(pack, config_factory, kill_at: int) -> None:
    """A simulation stopped by its cycle limit, as a watchdog would."""
    sim = TimingSimulator(config_factory())
    with pytest.raises(SimulationError, match=f"exceeded {kill_at} cycles"):
        sim.run(pack, max_cycles=kill_at)
    assert sim.stats.retired < pack.n


def run_killed_then_retried(pack, config_factory, kill_at: int):
    """Simulate a worker killed at ``kill_at`` cycles, then the retry."""
    kill(pack, config_factory, kill_at)
    return TimingSimulator(config_factory()).run(pack)


@pytest.mark.parametrize(("workload", "scale", "scheme"), CELLS, ids=IDS)
@pytest.mark.parametrize(
    ("config", "machine"), [(four_way, "4way"), (eight_way, "8way")], ids=["4way", "8way"]
)
def test_resumed_stats_bit_identical(packs, workload, scale, scheme, config, machine):
    pack = packs[(workload, scheme)]
    clean = pinned(workload, scale, scheme, machine)
    stats = run_killed_then_retried(pack, config, clean["cycles"] // 2)
    counters = stats.to_counters()
    for field, value in clean.items():
        assert counters[field] == value, (
            f"{workload}/{scheme}: SimStats.{field} diverges between "
            f"killed-then-retried and uninterrupted runs"
        )
    assert counters == clean
    assert stats.retired == pack.n


@pytest.mark.parametrize("fraction", [0.15, 0.5, 0.9], ids=["early", "mid", "late"])
def test_kill_point_does_not_matter(packs, fraction):
    pack = packs[("compress", "advanced")]
    clean = pinned("compress", 150, "advanced", "4way")
    kill_at = max(1, int(clean["cycles"] * fraction))
    stats = run_killed_then_retried(pack, four_way, kill_at)
    assert stats.to_counters() == clean


def test_double_kill_still_converges(packs):
    """Killed, retried, killed again later, retried again: still identical."""
    pack = packs[("m88ksim", "basic")]
    clean = pinned("m88ksim", 2, "basic", "4way")
    total = clean["cycles"]
    kill(pack, four_way, max(1, total // 3))
    kill(pack, four_way, max(2, (2 * total) // 3))
    stats = TimingSimulator(four_way()).run(pack)
    assert stats.to_counters() == clean
