"""Chaos tests: checkpointing under crashes, corruption and injected
errors.

The central scenario is a worker SIGKILLed *mid-checkpoint-publish*
(the ``<label>@publish`` fault point sits between the durable temp
write and the rename).  The fault spec is built so that a cold restart
of the cell would deterministically crash again — the retry can only
succeed by resuming from the surviving checkpoint, which makes the
passing test itself the proof of resumption, and the bit-identical
result the proof of the differential guarantee.
"""

from __future__ import annotations

import pytest

from repro.bench.harness import run_cells
from repro.bench.matrix import Cell
from repro.bench.results import result_to_dict
from repro.checkpoint import CKPT_CYCLES_ENV, CKPT_DIR_ENV, CheckpointSlot, CheckpointStore
from repro.checkpoint.codec import CKPT_FORMAT_VERSION
from repro.errors import EXIT_CODES, CheckpointError, SimulationError, error_stage
from repro.faults import reset_faults
from repro.faults.inject import FAULTS_ENV
from repro.sim.config import four_way
from repro.sim.pipeline import TimingSimulator

from tests.faults.conftest import SMALL
from tests.faults.test_chaos_harness import fault_free_results, small_cells


class TestKillMidPublish:
    def test_sigkilled_writer_resumes_from_surviving_checkpoint(
        self, monkeypatch, tmp_path
    ):
        """Worker crashes mid-publish of checkpoint #2; the retry must
        resume from checkpoint #1.

        The interval is chosen so a full simulation publishes exactly
        two checkpoints.  With ``after=1:times=1`` the crash fires on
        the second publish, so a *cold* retry would reach its own
        second publish and crash again (fresh per-process budget) —
        only a resumed retry (one publish left) can complete.
        """
        cells = small_cells(("compress", "advanced"), ("m88ksim", "conventional"))
        expected = fault_free_results(cells)
        crasher, innocent = cells

        # the fault-free result carries the uninterrupted cycle count;
        # place exactly two checkpoints inside the run
        from repro.bench.cache import cell_key

        cycles = expected[cell_key(crasher)]["cycles"]
        assert cycles > 20, "smoke cell too small to checkpoint twice"
        interval = cycles // 2 - 3

        monkeypatch.setenv(CKPT_CYCLES_ENV, str(interval))
        monkeypatch.setenv(CKPT_DIR_ENV, str(tmp_path / "ckpt"))
        monkeypatch.setenv(
            FAULTS_ENV,
            "ckpt_write:crash:match=advanced@publish:after=1:times=1",
        )
        reset_faults()
        outcomes = run_cells(cells, jobs=2, retries=2, backoff=0.05)

        by_key = {o.key: o for o in outcomes}
        resumed = by_key[cell_key(crasher)]
        bystander = by_key[cell_key(innocent)]
        assert resumed.ok, resumed.error
        assert result_to_dict(resumed.result) == expected[resumed.key]
        assert bystander.ok, bystander.error
        assert result_to_dict(bystander.result) == expected[bystander.key]

    def test_crash_between_write_and_rename_preserves_previous_slot(
        self, monkeypatch, tmp_path
    ):
        """Direct check of the atomicity half: after a kill mid-publish
        the slot holds the *previous* complete checkpoint, never a torn
        file."""
        store = CheckpointStore(tmp_path)
        bindings = {"trace_key": "t", "config_sha256": "c", "code_version": "v"}
        store.save("ab" * 32, {"now": 1}, bindings, label="x")

        monkeypatch.setenv(FAULTS_ENV, "ckpt_write:error:match=@publish")
        reset_faults()
        from repro.errors import FaultInjected

        with pytest.raises(FaultInjected):
            store.save("ab" * 32, {"now": 2}, bindings, label="x")
        monkeypatch.delenv(FAULTS_ENV)
        reset_faults()
        # the interrupted publish left the old checkpoint intact, and
        # the aborted temp file was cleaned up
        assert store.load("ab" * 32, bindings) == {"now": 1}
        parent = store.path_for("ab" * 32).parent
        assert [p.name for p in parent.iterdir()] == [
            store.path_for("ab" * 32).name
        ]


class TestCorruptCheckpoint:
    def test_corrupt_read_is_a_cold_restart_never_a_wrong_result(
        self, monkeypatch, tmp_path
    ):
        from repro.experiments.runner import prepare_program
        from repro.runtime.interp import run_program

        artifacts = prepare_program("compress", "basic", scale=SMALL["compress"])
        pack = run_program(artifacts.program, collect_trace=True).trace
        clean = TimingSimulator(four_way()).run(pack).to_counters()

        bindings = {"format_version": CKPT_FORMAT_VERSION, "trace_key": "t"}
        slot = CheckpointSlot(
            CheckpointStore(tmp_path), "cd" * 32, bindings,
            interval=max(1, clean["cycles"] // 6), label="compress/basic",
        )
        with pytest.raises(SimulationError):
            TimingSimulator(four_way(), checkpoint=slot).run(
                pack, max_cycles=clean["cycles"] // 2
            )
        assert slot.load() is not None  # a checkpoint did get published

        monkeypatch.setenv(FAULTS_ENV, "ckpt_read:corrupt")
        reset_faults()
        sim = TimingSimulator(four_way(), checkpoint=slot)
        stats = sim.run(pack)
        assert sim.resumed_from is None  # scrambled bytes were refused
        assert stats.to_counters() == clean


class TestCheckpointErrors:
    def test_injected_write_error_fails_the_cell_with_checkpoint_stage(
        self, monkeypatch, tmp_path
    ):
        cells = small_cells(("compress", "conventional"))
        monkeypatch.setenv(CKPT_CYCLES_ENV, "50")
        monkeypatch.setenv(CKPT_DIR_ENV, str(tmp_path / "ckpt"))
        monkeypatch.setenv(
            FAULTS_ENV, "ckpt_write:error:type=CheckpointError"
        )
        reset_faults()
        [outcome] = run_cells(cells)
        assert outcome.status == "failed"
        assert outcome.error.type == "CheckpointError"
        assert outcome.error.stage == "checkpoint"

    def test_checkpoint_error_has_a_dedicated_exit_code(self):
        assert EXIT_CODES["CheckpointError"] == 22
        assert CheckpointError("x").exit_code == 22
        assert error_stage(CheckpointError("x")) == "checkpoint"

    def test_read_error_fails_before_touching_the_slot(
        self, monkeypatch, tmp_path
    ):
        """An injected ``ckpt_read`` error surfaces as the cell's
        failure (the fault fires before the defensive file read)."""
        store = CheckpointStore(tmp_path)
        monkeypatch.setenv(FAULTS_ENV, "ckpt_read:error:type=CheckpointError")
        reset_faults()
        with pytest.raises(CheckpointError):
            store.load("ab" * 32, {"trace_key": "t"})
