"""Harness supervision: jittered backoff, circuit breakers, the
progress-aware watchdog, stop events and failure progress reports.

Pool tests rely on Linux ``fork`` semantics: a ``monkeypatch`` of
``repro.bench.harness.compute_cell`` in the parent is inherited by the
workers, so slow/failing cells can be scripted without fault-injection
plumbing.
"""

from __future__ import annotations

import random
import threading
import time

import pytest

from repro.bench import harness
from repro.bench.harness import (
    CircuitBreaker,
    RunReport,
    _backoff_delay,
    _family,
    run_cells,
)
from repro.bench.matrix import Cell
from repro.bench.results import build_document, validate_document
from repro.progress import report_progress

from .conftest import SMALL

COMPRESS = Cell("compress", "conventional", 4, SMALL["compress"])
M88K = Cell("m88ksim", "conventional", 4, SMALL["m88ksim"])


def compress_family(n: int) -> list[Cell]:
    """n distinct cells of the compress/conventional family."""
    cells = []
    for i in range(n):
        cells.append(Cell("compress", "conventional", 4 if i % 2 == 0 else 8,
                          SMALL["compress"] + i // 2))
    return cells


class TestBackoffJitter:
    def test_jitter_stays_within_25_percent(self):
        rng = random.Random(7)
        for attempt in range(1, 8):
            base = min(0.5 * 2 ** (attempt - 1), harness._MAX_BACKOFF)
            for _ in range(50):
                delay = _backoff_delay(attempt, 0.5, rng)
                assert 0.75 * base <= delay <= 1.25 * base

    def test_same_seed_same_schedule(self):
        a = [_backoff_delay(n, 0.5, random.Random(3)) for n in range(1, 5)]
        b = [_backoff_delay(n, 0.5, random.Random(3)) for n in range(1, 5)]
        assert a == b

    def test_no_rng_means_no_jitter(self):
        assert _backoff_delay(3, 0.5) == 2.0

    def test_zero_backoff_is_zero(self):
        assert _backoff_delay(5, 0.0, random.Random(1)) == 0.0


class TestCircuitBreaker:
    def test_opens_after_threshold_consecutive_failures(self):
        breaker = CircuitBreaker(3)
        family = "compress/advanced"
        for _ in range(2):
            breaker.record_failure(family)
        assert not breaker.is_open(family)
        breaker.record_failure(family)
        assert breaker.is_open(family)

    def test_success_resets_the_count(self):
        breaker = CircuitBreaker(2)
        breaker.record_failure("f")
        breaker.record_success("f")
        breaker.record_failure("f")
        assert not breaker.is_open("f")

    def test_zero_threshold_disables(self):
        breaker = CircuitBreaker(0)
        for _ in range(100):
            breaker.record_failure("f")
        assert not breaker.is_open("f")
        assert breaker.snapshot() == {}

    def test_snapshot_reports_open_families(self):
        breaker = CircuitBreaker(1)
        breaker.record_failure("bad/advanced")
        breaker.skip("bad/advanced")
        breaker.record_failure("ok/basic")
        breaker.record_success("ok/basic")
        snap = breaker.snapshot()
        assert snap["bad/advanced"]["state"] == "open"
        assert snap["bad/advanced"]["skipped_cells"] == 1
        assert "ok/basic" not in snap  # recovered, nothing to report

    def test_family_is_workload_scheme(self):
        assert _family(COMPRESS) == "compress/conventional"
        assert _family(Cell("go", "advanced", 8, None)) == "go/advanced"


class TestBreakerInSerialPath:
    def test_family_fails_fast_once_open(self, monkeypatch):
        calls = []

        def failing(cell):
            calls.append(cell)
            raise RuntimeError("deterministic pipeline bug")

        monkeypatch.setattr(harness, "compute_cell", failing)
        cells = compress_family(4)
        report = RunReport()
        outcomes = run_cells(
            cells, retries=0, backoff=0.0, breaker_threshold=2, report=report
        )
        assert len(calls) == 2  # third and fourth cells never ran
        first, second, third, fourth = outcomes
        assert first.error.type == "RuntimeError" and first.attempts == 1
        assert second.error.type == "RuntimeError"
        for skipped in (third, fourth):
            assert skipped.status == "failed"
            assert skipped.error.type == "CircuitOpen"
            assert skipped.attempts == 0
        state = report.breakers["compress/conventional"]
        assert state["state"] == "open"
        assert state["skipped_cells"] == 2

    def test_open_breaker_swallows_remaining_retries(self, monkeypatch):
        def failing(cell):
            raise RuntimeError("boom")

        monkeypatch.setattr(harness, "compute_cell", failing)
        cells = compress_family(2)
        outcomes = run_cells(
            cells, retries=5, backoff=0.0, breaker_threshold=1
        )
        # the tripping cell keeps its real error and stops retrying
        assert outcomes[0].error.type == "RuntimeError"
        assert outcomes[0].attempts == 1
        assert outcomes[1].error.type == "CircuitOpen"

    def test_disabled_breaker_preserves_retry_semantics(self, monkeypatch):
        attempts = []

        def flaky(cell):
            attempts.append(cell)
            raise RuntimeError("always")

        monkeypatch.setattr(harness, "compute_cell", flaky)
        [outcome] = run_cells([COMPRESS], retries=2, backoff=0.0)
        assert outcome.attempts == 3
        assert len(attempts) == 3


class TestBreakerInPoolPath:
    def test_queued_family_cells_skip_after_trip(self, monkeypatch):
        monkeypatch.setenv(
            "REPRO_FAULTS", "execute:error:match=compress"
        )
        from repro.faults import reset_faults

        reset_faults()
        cells = compress_family(4) + [M88K]
        report = RunReport()
        outcomes = run_cells(
            cells, jobs=2, retries=0, backoff=0.0,
            breaker_threshold=1, report=report,
        )
        by_key = {o.cell: o for o in outcomes}
        assert by_key[M88K].ok
        compress_outcomes = [o for o in outcomes if o.cell.workload == "compress"]
        real = [o for o in compress_outcomes if o.error.type == "FaultInjected"]
        skipped = [o for o in compress_outcomes if o.error.type == "CircuitOpen"]
        assert len(real) + len(skipped) == 4
        assert len(real) >= 1  # at least the tripping cell has its real error
        assert len(skipped) >= 2  # everything popped after the trip skips
        for o in skipped:
            assert o.attempts == 0
        assert report.breakers["compress/conventional"]["state"] == "open"


def _beating_compute(cell):
    """~2.5s of scripted work with a heartbeat every 0.25s, then the
    real (fast) pipeline so the outcome carries a valid result."""
    from repro.experiments.runner import run_benchmark

    start = time.perf_counter()
    for i in range(10):
        time.sleep(0.25)
        report_progress(executed=i + 1)
    result = run_benchmark(
        cell.workload, cell.scheme, width=cell.width, scale=cell.scale
    )
    return result, time.perf_counter() - start


def _stalled_compute(cell):
    report_progress(stage="simulate", cycles=42)
    time.sleep(120)
    raise AssertionError("unreachable")


class TestWatchdog:
    def test_progressing_cell_outlives_the_soft_timeout(self, monkeypatch):
        """2.5s of beating work under a 1s soft timeout must finish —
        the old blind deadline would have killed it."""
        monkeypatch.setattr(harness, "compute_cell", _beating_compute)
        outcomes = run_cells(
            [COMPRESS, M88K], jobs=2, timeout=1.0, retries=0
        )
        assert all(o.ok for o in outcomes), [o.error for o in outcomes]
        assert all(o.attempts == 1 for o in outcomes)

    def test_hard_timeout_caps_even_progressing_cells(self, monkeypatch):
        monkeypatch.setattr(harness, "compute_cell", _beating_compute)
        outcomes = run_cells(
            [COMPRESS, M88K], jobs=2, timeout=1.0, hard_timeout=1.6,
            retries=0,
        )
        assert all(o.status == "timeout" for o in outcomes)
        for o in outcomes:
            assert "hard" in o.error.message
            assert o.progress is not None
            assert o.progress["executed"] >= 1

    def test_stalled_cell_is_killed_with_progress_attached(self, monkeypatch):
        monkeypatch.setattr(harness, "compute_cell", _stalled_compute)
        start = time.monotonic()
        outcomes = run_cells([COMPRESS, M88K], jobs=2, timeout=2.0, retries=0)
        elapsed = time.monotonic() - start
        assert all(o.status == "timeout" for o in outcomes)
        for o in outcomes:
            assert o.error.type == "Timeout"
            assert "2" in o.error.message
            assert o.error.stage == "simulate"  # attributed via heartbeat
            assert o.progress == {"stage": "simulate", "cycles": 42}
        # one extension (first look sees the initial beat), then killed
        assert elapsed < 30


class TestStopEvent:
    def test_preset_stop_aborts_without_computing(self, monkeypatch):
        def must_not_run(cell):
            raise AssertionError("computed despite stop")

        monkeypatch.setattr(harness, "compute_cell", must_not_run)
        stop = threading.Event()
        stop.set()
        report = RunReport()
        outcomes = run_cells(
            [COMPRESS, M88K], stop=stop, report=report, jobs=2, timeout=5.0
        )
        assert report.aborted is True
        for o in outcomes:
            assert o.status == "failed"
            assert o.error.type == "Aborted"
            assert o.attempts == 0

    def test_stop_cuts_backoff_sleep_short(self, monkeypatch):
        def failing(cell):
            raise RuntimeError("boom")

        monkeypatch.setattr(harness, "compute_cell", failing)
        stop = threading.Event()
        timer = threading.Timer(0.3, stop.set)
        timer.start()
        start = time.monotonic()
        try:
            run_cells([COMPRESS], retries=3, backoff=20.0, stop=stop)
        finally:
            timer.cancel()
        assert time.monotonic() - start < 5.0


class TestFailureProgressInDocuments:
    def test_serial_failure_carries_progress(self, monkeypatch):
        def failing(cell):
            report_progress(stage="simulate", cycles=900, retired=800)
            raise RuntimeError("died mid-simulation")

        monkeypatch.setattr(harness, "compute_cell", failing)
        [outcome] = run_cells([COMPRESS], retries=0)
        assert outcome.progress == {
            "stage": "simulate",
            "cycles": 900,
            "retired": 800,
        }

        doc = build_document(
            "smoke", [outcome], jobs=1, total_seconds=0.1,
            breakers={"compress/conventional": {
                "state": "open", "consecutive_failures": 1,
                "threshold": 1, "skipped_cells": 0,
            }},
        )
        validate_document(doc)
        [failure] = doc["failures"]
        assert failure["progress"]["retired"] == 800
        assert doc["breakers"]["compress/conventional"]["state"] == "open"

    def test_clean_document_has_no_breakers_key(self):
        [outcome] = run_cells([COMPRESS])
        doc = build_document(
            "smoke", [outcome], jobs=1, total_seconds=0.1, breakers={}
        )
        validate_document(doc)
        assert "breakers" not in doc
        assert "progress" not in doc["cells"][0]
