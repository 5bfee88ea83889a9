"""Shared fixtures for the chaos (fault-injection) tests.

Every test starts with no fault spec, no degradation opt-in, an empty
in-process memo and a fresh injector, so firing budgets and RNG streams
never leak between tests.
"""

from __future__ import annotations

import pytest

from repro.bench.harness import clear_memo
from repro.experiments.runner import DEGRADE_ENV
from repro.faults import reset_faults
from repro.faults.inject import FAULTS_ENV
from repro.trace.store import TRACE_CACHE_ENV, clear_trace_pool


@pytest.fixture(autouse=True)
def clean_fault_state(monkeypatch):
    monkeypatch.delenv(FAULTS_ENV, raising=False)
    monkeypatch.delenv(DEGRADE_ENV, raising=False)
    monkeypatch.delenv(TRACE_CACHE_ENV, raising=False)
    clear_memo()
    clear_trace_pool()
    reset_faults()
    yield
    clear_memo()
    clear_trace_pool()
    reset_faults()


#: Small, fast workloads (sub-second cells) used throughout.
SMALL = {"compress": 150, "m88ksim": 2}
