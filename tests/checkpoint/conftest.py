"""Shared fixtures for the kill-and-retry tests.

Interpretation is the slow part, so the smoke matrix is captured once
per module; every test starts with an empty result memo and trace pool
so nothing a previous test left behind can stand in for a simulation.
"""

from __future__ import annotations

import pytest

from repro.bench.harness import clear_memo
from repro.experiments.runner import SCHEMES, prepare_program
from repro.runtime.interp import run_program
from repro.trace.store import TRACE_CACHE_ENV, clear_trace_pool

#: The smoke matrix (mirrors ``repro.bench.matrix``'s smoke suite).
SMOKE = {"compress": 150, "m88ksim": 2}

CELLS = [
    (workload, scale, scheme)
    for workload, scale in sorted(SMOKE.items())
    for scheme in SCHEMES
]
IDS = [f"{w}@{s}/{scheme}" for w, s, scheme in CELLS]


@pytest.fixture(autouse=True)
def fresh_caches(monkeypatch):
    monkeypatch.delenv(TRACE_CACHE_ENV, raising=False)
    clear_memo()
    clear_trace_pool()
    yield
    clear_memo()
    clear_trace_pool()


@pytest.fixture(scope="module")
def packs():
    """(workload, scheme) -> packed trace; each cell interpreted once."""
    runs = {}
    for workload, scale, scheme in CELLS:
        artifacts = prepare_program(workload, scheme, scale=scale)
        run = run_program(artifacts.program, collect_trace=True)
        runs[(workload, scheme)] = run.trace
    return runs
