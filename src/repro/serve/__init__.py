"""``repro serve``: the pipeline as a long-running, fault-isolated service.

A local HTTP/JSON daemon exposing compile / lint / partition / simulate
/ bench-cell, built entirely on the stdlib and on the robustness layers
the batch harness already proved out: process-isolated execution with
progress-aware watchdogs, capped retries, shared circuit breakers,
and content-addressed result caching.  What the
daemon adds is the *service* failure envelope — bounded admission with
load shedding, request coalescing, graceful drain — documented in
``docs/robustness.md`` ("Service failure model").

Modules:

* :mod:`repro.serve.state`  — configuration, admission gate, counters
* :mod:`repro.serve.codes`  — error-hierarchy ↔ HTTP status mapping
* :mod:`repro.serve.work`   — request executors, single-flight dedup
* :mod:`repro.serve.http`   — routing, shedding, error rendering
* :mod:`repro.serve.daemon` — lifecycle: signals and graceful drain
* :mod:`repro.serve.client` — stdlib client used by loadgen and tests
* :mod:`repro.serve.loadgen` — load generator emitting BENCH_serve.json
"""

from repro.serve.state import ServeConfig, ServeState

__all__ = ["ServeConfig", "ServeState"]
