"""Parallel, cached, fault-tolerant execution of experiment-matrix cells.

Resolution order for each cell:

1. the in-process memo (shared by every figure/table driver of one
   invocation, replacing the old ``runner._CACHE``),
2. the on-disk :class:`~repro.bench.cache.ResultCache` (if given),
3. fresh computation — inline for ``jobs <= 1``, otherwise fanned out
   over a :class:`concurrent.futures.ProcessPoolExecutor`.

Workers return plain dicts (the same serialization the cache stores),
so a parallel run, a serial run and a cache replay all yield
bit-identical result documents — the property the harness tests and
the CI baseline gate rely on.

Fault tolerance (``docs/robustness.md``): one misbehaving cell never
discards its siblings' work.  Every cell resolves to a
:class:`CellOutcome` whose ``status`` is ``ok``, ``failed`` or
``timeout``; pipeline exceptions are captured as a :class:`CellError`
(type/stage/message) instead of propagating out of ``run_cells``.
Failures retry up to ``retries`` times with jittered exponential
backoff; a worker that dies outright (``BrokenProcessPool``) triggers
a pool respawn, with every in-flight cell requeued, and after repeated
breakages the harness drops to single-worker isolation so the poisoned
cell is identified, charged and excluded without taking innocents with
it.  Callers that need the old raise-on-failure behaviour use
:meth:`CellOutcome.unwrap`.

Supervision: workers emit heartbeats (:mod:`repro.bench.heartbeat`) —
pipeline stage, instructions executed, cycles simulated — and the per-cell ``timeout`` is a *progress-aware* watchdog
rather than a blind wall-clock kill: a cell whose heartbeat changed
gets its deadline extended (bounded by ``hard_timeout``), one whose
heartbeat did not change is killed at the deadline.  Failed and
timed-out outcomes carry the last heartbeat as ``progress`` so a
99%-done timeout is distinguishable from a cold hang.  A per-
``(workload, scheme)`` circuit breaker (``breaker_threshold``) trips
after K consecutive attempt failures, failing the family's remaining
cells fast so one poisoned workload cannot burn the whole sweep's
retry budget.
"""

from __future__ import annotations

import hashlib
import os
import random
import shutil
import tempfile
import threading
import time
from collections import OrderedDict, deque
from concurrent.futures import FIRST_COMPLETED, ProcessPoolExecutor, wait
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass, field
from typing import Callable

from repro.bench.cache import ResultCache, cell_key
from repro.bench.heartbeat import HeartbeatWriter, progress_summary, read_heartbeat
from repro.bench.matrix import Cell
from repro.bench.results import result_from_dict, result_to_dict
from repro.errors import ReproError, error_stage
from repro.experiments.runner import BenchmarkResult, run_benchmark
from repro.progress import set_progress_sink

#: key -> (result, fresh compute seconds); one process-wide memo in LRU
#: order, bounded by :func:`_memo_cap` so long-lived processes using
#: ``cached_run_benchmark`` cannot grow without limit.  Guarded by
#: ``_MEMO_LOCK``: the ``repro serve`` daemon resolves cells from many
#: worker threads against this one memo.
_MEMO: OrderedDict[str, tuple[BenchmarkResult, float]] = OrderedDict()
_MEMO_LOCK = threading.Lock()


def _after_fork_reinit() -> None:
    # pool workers fork from a possibly multi-threaded parent (the serve
    # daemon); a memo lock captured mid-acquisition must not survive
    global _MEMO_LOCK
    _MEMO_LOCK = threading.Lock()


os.register_at_fork(after_in_child=_after_fork_reinit)

#: Default memo bound; override with ``REPRO_BENCH_MEMO_CAP=<n>``.
DEFAULT_MEMO_CAP = 512

#: After this many pool breakages, fall back to one worker at a time so
#: a crash attributes to exactly one cell.
_ISOLATE_AFTER_BREAKS = 2

#: Cap on one exponential-backoff sleep, seconds.
_MAX_BACKOFF = 30.0

STATUS_OK = "ok"
STATUS_FAILED = "failed"
STATUS_TIMEOUT = "timeout"


def _memo_cap() -> int:
    try:
        return max(1, int(os.environ.get("REPRO_BENCH_MEMO_CAP", DEFAULT_MEMO_CAP)))
    except (TypeError, ValueError):
        return DEFAULT_MEMO_CAP


def _memo_get(key: str) -> tuple[BenchmarkResult, float] | None:
    with _MEMO_LOCK:
        value = _MEMO.get(key)
        if value is not None:
            _MEMO.move_to_end(key)
        return value


def _memo_put(key: str, value: tuple[BenchmarkResult, float]) -> None:
    cap = _memo_cap()
    with _MEMO_LOCK:
        _MEMO[key] = value
        _MEMO.move_to_end(key)
        while len(_MEMO) > cap:
            _MEMO.popitem(last=False)


def clear_memo() -> None:
    """Drop the in-process memo (tests and long-lived processes)."""
    with _MEMO_LOCK:
        _MEMO.clear()


@dataclass(frozen=True, slots=True)
class CellError:
    """What failed inside one cell, reduced to picklable strings.

    Attributes:
        type: Exception class name (or ``BrokenProcessPool``/``Timeout``
            for process-level failures the cell never got to raise).
        stage: Pipeline stage the failure is attributed to.
        message: The exception text.
    """

    type: str
    stage: str
    message: str

    @classmethod
    def from_exception(cls, exc: BaseException) -> "CellError":
        return cls(type(exc).__name__, error_stage(exc), str(exc))

    def as_dict(self) -> dict:
        return {"type": self.type, "stage": self.stage, "message": self.message}

    @classmethod
    def from_dict(cls, doc: dict) -> "CellError":
        return cls(
            str(doc.get("type", "Exception")),
            str(doc.get("stage", "unknown")),
            str(doc.get("message", "")),
        )


@dataclass(eq=False, slots=True)
class CellOutcome:
    """One resolved cell.

    Attributes:
        cell: The matrix cell.
        result: The (possibly replayed) benchmark result; ``None`` when
            the cell did not resolve cleanly (``status != "ok"``).
        key: Content-address of the cell (cache key).
        cached: True when the result was replayed, not computed.
        source: ``"memo"``, ``"disk"``, ``"computed"``, ``"journal"``
            (resumed from a run journal) or ``"none"`` (failed).
        seconds: Wall-clock this invocation spent obtaining the cell
            (≈0 for replays).
        compute_seconds: Wall-clock of the original fresh computation.
        status: ``"ok"``, ``"failed"`` or ``"timeout"``.
        error: Captured failure details when ``status != "ok"``.
        attempts: Number of attempts spent on the cell (1 = first try).
        progress: Last heartbeat of a failed/timed-out cell (stage,
            instructions executed, cycles simulated) — ``None`` for
            clean cells or when the worker never reported.
        attempt_seconds: Wall-clock seconds of every attempt spent on
            this cell, in attempt order (failed attempts included).
            ``None`` for replays.  Retried cells therefore carry
            intra-run repeat timings — the raw material of the
            perf-history noise-floor estimator (:mod:`repro.perf`).
    """

    cell: Cell
    result: BenchmarkResult | None
    key: str
    cached: bool
    source: str
    seconds: float
    compute_seconds: float
    status: str = STATUS_OK
    error: CellError | None = None
    attempts: int = 1
    progress: dict | None = None
    attempt_seconds: list[float] | None = None

    @property
    def ok(self) -> bool:
        return self.status == STATUS_OK

    def unwrap(self) -> BenchmarkResult:
        """The result, or a :class:`ReproError` re-raising the failure."""
        if self.ok and self.result is not None:
            return self.result
        error = self.error or CellError("Unknown", "unknown", "no result")
        raise ReproError(
            f"cell {self.cell.label} {self.status} after "
            f"{self.attempts} attempt(s): [{error.type} at {error.stage}] "
            f"{error.message}"
        )


def compute_cell(cell: Cell) -> tuple[BenchmarkResult, float]:
    """Run one cell's full pipeline; returns (result, seconds)."""
    start = time.perf_counter()
    result = run_benchmark(
        cell.workload, cell.scheme, width=cell.width, scale=cell.scale
    )
    return result, time.perf_counter() - start


def _pool_worker(payload: tuple[str, dict, str | None]) -> tuple[str, dict]:
    """Process-pool entry point (must stay module-level picklable).

    Exceptions are captured into the returned payload rather than
    raised: a raised exception would have to survive pickling back to
    the parent, and the parent wants type/stage strings anyway.  While
    the cell runs, the pipeline's progress reports stream into the
    heartbeat file at ``hb_path`` so the parent's watchdog can tell a
    slow-but-progressing cell from a hung one; the final flush makes
    the last beat visible even when the cell fails.
    """
    key, cell_doc, hb_path = payload
    heartbeat = HeartbeatWriter(hb_path)
    set_progress_sink(heartbeat)
    start = time.perf_counter()
    try:
        result, seconds = compute_cell(Cell.from_dict(cell_doc))
    except Exception as exc:
        return key, {
            "ok": False,
            "error": CellError.from_exception(exc).as_dict(),
            "seconds": time.perf_counter() - start,
        }
    finally:
        set_progress_sink(None)
        heartbeat.flush()
    return key, {"ok": True, "result": result_to_dict(result), "seconds": seconds}


def _decode_cache_entry(entry: dict) -> tuple[BenchmarkResult, float] | None:
    """Decode a disk entry defensively; ``None`` = treat as a miss.

    A corrupted entry (torn write survived the JSON parse, bit rot, a
    stale schema) must cost a recomputation, never a crash.
    """
    try:
        result = result_from_dict(entry["result"])
        compute_seconds = float(entry.get("compute_seconds", 0.0))
    except (ReproError, KeyError, TypeError, ValueError):
        return None
    return result, compute_seconds


def _backoff_delay(
    attempt: int, backoff: float, rng: random.Random | None = None
) -> float:
    """Exponential backoff with ±25% jitter.

    Without jitter, cells failing together (a shared dependency
    hiccup, a pool respawn) retry together — a stampede that re-creates
    the very contention that failed them.  The jitter is drawn from the
    caller's seeded ``rng`` so a run's retry schedule is reproducible.
    """
    if backoff <= 0:
        return 0.0
    delay = min(backoff * (2 ** (attempt - 1)), _MAX_BACKOFF)
    if rng is not None:
        delay *= 0.75 + 0.5 * rng.random()
    return delay


def _pause(stop: threading.Event | None, seconds: float) -> None:
    """Sleep that a caller's ``stop`` event can cut short.

    Backoff sleeps are where a Ctrl-C'd run used to linger; waiting on
    the event instead of ``time.sleep`` makes shutdown prompt.
    """
    if seconds <= 0:
        return
    if stop is not None:
        stop.wait(seconds)
    else:
        time.sleep(seconds)


def _family(cell: Cell) -> str:
    """Circuit-breaker grouping: one breaker per (workload, scheme).

    Width/scale variants of a workload share the compile + partition +
    interpret pipeline, so a deterministic failure in one almost always
    afflicts the whole family — that is the unit worth failing fast.
    """
    return f"{cell.workload}/{cell.scheme}"


class CircuitBreaker:
    """Consecutive-failure breaker over cell families.

    A family whose cells fail ``threshold`` *consecutive* attempts is
    deterministically broken — more retries only burn the sweep's wall
    clock.  Once open, queued cells of the family fail fast (type
    ``CircuitOpen``, zero attempts charged); any success resets the
    family's count.  ``threshold <= 0`` disables the breaker.

    Thread-safe: ``repro serve`` shares one breaker across every client
    (pass it to :func:`run_cells` as ``breaker``), so a workload that is
    deterministically poisoning workers fails fast for *all* clients,
    not once per connection.
    """

    def __init__(self, threshold: int) -> None:
        self.threshold = threshold
        self.failures: dict[str, int] = {}
        self.skipped: dict[str, int] = {}
        self._lock = threading.Lock()

    def record_failure(self, family: str) -> None:
        if self.threshold <= 0:
            return
        with self._lock:
            self.failures[family] = self.failures.get(family, 0) + 1

    def record_success(self, family: str) -> None:
        with self._lock:
            if family in self.failures:
                self.failures[family] = 0

    def is_open(self, family: str) -> bool:
        if self.threshold <= 0:
            return False
        with self._lock:
            return self.failures.get(family, 0) >= self.threshold

    def skip(self, family: str) -> CellError:
        with self._lock:
            self.skipped[family] = self.skipped.get(family, 0) + 1
            count = self.failures.get(family, 0)
        return CellError(
            "CircuitOpen",
            "harness",
            f"circuit breaker open for {family} after "
            f"{count} consecutive failures",
        )

    def snapshot(self) -> dict[str, dict]:
        """Per-family breaker state for the run report (tracked families
        only — a family that never failed has nothing to report)."""
        report: dict[str, dict] = {}
        with self._lock:
            failures = dict(self.failures)
            skipped = dict(self.skipped)
        for family, count in sorted(failures.items()):
            if count == 0 and not skipped.get(family):
                continue
            report[family] = {
                "state": "open" if count >= self.threshold > 0 else "closed",
                "consecutive_failures": count,
                "threshold": self.threshold,
                "skipped_cells": skipped.get(family, 0),
            }
        return report


@dataclass(eq=False, slots=True)
class RunReport:
    """Supervision facts a caller wants alongside the outcomes.

    Pass an instance to :func:`run_cells`; it is filled in place.
    """

    #: family -> breaker state, for families that recorded any failure.
    breakers: dict[str, dict] = field(default_factory=dict)
    #: True when a ``stop`` event aborted the run before completion.
    aborted: bool = False


def _kill_pool(pool: ProcessPoolExecutor) -> None:
    """Tear a pool down *now*, terminating hung or wedged workers."""
    processes = getattr(pool, "_processes", None) or {}
    for proc in list(processes.values()):
        try:
            proc.terminate()
        except Exception:
            pass
    pool.shutdown(wait=False, cancel_futures=True)


def run_cells(
    cells: list[Cell],
    *,
    jobs: int = 1,
    cache: ResultCache | None = None,
    force: bool = False,
    progress: Callable[[CellOutcome], None] | None = None,
    timeout: float | None = None,
    hard_timeout: float | None = None,
    retries: int = 0,
    backoff: float = 0.5,
    breaker_threshold: int = 0,
    breaker: CircuitBreaker | None = None,
    stop: threading.Event | None = None,
    report: RunReport | None = None,
) -> list[CellOutcome]:
    """Resolve every cell; returns outcomes in input order (deduplicated).

    Never raises for a cell's failure — inspect ``CellOutcome.status``
    (or call ``unwrap()``) instead.

    Args:
        cells: Cells to run; duplicates are resolved once.
        jobs: Worker processes (<=1 runs inline in this process, unless
            ``timeout`` is set, which requires the pool for isolation).
        cache: Optional on-disk cache consulted before computing and
            updated (atomically) after.
        force: Recompute even on a cache hit (the cache is rewritten).
        progress: Callback invoked as each cell resolves, in completion
            order.
        timeout: Per-cell *soft* deadline in seconds.  A cell whose
            heartbeat changed since the last watchdog look gets the
            deadline extended by another ``timeout``; a cell with no
            heartbeat change is killed (pool respawn) and retried or
            marked ``timeout``.
        hard_timeout: Absolute per-cell wall-clock ceiling; a cell is
            killed at this point even while still making progress.
            ``None`` means progressing cells run for as long as they
            keep beating.
        retries: Extra attempts per cell after the first failure.
        backoff: Base of the exponential retry delay
            (``backoff * 2**(attempt-1)`` seconds ±25% jitter, capped).
        breaker_threshold: Consecutive attempt failures per
            (workload, scheme) family before its circuit breaker opens
            and remaining family cells fail fast; ``0`` disables.
        breaker: Optional externally owned :class:`CircuitBreaker` to
            use instead of a per-call one, so failure counts persist
            across calls — the ``repro serve`` daemon passes one breaker
            for every request, making breaker state a property of the
            process, not the connection.  ``breaker_threshold`` is
            ignored when this is given.
        stop: Optional event; once set, no new work starts, backoff
            sleeps return immediately and unresolved cells are recorded
            as failed (type ``Aborted``).
        report: Optional :class:`RunReport` filled in place with breaker
            state and abort status.
    """
    ordered: list[tuple[Cell, str]] = []
    seen: set[str] = set()
    for cell in cells:
        key = cell_key(cell)
        if key not in seen:
            seen.add(key)
            ordered.append((cell, key))

    outcomes: dict[str, CellOutcome] = {}
    pending: list[tuple[Cell, str]] = []
    max_attempts = max(1, retries + 1)
    # key -> wall seconds of every attempt, in attempt order.  Surfaced
    # on the outcome (and thence the BENCH document) as the intra-run
    # repeat data the perf-history noise-floor estimator consumes.
    attempt_times: dict[str, list[float]] = {}

    def _resolved(outcome: CellOutcome) -> None:
        outcomes[outcome.key] = outcome
        if progress is not None:
            progress(outcome)

    def _record_attempt(key: str, seconds: float) -> None:
        attempt_times.setdefault(key, []).append(max(0.0, seconds))

    for cell, key in ordered:
        if not force:
            memoized = _memo_get(key)
            if memoized is not None:
                result, compute_seconds = memoized
                _resolved(
                    CellOutcome(cell, result, key, True, "memo", 0.0, compute_seconds)
                )
                continue
        if not force and cache is not None:
            start = time.perf_counter()
            entry = cache.get(key)
            decoded = _decode_cache_entry(entry) if entry is not None else None
            if decoded is not None:
                result, compute_seconds = decoded
                _memo_put(key, (result, compute_seconds))
                _resolved(
                    CellOutcome(
                        cell,
                        result,
                        key,
                        True,
                        "disk",
                        time.perf_counter() - start,
                        compute_seconds,
                    )
                )
                continue
        pending.append((cell, key))

    # All machine configs of one (workload, scheme, scale) share a packed
    # trace, so group them: the capture from the first config is still in
    # the replay pool (or freshly on disk) when its siblings run.
    # Outcomes are returned in input order regardless.
    pending.sort(
        key=lambda item: (
            item[0].workload,
            item[0].scheme,
            -1 if item[0].scale is None else item[0].scale,
            item[0].width,
        )
    )

    def _computed(
        cell: Cell,
        key: str,
        result: BenchmarkResult,
        seconds: float,
        attempts: int = 1,
    ) -> None:
        _memo_put(key, (result, seconds))
        if cache is not None:
            cache.put(
                key,
                {
                    "cell": cell.as_dict(),
                    "result": result_to_dict(result),
                    "compute_seconds": seconds,
                },
            )
        _resolved(
            CellOutcome(
                cell, result, key, False, "computed", seconds, seconds,
                STATUS_OK, None, attempts, None, attempt_times.get(key),
            )
        )

    def _failed(
        cell: Cell,
        key: str,
        status: str,
        error: CellError,
        attempts: int,
        progress_doc: dict | None = None,
    ) -> None:
        _resolved(
            CellOutcome(
                cell, None, key, False, "none", 0.0, 0.0, status, error,
                attempts, progress_doc, attempt_times.get(key),
            )
        )

    # The retry-jitter RNG is seeded from the pending work itself so a
    # rerun of the same sweep reproduces the same backoff schedule.
    seed_bytes = hashlib.sha256(
        "\n".join(key for _, key in pending).encode("utf-8")
    ).digest()
    rng = random.Random(int.from_bytes(seed_bytes[:8], "big"))
    if breaker is None:
        breaker = CircuitBreaker(breaker_threshold)

    if pending and timeout is None and (jobs <= 1 or len(pending) == 1):
        _run_serial(
            pending, max_attempts, backoff, rng, breaker, stop,
            _computed, _failed, _record_attempt,
        )
    elif pending:
        _run_pool(
            pending, jobs, timeout, hard_timeout, max_attempts, backoff,
            rng, breaker, stop, _computed, _failed, _record_attempt,
        )

    # A stop-event abort leaves cells unresolved; record them so every
    # input cell still maps to an outcome.
    aborted = False
    for cell, key in ordered:
        if key not in outcomes:
            aborted = True
            _failed(
                cell, key, STATUS_FAILED,
                CellError("Aborted", "harness", "run stopped before this cell resolved"),
                0,
            )
    if report is not None:
        report.breakers = breaker.snapshot()
        report.aborted = aborted

    return [outcomes[key] for _, key in ordered]


def _run_serial(
    pending: list[tuple[Cell, str]],
    max_attempts: int,
    backoff: float,
    rng: random.Random,
    breaker: CircuitBreaker,
    stop: threading.Event | None,
    _computed: Callable,
    _failed: Callable,
    _record_attempt: Callable[[str, float], None],
) -> None:
    """Inline execution with the same retry/error-capture semantics.

    In-process execution cannot survive a worker crash or enforce a
    wall-clock timeout — callers needing those guarantees set
    ``timeout`` or ``jobs > 1`` to get process isolation.  A memory-only
    :class:`HeartbeatWriter` still collects progress so failed outcomes
    carry the same ``progress`` doc as pooled ones.
    """
    for cell, key in pending:
        if stop is not None and stop.is_set():
            return
        family = _family(cell)
        if breaker.is_open(family):
            _failed(cell, key, STATUS_FAILED, breaker.skip(family), 0)
            continue
        for attempt in range(1, max_attempts + 1):
            heartbeat = HeartbeatWriter(None)
            set_progress_sink(heartbeat)
            attempt_start = time.perf_counter()
            try:
                result, seconds = compute_cell(cell)
            except Exception as exc:
                _record_attempt(key, time.perf_counter() - attempt_start)
                breaker.record_failure(family)
                if attempt < max_attempts and not breaker.is_open(family):
                    _pause(stop, _backoff_delay(attempt, backoff, rng))
                    if stop is not None and stop.is_set():
                        return
                    continue
                _failed(
                    cell, key, STATUS_FAILED,
                    CellError.from_exception(exc), attempt,
                    progress_summary(heartbeat.fields),
                )
            else:
                _record_attempt(key, seconds)
                breaker.record_success(family)
                # normalize through the dict round trip so serial results
                # are representationally identical to pooled/cached ones
                _computed(
                    cell, key,
                    result_from_dict(result_to_dict(result)),
                    seconds, attempt,
                )
            finally:
                set_progress_sink(None)
            break


@dataclass(eq=False, slots=True)
class _Flight:
    """One submitted attempt and its watchdog state."""

    cell: Cell
    key: str
    attempt: int
    #: Watchdog deadline; extended on heartbeat change. ``None`` = no timeout.
    soft_deadline: float | None
    #: Absolute ceiling (submit + hard_timeout); never extended.
    hard_deadline: float | None
    hb_path: str
    #: ``time.monotonic()`` at submission — attempt wall clock for
    #: failure paths where the worker never reported a duration.
    submitted: float = 0.0
    #: Raw bytes of the heartbeat at the last watchdog look.
    last_sig: bytes | None = None


def _run_pool(
    pending: list[tuple[Cell, str]],
    jobs: int,
    timeout: float | None,
    hard_timeout: float | None,
    max_attempts: int,
    backoff: float,
    rng: random.Random,
    breaker: CircuitBreaker,
    stop: threading.Event | None,
    _computed: Callable,
    _failed: Callable,
    _record_attempt: Callable[[str, float], None],
) -> None:
    """Fan out over a worker pool, surviving crashes, hangs and errors.

    Submission is throttled to the worker count so a task's submit time
    approximates its start time, making per-cell deadlines meaningful.
    Each flight gets a private heartbeat file; the watchdog extends a
    flight's soft deadline whenever the file's bytes changed since the
    last look, so ``timeout`` bounds *stall time*, not total runtime
    (``hard_timeout`` bounds that).
    """
    # (cell, key, attempt, not_before): ready-to-run work items
    queue: deque[tuple[Cell, str, int, float]] = deque(
        (cell, key, 1, 0.0) for cell, key in pending
    )
    workers_limit = max(1, min(jobs, len(pending)))
    pool: ProcessPoolExecutor | None = None
    pool_breaks = 0
    inflight: dict[object, _Flight] = {}
    # REPRO_HB_DIR pins the heartbeat directory to a known location and
    # keeps it after the run, so CI can upload the beats of a failed
    # sweep as an artifact; unset, heartbeats live in a private temp dir
    # removed on exit.
    hb_root = os.environ.get("REPRO_HB_DIR") or None
    if hb_root:
        os.makedirs(hb_root, exist_ok=True)
    hb_dir = tempfile.mkdtemp(prefix="repro-hb-", dir=hb_root)
    hb_counter = 0

    def _flight_progress(flight: _Flight) -> dict | None:
        _sig, fields = read_heartbeat(flight.hb_path)
        return progress_summary(fields)

    def _requeue(
        flight: _Flight, error: CellError, status: str,
        progress_doc: dict | None = None,
    ) -> None:
        """Retry a failed attempt or record the final failure.

        Every charged failure feeds the family's circuit breaker; once
        it opens, remaining retries are pointless and the cell records
        its real error immediately.
        """
        family = _family(flight.cell)
        breaker.record_failure(family)
        if flight.attempt < max_attempts and not breaker.is_open(family):
            queue.append(
                (flight.cell, flight.key, flight.attempt + 1,
                 time.monotonic() + _backoff_delay(flight.attempt, backoff, rng))
            )
        else:
            _failed(
                flight.cell, flight.key, status, error, flight.attempt,
                progress_doc,
            )

    def _handle_break() -> None:
        """The pool died under us: every in-flight cell is a suspect.

        A ``BrokenProcessPool`` carries no attribution, so a cell is
        only *charged* an attempt when it was the lone in-flight cell
        (then the dead worker must have been running it).  Ambiguous
        breaks requeue every suspect uncharged; repeated breaks drop to
        single-worker isolation, where the next break attributes — and
        charges — exactly one cell.  Innocent siblings of a crashing
        cell therefore never exhaust their attempts by association.
        """
        nonlocal pool, pool_breaks
        pool_breaks += 1
        suspects = list(inflight.values())
        inflight.clear()
        if pool is not None:
            _kill_pool(pool)
            pool = None
        if len(suspects) == 1:
            flight = suspects[0]
            _record_attempt(flight.key, time.monotonic() - flight.submitted)
            _requeue(
                flight,
                CellError(
                    "BrokenProcessPool", "worker",
                    "worker process died before returning a result",
                ),
                STATUS_FAILED,
                _flight_progress(flight),
            )
        else:
            for flight in suspects:
                queue.append(
                    (flight.cell, flight.key, flight.attempt,
                     time.monotonic() + _backoff_delay(1, backoff, rng))
                )

    clean_exit = False
    try:
        while queue or inflight:
            if stop is not None and stop.is_set():
                return
            # isolation mode: after repeated breakages, run one cell at a
            # time so the next crash attributes to exactly one cell
            workers = 1 if pool_breaks >= _ISOLATE_AFTER_BREAKS else workers_limit
            if pool is None:
                pool = ProcessPoolExecutor(max_workers=workers)

            now = time.monotonic()
            while queue and len(inflight) < workers:
                for _ in range(len(queue)):
                    if queue[0][3] <= now:
                        break
                    queue.rotate(-1)
                else:
                    break  # everything queued is still backing off
                cell, key, attempt, _not_before = queue.popleft()
                family = _family(cell)
                if breaker.is_open(family):
                    # fail fast; attempt - 1 attempts were actually spent
                    _failed(
                        cell, key, STATUS_FAILED, breaker.skip(family),
                        attempt - 1,
                    )
                    continue
                hb_counter += 1
                hb_path = os.path.join(hb_dir, f"{hb_counter}.hb")
                try:
                    future = pool.submit(_pool_worker, (key, cell.as_dict(), hb_path))
                except BrokenProcessPool:
                    queue.appendleft((cell, key, attempt, 0.0))
                    _handle_break()
                    break
                inflight[future] = _Flight(
                    cell, key, attempt,
                    None if timeout is None else now + timeout,
                    None if hard_timeout is None else now + hard_timeout,
                    hb_path,
                    submitted=now,
                )
            if pool is None:
                continue  # pool broke during submission; respawn and retry

            if not inflight:
                if not queue:
                    break  # breaker fail-fasts emptied the queue
                soonest = min(item[3] for item in queue)
                _pause(stop, max(0.0, soonest - time.monotonic()) + 0.005)
                continue

            now = time.monotonic()
            wakeups = [
                flight.soft_deadline
                for flight in inflight.values()
                if flight.soft_deadline is not None
            ]
            wakeups.extend(item[3] for item in queue if item[3] > now)
            wait_timeout = (
                max(0.0, min(wakeups) - now) + 0.01 if wakeups else None
            )
            if stop is not None:
                # poll the stop event even while blocked on slow workers
                wait_timeout = 0.5 if wait_timeout is None else min(wait_timeout, 0.5)
            done, _ = wait(
                set(inflight), timeout=wait_timeout, return_when=FIRST_COMPLETED
            )

            broken = False
            for future in done:
                flight = inflight.pop(future)
                try:
                    _, payload = future.result()
                except BrokenProcessPool:
                    broken = True
                    inflight[future] = flight
                    continue
                except Exception as exc:
                    # e.g. the payload failed to unpickle; a cell-level
                    # failure, not a pool-level one
                    payload = {
                        "ok": False,
                        "error": CellError.from_exception(exc).as_dict(),
                    }
                _record_attempt(
                    flight.key,
                    float(
                        payload.get(
                            "seconds", time.monotonic() - flight.submitted
                        )
                    ),
                )
                if payload["ok"]:
                    breaker.record_success(_family(flight.cell))
                    _computed(
                        flight.cell, flight.key,
                        result_from_dict(payload["result"]),
                        payload["seconds"], flight.attempt,
                    )
                else:
                    _requeue(
                        flight,
                        CellError.from_dict(payload["error"]), STATUS_FAILED,
                        _flight_progress(flight),
                    )
            if broken:
                _handle_break()
                continue

            if timeout is not None:
                now = time.monotonic()
                expired: list[tuple[object, dict, bool]] = []
                for future, flight in inflight.items():
                    if flight.soft_deadline is None or now < flight.soft_deadline:
                        continue
                    sig, fields = read_heartbeat(flight.hb_path)
                    progressing = sig != flight.last_sig
                    within_ceiling = (
                        flight.hard_deadline is None or now < flight.hard_deadline
                    )
                    if progressing and within_ceiling:
                        # the cell moved since the last look: extend the
                        # watchdog, bounded by the hard ceiling
                        flight.last_sig = sig
                        flight.soft_deadline = now + timeout
                        if flight.hard_deadline is not None:
                            flight.soft_deadline = min(
                                flight.soft_deadline, flight.hard_deadline
                            )
                        continue
                    expired.append((future, fields, progressing))
                if expired:
                    for future, fields, progressing in expired:
                        flight = inflight.pop(future)
                        _record_attempt(
                            flight.key, time.monotonic() - flight.submitted
                        )
                        stage = str(fields.get("stage", "unknown"))
                        if progressing:
                            message = (
                                f"cell exceeded the {hard_timeout:g}s hard "
                                "wall-clock ceiling while still progressing"
                            )
                        else:
                            message = (
                                f"cell exceeded {timeout:g}s wall clock "
                                "without heartbeat progress"
                            )
                        _requeue(
                            flight,
                            CellError("Timeout", stage, message),
                            STATUS_TIMEOUT,
                            progress_summary(fields),
                        )
                    # the hung workers still occupy pool slots: kill the
                    # pool and restart the interrupted (innocent) cells
                    # without charging them an attempt
                    for flight in inflight.values():
                        queue.appendleft((flight.cell, flight.key, flight.attempt, 0.0))
                    inflight.clear()
                    _kill_pool(pool)
                    pool = None
        clean_exit = True
    finally:
        if pool is not None:
            if clean_exit:
                pool.shutdown(wait=True, cancel_futures=True)
            else:
                # abnormal exit (stop event, KeyboardInterrupt, internal
                # error): waiting on possibly-hung workers would wedge
                # shutdown, so terminate them
                _kill_pool(pool)
        if not hb_root:
            shutil.rmtree(hb_dir, ignore_errors=True)


def results_by_cell(outcomes: list[CellOutcome]) -> dict[Cell, BenchmarkResult]:
    """Convenience lookup table for the figure/table drivers.

    Raises on any failed outcome: the drivers need every cell, and a
    silent hole in the table would surface as a confusing ``KeyError``
    far from the cause.
    """
    return {outcome.cell: outcome.unwrap() for outcome in outcomes}
