"""Worker heartbeats: the supervisor's window into a busy cell.

A pool worker installs a :class:`HeartbeatWriter` as its process's
progress sink (:mod:`repro.progress`), so the pipeline's periodic
``report_progress`` calls — interpreter instruction counts, simulator
cycle/retire counters, stage transitions — accumulate
into one small JSON file the supervising parent can read from outside
the process.  The parent's watchdog does not parse trends; it only asks
*"did the heartbeat change since I last looked?"* — any change is
progress, no change past the soft deadline is a stall.

Writes are throttled (wall clock) and atomic (tmp + rename, no fsync —
losing the last beat to a crash is harmless), so the hot simulation
loop pays a dict merge per report and an actual write at most a few
times per second.  Reads are defensive: a missing or torn file reads
as "no heartbeat yet".
"""

from __future__ import annotations

import json
import os
import time

from repro.ioutil import atomic_write_bytes

#: Minimum wall-clock seconds between actual file writes.
WRITE_INTERVAL = 0.2

#: Progress fields surfaced into failure reports, in display order.
PROGRESS_FIELDS = (
    "stage",
    "executed",
    "cycles",
    "retired",
)


class HeartbeatWriter:
    """A :class:`~repro.progress.ProgressSink` backed by one file.

    With ``path=None`` the writer is memory-only (the serial harness
    path uses this to capture progress without any file traffic).
    """

    def __init__(self, path: str | os.PathLike | None) -> None:
        self.path = None if path is None else os.fspath(path)
        self.fields: dict = {}
        self.beats = 0
        self._dirty = False
        self._last_write = 0.0

    def update(self, **fields) -> None:
        for key, value in fields.items():
            if self.fields.get(key) != value:
                self.fields[key] = value
                self._dirty = True
        if not self._dirty:
            return
        now = time.monotonic()
        if self.path is not None and now - self._last_write >= WRITE_INTERVAL:
            self.flush(now)

    def flush(self, now: float | None = None) -> None:
        """Force the current fields out to the file (crash-atomic)."""
        if self.path is None or not self._dirty:
            self._dirty = False
            return
        self.beats += 1
        doc = {"beat": self.beats, "fields": self.fields}
        data = json.dumps(doc, sort_keys=True).encode("utf-8")
        try:
            atomic_write_bytes(self.path, data, fsync=False)
        except OSError:
            return  # heartbeats are advisory; never fail the cell
        self._dirty = False
        self._last_write = time.monotonic() if now is None else now


def read_heartbeat(path: str | os.PathLike) -> tuple[bytes | None, dict]:
    """The raw signature and parsed fields of a heartbeat file.

    Returns ``(None, {})`` when the file does not exist (or cannot be
    read — the worker may have died mid-everything).  The signature is
    the raw bytes: the watchdog compares it against the previous read,
    and *any* difference counts as progress.
    """
    try:
        with open(path, "rb") as handle:
            data = handle.read()
    except OSError:
        return None, {}
    try:
        doc = json.loads(data.decode("utf-8"))
        fields = doc.get("fields")
        if not isinstance(fields, dict):
            fields = {}
    except (UnicodeDecodeError, json.JSONDecodeError, ValueError):
        fields = {}
    return data, fields


def progress_summary(fields: dict) -> dict | None:
    """Reduce heartbeat fields to the failure-report ``progress`` doc.

    Keeps the known counters (see :data:`PROGRESS_FIELDS`).  Returns
    ``None`` when the worker never reported anything.
    """
    if not fields:
        return None
    return {key: fields[key] for key in PROGRESS_FIELDS if key in fields}
