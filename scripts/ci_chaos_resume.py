#!/usr/bin/env python
"""CI kill-and-resume scenario: a fig8 sweep survives a SIGKILLed
worker and an always-hanging cell, then gates against the baseline.

Pass 1 (faults injected) runs the full fig8 suite with two injected
disasters:

* ``gcc/advanced`` is killed (``os._exit``) when it reaches the simulate
  stage.  Fault budgets are per process and every attempt runs in a
  fresh worker, so the retry crashes too and the cell fails after its
  two attempts.  The pool must survive the crashes: every other cell
  still finishes ``ok``.
* ``li/basic`` hangs forever at the simulate stage.  The progress-aware
  watchdog must kill it (twice, exhausting its attempts), and the two
  consecutive failures must open the family's circuit breaker, which
  the BENCH document records.

Pass 2 (no faults) resumes the same sweep from the run journal: only
the two failed cells recompute, and the completed document must gate
cleanly against ``benchmarks/baseline.json`` — interrupted-and-resumed
results are bit-identical to healthy ones, which is the whole point.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BASELINE = ROOT / "benchmarks" / "baseline.json"
OUTPUT = "BENCH_fig8_chaos.json"

CRASH_CELL = ("gcc", "advanced")
HANG_CELL = ("li", "basic")


def fail(message: str) -> None:
    print(f"FAIL: {message}", file=sys.stderr)
    raise SystemExit(1)


def bench(*args: str, faults: str | None = None) -> int:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src")
    env.pop("REPRO_FAULTS", None)
    if faults is not None:
        env["REPRO_FAULTS"] = faults
    command = [sys.executable, "-m", "repro", "bench", *args]
    print(f"+ {' '.join(command)}" + (f"  [REPRO_FAULTS={faults}]" if faults else ""))
    return subprocess.run(command, cwd=ROOT, env=env).returncode


def main() -> None:
    faults = (
        f"simulate:crash:match={'/'.join(CRASH_CELL)};"
        f"simulate:hang:secs=3600:match={'/'.join(HANG_CELL)}"
    )

    # -- pass 1: the sweep under fire ----------------------------------
    code = bench(
        "--suite", "fig8", "--jobs", "4",
        "--timeout", "60", "--retries", "1", "--breaker-threshold", "2",
        "--cache-dir", ".repro-bench-cache-chaos",
        "--trace-cache", ".repro-trace-cache-chaos",
        "--output", OUTPUT, "--max-failures", "2",
        faults=faults,
    )
    if code != 0:
        fail(f"chaos pass exited {code}; expected 0 (two tolerated failures)")

    doc = json.loads((ROOT / OUTPUT).read_text())
    ok_cells = {(c["workload"], c["scheme"]) for c in doc["cells"]}
    failures = {(f["workload"], f["scheme"]): f for f in doc["failures"]}

    if set(failures) != {CRASH_CELL, HANG_CELL}:
        fail(f"expected exactly {CRASH_CELL} and {HANG_CELL} to fail, "
             f"got {sorted(failures)}")
    baseline = json.loads(BASELINE.read_text())
    survivors = {(c["workload"], c["scheme"]) for c in baseline["cells"]}
    survivors -= {CRASH_CELL, HANG_CELL}
    if ok_cells != survivors:
        fail(f"cells other than the two faulted ones did not finish ok: "
             f"{sorted(survivors ^ ok_cells)}")

    crashed = failures[CRASH_CELL]
    if crashed["status"] != "failed":
        fail(f"crashed cell recorded as {crashed['status']!r}, expected failed")
    if crashed.get("attempts") != 2:
        fail(f"crashed cell spent {crashed.get('attempts')} attempts, expected 2")
    if crashed["error"]["type"] != "BrokenProcessPool":
        fail(f"crashed cell failed with {crashed['error']['type']!r}, "
             "expected BrokenProcessPool")

    hung = failures[HANG_CELL]
    if hung["status"] != "timeout":
        fail(f"hung cell recorded as {hung['status']!r}, expected timeout")
    if hung.get("attempts") != 2:
        fail(f"hung cell spent {hung.get('attempts')} attempts, expected 2")
    if "progress" not in hung:
        fail("hung cell's failure record carries no progress heartbeat")

    family = "/".join(HANG_CELL)
    breaker = doc.get("breakers", {}).get(family)
    if not breaker or breaker.get("state") != "open":
        fail(f"breaker for {family} not open in the BENCH document: {breaker}")

    print("pass 1 ok: pool survived the crashes, hung family's breaker open")

    # -- pass 2: clean resume, gated against the committed baseline ----
    code = bench(
        "--suite", "fig8", "--jobs", "4", "--resume",
        "--cache-dir", ".repro-bench-cache-chaos",
        "--trace-cache", ".repro-trace-cache-chaos",
        "--output", OUTPUT,
        "--baseline", str(BASELINE), "--tolerance", "10",
    )
    if code != 0:
        fail(f"resume pass exited {code}; resumed sweep did not gate clean")

    doc = json.loads((ROOT / OUTPUT).read_text())
    if doc["failures"]:
        fail(f"resume pass still has failures: {doc['failures']}")
    recomputed = sorted(
        (c["workload"], c["scheme"]) for c in doc["cells"]
        if c["source"] != "journal"
    )
    if recomputed != sorted([CRASH_CELL, HANG_CELL]):
        fail(f"resume pass recomputed {recomputed}; expected only the two "
             "failed cells")
    print("pass 2 ok: resumed sweep complete and within baseline tolerance")


if __name__ == "__main__":
    main()
