"""The repo benchmark: three workloads, timed end to end or per layer.

    python3 perfbench/run.py --workload fig8-cold --seed 1 --seconds 30 --trace 0

Run from the root of a checkout.  Every measuring process is a fresh
``worker.py`` interpreter with the ``REPRO_*`` overrides removed and
``PYTHONHASHSEED`` pinned, so caches, the trace pool and peak RSS start
cold.

``--trace 0`` runs two set-up-only cold starts and then the measuring
worker, and reports the end-to-end metrics.  ``--trace 1`` runs the
workload untraced and then again with the layer wrappers of ``spans.py``
installed, and reports the per-layer metrics, including the tracing
overhead (traced minus untraced wall time).

Human-readable lines (host, environment, each metric with its unit and
sample count, and on traced runs the stage split) come first; the last
line of standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.  The exit status is 0 only
when every output check passed.  Run records and span logs are written
under ``perfbench/out/``.  See ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
WORKLOADS = ("fig8-cold", "machine-sweep", "fuzz-oracle")

#: Cold starts per untraced run (the measuring one included); their
#: median is the start-up part of ``setup_s``.
COLD_STARTS = 3
#: Every process of one run ends within this many seconds.
DEADLINE_S = 170.0

#: Per-layer metric -> (layer as recorded by spans.py, field).  ``self_s``
#: is self seconds; ``kips``/``kcycles_per_s`` divide a count by them.
LAYER_METRICS = {
    "runtime.trace_s": ("runtime.trace", "self_s"),
    "runtime.trace_kips": ("runtime.trace", "kips"),
    "runtime.profile_s": ("runtime.profile", "self_s"),
    "runtime.profile_kips": ("runtime.profile", "kips"),
    "runtime.profile_calls": ("runtime.profile", "calls"),
    "trace.pack_s": ("trace.pack", "self_s"),
    "trace.pack_kips": ("trace.pack", "kips"),
    "sim.s": ("sim", "self_s"),
    "sim.kips": ("sim", "kips"),
    "sim.kcycles_per_s": ("sim", "kcycles_per_s"),
    "sim.calls": ("sim", "calls"),
    "lint.s": ("lint", "self_s"),
    "lint.calls": ("lint", "calls"),
    "minic.compile_s": ("minic", "self_s"),
    "minic.calls": ("minic", "calls"),
    "partition.s": ("partition", "self_s"),
    "partition.calls": ("partition", "calls"),
    "analysis.certify_s": ("analysis.certify", "self_s"),
    "regalloc.s": ("regalloc", "self_s"),
    "gen.build_s": ("gen.build", "self_s"),
}


def tail(values: list[float]) -> tuple[float, str]:
    """The highest percentile with at least ten items beyond it, and its
    name; the slowest item when there are fewer than 20 items."""
    ordered = sorted(values)
    n = len(ordered)
    if n < 20:
        return ordered[-1], f"max of {n}"
    rank = n - 10  # 1-based rank with exactly ten items above it
    return ordered[rank - 1], f"p{100 * rank // n}, {n - rank} beyond"


def clean_env() -> tuple[dict[str, str], list[str]]:
    """The inherited environment minus ``REPRO_*``, with the hash seed
    pinned and only this checkout's ``src`` on the import path."""
    scrubbed = sorted(k for k in os.environ if k.startswith("REPRO_"))
    env = {k: v for k, v in os.environ.items() if k not in scrubbed}
    env["PYTHONHASHSEED"] = "0"
    env["PYTHONPATH"] = str(ROOT / "src")
    return env, scrubbed


class Runner:
    def __init__(self, args) -> None:
        self.args = args
        self.deadline = time.monotonic() + DEADLINE_S
        self.env, self.scrubbed = clean_env()
        self.tag = f"{args.workload}-seed{args.seed}"

    def worker(self, name: str, *extra: str) -> dict:
        out = OUT / f"{self.tag}-{name}.json"
        out.unlink(missing_ok=True)
        spawned = time.monotonic()
        remaining = self.deadline - spawned
        if remaining <= 0:
            raise RuntimeError(f"no time left for the {name} process")
        command = [
            sys.executable, str(HERE / "worker.py"),
            "--workload", self.args.workload, "--seed", str(self.args.seed),
            "--seconds", str(self.args.seconds), "--spawned", repr(spawned),
            "--out", str(out), *extra,
        ]
        try:
            proc = subprocess.run(command, cwd=ROOT, env=self.env, capture_output=True,
                                  text=True, timeout=remaining)
        except subprocess.TimeoutExpired:
            raise RuntimeError(f"{name} process passed the {DEADLINE_S:.0f} s deadline") from None
        if proc.returncode != 0 or not out.exists():
            raise RuntimeError(f"{name} process exited {proc.returncode}:\n{proc.stderr[-4000:]}")
        return json.loads(out.read_text(encoding="utf-8"))

    def host(self) -> dict:
        return {
            "nproc": os.cpu_count(),
            "python": platform.python_version(),
            "platform": platform.platform(),
            "env": {"PYTHONHASHSEED": self.env["PYTHONHASHSEED"],
                    "PYTHONPATH": "src", "scrubbed": self.scrubbed},
        }


def end_to_end(runner: Runner) -> tuple[dict, dict, list[str]]:
    starts = [runner.worker(f"start{k}", "--setup-only")["prepare_s"]
              for k in range(COLD_STARTS - 1)]
    record = runner.worker("measure")
    starts.append(record["prepare_s"])
    seconds = [s for _, s, _ in record["items"]]
    attempted = len(seconds)
    failed = sum(1 for _, _, ok in record["items"] if not ok)
    tail_s, tail_name = tail(seconds)
    values = {
        "setup_s": (statistics.median(starts) + record["capture_s"],
                    f"median of {len(starts)} cold starts + {record['capture_s']:.3f} s trace capture"),
        "wall_s": (record["wall_s"], f"{attempted} items"),
        "item_p50_s": (statistics.median(seconds), f"n={attempted}"),
        "item_tail_s": (tail_s, tail_name),
        "peak_rss_mb": (record["peak_rss_mb"], "measuring process"),
        "ok_frac": ((attempted - failed) / attempted, f"{failed} of {attempted} failed"),
        "offload_frac": (record["offload_frac"], "advanced scheme"),
        "speedup_geomean": (record["speedup_geomean"], "simulated cycles"),
    }
    return values, {"attempted": attempted, "failed": failed}, record["errors"]


def per_layer(runner: Runner) -> tuple[dict, dict, list[str], dict]:
    plain = runner.worker("untraced")
    spans = OUT / f"{runner.tag}-spans.jsonl"
    record = runner.worker("traced", "--trace", "1", "--spans", str(spans))
    layers = record["layers"]
    traced_s = record["capture_s"] + record["wall_s"]
    values = {}
    for metric, (layer, field) in LAYER_METRICS.items():
        row = layers.get(layer, {})
        busy = row.get("self_s", 0.0)
        if field == "kips":
            value = row.get("instructions", 0) / busy / 1e3 if busy else 0.0
        elif field == "kcycles_per_s":
            value = row.get("cycles", 0) / busy / 1e3 if busy else 0.0
        else:
            value = row.get(field, 0)
        values[metric] = (value, f"{row.get('calls', 0)} calls")
    pool = record["pool"]
    values.update({
        "trace.pool_hits": (pool["hits"], "trace_pool().stats()"),
        "trace.pool_misses": (pool["misses"], "trace_pool().stats()"),
        "trace.pool_hit_rate": (pool["hit_rate"], f"{pool['hits'] + pool['misses']} lookups"),
        "bench.self_s": (traced_s - record["covered_s"], "traced time outside every layer"),
        "bench.retries": (record["retries"], "extra attempts"),
        "bench.trace_overhead_s": (record["wall_s"] - plain["wall_s"],
                                   f"traced {record['wall_s']:.3f} s - untraced {plain['wall_s']:.3f} s"),
        "gen.violations": (record["violations"], "oracle violations"),
    })
    attempted = len(record["items"])
    failed = sum(1 for _, _, ok in record["items"] if not ok)
    split = {layer: row["self_s"] for layer, row in layers.items()}
    split["bench"] = values["bench.self_s"][0]
    return values, {"attempted": attempted, "failed": failed}, plain["errors"] + record["errors"], {
        "traced_s": traced_s, "split": split, "spans": record["spans"]}


def units() -> dict[str, str]:
    """Metric name -> unit, as ``BENCHMARK.json`` declares them."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    missing = [p for p in (ROOT / "src" / "repro" / "__init__.py",
                           ROOT / "benchmarks" / "baseline.json") if not p.is_file()]
    if missing:
        print(f"perfbench: not a repro checkout, missing {', '.join(map(str, missing))}",
              file=sys.stderr)
        return 2
    OUT.mkdir(exist_ok=True)
    runner = Runner(args)
    host = runner.host()
    print(f"perfbench {args.workload} seed={args.seed} seconds={args.seconds} trace={args.trace}")
    print(f"host: nproc={host['nproc']} python={host['python']} {host['platform']}")
    print(f"env: PYTHONHASHSEED=0 PYTHONPATH=src scrubbed={host['env']['scrubbed'] or 'none'}")
    try:
        if args.trace:
            values, counts, errors, extra = per_layer(runner)
        else:
            (values, counts, errors), extra = end_to_end(runner), {}
    except RuntimeError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    unit = units()
    for name, (value, note) in values.items():
        print(f"  {name:24s} {value:14.6f} {unit[name]:9s} ({note})")
    if extra:
        print(f"stage split of {extra['traced_s']:.3f} s traced ({extra['spans']} spans):")
        for layer, seconds in sorted(extra["split"].items(), key=lambda kv: -kv[1]):
            print(f"  {layer:18s} {seconds:10.3f} s {100 * seconds / extra['traced_s']:6.1f}%")
    for error in errors:
        print(f"CHECK FAILED: {error}")
    result = {
        "correct": not errors and counts["failed"] == 0,
        "attempted": counts["attempted"],
        "failed": counts["failed"],
        "metrics": {name: {"value": value, "unit": unit[name]} for name, (value, _) in values.items()},
    }
    (OUT / f"{runner.tag}-trace{args.trace}.json").write_text(
        json.dumps({"host": host, "errors": errors, **result}, indent=1), encoding="utf-8")
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
