"""Self-test of the benchmark at tiny size (under a minute).

    python3 perfbench/selftest.py

Run from the root of a checkout.  It checks that

1. every workload, untraced and traced at ``--seconds 1``, emits each
   metric ``BENCHMARK.json`` names, with that unit, and passes its checks;
2. the fig8 output check accepts the baseline document's own results and
   rejects them once one expected value is made wrong;
3. on every traced run, the layer self times recomputed from the written
   span log plus ``bench.self_s`` add up to the traced wall time.

Exits 1 at the first failure.
"""

from __future__ import annotations

import copy
import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

import run  # noqa: E402
import worker  # noqa: E402


def fail(message: str) -> None:
    print(f"selftest FAILED: {message}")
    sys.exit(1)


def metrics_emitted(spec: dict) -> None:
    for workload in run.WORKLOADS:
        for trace, section in ((0, "end_to_end"), (1, "per_layer")):
            command = [sys.executable, str(HERE / "run.py"), "--workload", workload,
                       "--seed", "7", "--seconds", "1", "--trace", str(trace)]
            proc = subprocess.run(command, cwd=ROOT, capture_output=True, text=True, timeout=180)
            if proc.returncode != 0:
                fail(f"{workload} trace={trace} exited {proc.returncode}:\n{proc.stdout}{proc.stderr}")
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            if sorted(result) != ["attempted", "correct", "failed", "metrics"] or not result["correct"]:
                fail(f"{workload} trace={trace}: bad result line {result}")
            want = {m["name"]: m["unit"] for m in spec[section]}
            got = {name: m["unit"] for name, m in result["metrics"].items()}
            if got != want:
                fail(f"{workload} trace={trace}: metrics {got} != BENCHMARK.json {want}")
            if trace:
                accounts_for_wall(workload, result)
            print(f"ok  {workload} trace={trace}: {len(got)} metrics, {result['attempted']} items")


def accounts_for_wall(workload: str, result: dict) -> None:
    tag = f"{workload}-seed7"
    record = json.loads((run.OUT / f"{tag}-traced.json").read_text(encoding="utf-8"))
    spans = [json.loads(line) for line in
             (run.OUT / f"{tag}-spans.jsonl").read_text(encoding="utf-8").splitlines()]
    child = [0.0] * len(spans)
    for span in spans:
        if span["parent"] >= 0:
            child[span["parent"]] += span["end"] - span["start"]
    layer_self = sum(s["end"] - s["start"] - c for s, c in zip(spans, child))
    wall = record["capture_s"] + record["wall_s"]
    total = layer_self + result["metrics"]["bench.self_s"]["value"]
    if abs(total - wall) > 1e-6 * max(1.0, wall):
        fail(f"{workload}: layer self {layer_self:.6f} s + bench.self_s != traced {wall:.6f} s")


def check_rejects_wrong_value() -> None:
    from repro.bench.results import result_from_dict

    expected = json.loads(worker.BASELINE.read_text(encoding="utf-8"))
    results = [result_from_dict(cell["result"]) for cell in expected["cells"]]
    if worker.check_fig8(results, expected):
        fail("fig8 check rejects the baseline's own results")
    for field in worker.CHECKED_FIELDS:
        wrong = copy.deepcopy(expected)
        value = wrong["cells"][3]["result"][field]
        wrong["cells"][3]["result"][field] = value * 2 + 1
        errors = worker.check_fig8(results, wrong)
        if len(errors) != 1 or field not in errors[0]:
            fail(f"fig8 check missed a wrong expected {field}: {errors}")
    print(f"ok  fig8 check rejects a wrong expected value in each of {worker.CHECKED_FIELDS}")


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    check_rejects_wrong_value()
    metrics_emitted(spec)
    print("selftest passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
