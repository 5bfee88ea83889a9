"""One measuring process of the repo benchmark.

``run.py`` starts this file in a fresh interpreter with every ``REPRO_*``
override removed and ``PYTHONHASHSEED`` pinned, so the bench memo, the
trace pool and the peak RSS all start empty.  The process runs one
workload once -- set-up, the measured items, the output checks -- and
writes a JSON record that ``run.py`` turns into metrics::

    python3 perfbench/worker.py --workload fig8-cold --seed 1 --seconds 30 \\
        --trace 0 --spawned <time.monotonic() at spawn> --out record.json

``--setup-only`` stops after the cheap part of set-up (imports and input
generation) so ``run.py`` can time several cold starts per run.
``--trace 1`` installs the layer wrappers of :mod:`spans` before the
first pipeline call and adds per-layer totals to the record.
"""

from __future__ import annotations

import argparse
import json
import math
import random
import re
import resource
import statistics
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BASELINE = ROOT / "benchmarks" / "baseline.json"

#: Fields of a fig8 cell that must match ``benchmarks/baseline.json``.
CHECKED_FIELDS = ("cycles", "checksum", "dynamic_instructions", "offload_fraction")

#: Host microseconds per dynamic instruction of one cold fig8 cell (profile
#: run + traced run + pack + simulate), measured on the 2-core reference
#: host.  Sizes fig8-cold to ``--seconds``; all 14 cells need ``--seconds 65``.
FIG8_US_PER_INSTR = 23.0

#: machine-sweep programs: the two cheapest surrogates, so one machine
#: config costs about four seconds and a run sees many configs.
SWEEP_PROGRAMS = ("m88ksim", "compress")
SWEEP_SCHEMES = ("conventional", "advanced")
#: Reference-host seconds to run every sweep program on one machine.
SWEEP_CONFIG_S = 3.6
#: Issue windows of the variants (Table 1's machines use 32).
SWEEP_WINDOWS = (8, 16, 64)
SWEEP_INT_UNITS = (1, 2, 3, 4)

#: fuzz-oracle programs are built smaller than ``repro fuzz``'s default,
#: whose per-program time is heavy-tailed (p50 ~2 s, max ~19 s here) and
#: would make a run's time depend on which seeds it drew.
FUZZ_BUILD = dict(max_stmt_depth=2, max_stmts=3, max_helpers=1, max_locals=3)
#: Reference-host seconds per fuzzed program under ``FUZZ_BUILD``.
FUZZ_PROGRAM_S = 0.55
#: A run samples its programs from a pool this many times larger.
FUZZ_POOL = 4
#: Pool seeds of one run are ``seed * FUZZ_SEED_STRIDE + k``: disjoint per seed.
FUZZ_SEED_STRIDE = 1_000_000
_LOOP_BOUND = re.compile(r"(?:for|while) \(.*?< (\d+)")


def geomean(values: list[float]) -> float:
    return math.exp(statistics.fmean(math.log(v) for v in values))


class Items:
    """Timestamps the measured items from outside the program."""

    def __init__(self, recorder) -> None:
        self.rows: list[tuple[str, float, bool]] = []
        self.recorder = recorder
        self._last = 0.0

    def start(self) -> None:
        self._last = time.perf_counter()
        self._label(0)

    def tick(self, label: str, ok: bool) -> None:
        now = time.perf_counter()
        self.rows.append((label, now - self._last, ok))
        self._last = now
        self._label(len(self.rows))

    def _label(self, index: int) -> None:
        if self.recorder is not None:
            self.recorder.item = index


class Workload:
    """One workload: ``prepare`` (imports, inputs), ``capture`` (set-up
    pipeline work), ``measure`` (the timed items), then ``check``."""

    def __init__(self, seed: int, seconds: float) -> None:
        self.seed = seed
        self.seconds = seconds
        self.errors: list[str] = []
        self.retries = 0
        self.violations = 0

    def prepare(self) -> None:
        pass

    def capture(self) -> None:
        pass

    def measure(self, items: Items) -> None:
        raise NotImplementedError

    def check(self) -> None:
        pass

    def simulated(self) -> tuple[float, float]:
        """(mean advanced-scheme FPa fraction, geomean speedup)."""
        raise NotImplementedError


class Fig8Cold(Workload):
    """The cold serial Figure 8 matrix, as ``repro bench --suite fig8
    --jobs 1 --no-cache`` runs it.  The seed is unused: the matrix is the
    paper's."""

    def prepare(self) -> None:
        from repro.bench.harness import run_cells
        from repro.bench.matrix import suite_cells

        self.run_cells = run_cells
        self.expected = json.loads(BASELINE.read_text(encoding="utf-8"))
        self.cells = fig8_cells(suite_cells("fig8"), self.expected, self.seconds)

    def measure(self, items: Items) -> None:
        outcomes = self.run_cells(
            self.cells, jobs=1, cache=None,
            progress=lambda o: items.tick(o.cell.label, o.ok),
        )
        self.results = [o.result for o in outcomes if o.ok]
        self.retries = sum(o.attempts - 1 for o in outcomes)
        self.errors += [f"{o.cell.label}: {o.status}: {o.error}" for o in outcomes if not o.ok]

    def check(self) -> None:
        self.errors += check_fig8(self.results, self.expected)

    def simulated(self) -> tuple[float, float]:
        advanced = {r.name: r for r in self.results if r.scheme == "advanced"}
        basic = {r.name: r for r in self.results if r.scheme == "basic"}
        offload = statistics.fmean(r.offload_fraction for r in advanced.values())
        # no conventional cells in Figure 8: the advanced scheme's speedup
        # over the basic one stands in
        speedup = geomean([basic[n].cycles / r.cycles for n, r in advanced.items()])
        return offload, speedup


def fig8_cells(cells, expected: dict, seconds: float):
    """The Figure 8 programs, taken in the paper's order while their
    estimated cold cost still fits ``seconds`` (at least one).  Both
    schemes of a program always run together."""
    instrs: dict[str, int] = {}
    for doc in expected["cells"]:
        instrs[doc["workload"]] = instrs.get(doc["workload"], 0) + doc["result"]["dynamic_instructions"]
    chosen: list[str] = []
    spent = 0.0
    for name in dict.fromkeys(cell.workload for cell in cells):
        cost = instrs[name] * FIG8_US_PER_INSTR / 1e6
        if not chosen or spent + cost <= seconds:
            chosen.append(name)
            spent += cost
    return [cell for cell in cells if cell.workload in chosen]


def check_fig8(results: list, expected: dict) -> list[str]:
    """Bit-for-bit comparison of 4-way default-scale results against the
    baseline document, checksum agreement across the schemes of each
    program, and retired == traced instructions."""
    errors = []
    reference = {
        (d["workload"], d["scheme"], f'{d["width"]}-way'): d["result"]
        for d in expected["cells"] if d["scale"] is None
    }
    checksums: dict[str, set] = {}
    for result in results:
        label = f"{result.name}/{result.scheme}/{result.machine}"
        want = reference.get((result.name, result.scheme, result.machine))
        if want is None:
            errors.append(f"{label}: no baseline cell")
            continue
        for name in CHECKED_FIELDS:
            if getattr(result, name) != want[name]:
                errors.append(f"{label}: {name} {getattr(result, name)!r} != baseline {want[name]!r}")
        if result.stats.retired != result.dynamic_instructions:
            errors.append(f"{label}: retired {result.stats.retired} != traced {result.dynamic_instructions}")
        checksums.setdefault(result.name, set()).add(result.checksum)
    errors += [f"{name}: checksums differ across schemes: {sorted(values)}"
               for name, values in checksums.items() if len(values) > 1]
    return errors


def sweep_machines(seed: int, seconds: float):
    """``eight_way()``, then Table 1 variants around both machines: issue
    windows 8, 16 and 64 each paired with one of the INT unit counts the
    machine does not have, the pairing drawn from the seed.  Every run
    covers the same window and unit levels, so its cost does not depend
    on the draw.  Sized to ``seconds``, at most seven machines."""
    from repro.sim.config import eight_way, four_way

    rng = random.Random(seed)
    machines = [eight_way()]
    for base, name in ((eight_way, "8-way"), (four_way, "4-way")):
        table1 = base()
        units = [u for u in SWEEP_INT_UNITS if u != table1.int_units]
        rng.shuffle(units)
        machines += [
            base(name=f"{name}-w{window}-i{unit}", int_window=window,
                 fp_window=window, int_units=unit)
            for window, unit in zip(SWEEP_WINDOWS, units)
        ]
    return machines[:max(1, round(seconds / SWEEP_CONFIG_S))]


class MachineSweep(Workload):
    """One trace per program, many machines: Figures 9/10 and the
    window/unit ablations.  The 4-way run of each program captures its
    trace in set-up; every measured config replays it from the pool."""

    def prepare(self) -> None:
        from repro.experiments.runner import run_benchmark
        from repro.sim.config import four_way

        self.run_benchmark = run_benchmark
        self.reference_machine = four_way()
        self.machines = sweep_machines(self.seed, self.seconds)
        self.expected = json.loads(BASELINE.read_text(encoding="utf-8"))
        self.results: list = []

    def _run_all(self, config) -> None:
        for name in SWEEP_PROGRAMS:
            for scheme in SWEEP_SCHEMES:
                self.results.append(self.run_benchmark(name, scheme, config=config))

    def capture(self) -> None:
        self._run_all(self.reference_machine)

    def measure(self, items: Items) -> None:
        # one item per machine: every program and scheme on that config
        for config in self.machines:
            self._run_all(config)
            items.tick(config.name, True)

    def check(self) -> None:
        results = {(r.name, r.scheme, r.machine): r for r in self.results}
        self.errors += check_fig8(
            [results[(name, "advanced", "4-way")] for name in SWEEP_PROGRAMS], self.expected)
        for result in self.results:
            label = f"{result.name}/{result.scheme}/{result.machine}"
            reference = results[(result.name, "conventional", "4-way")]
            if result.checksum != reference.checksum:
                self.errors.append(f"{label}: checksum {result.checksum} != {reference.checksum}")
            if result.stats.retired != result.dynamic_instructions:
                self.errors.append(f"{label}: retired {result.stats.retired} != traced {result.dynamic_instructions}")

    def simulated(self) -> tuple[float, float]:
        results = {(r.name, r.scheme, r.machine): r for r in self.results}
        offload = statistics.fmean(results[(n, "advanced", "4-way")].offload_fraction
                                   for n in SWEEP_PROGRAMS)
        speedup = geomean([
            results[(n, "conventional", m)].cycles / results[(n, "advanced", m)].cycles
            for n in SWEEP_PROGRAMS for m in ("4-way", "8-way")
        ])
        return offload, speedup


def static_cost(source: str) -> float:
    """A cost estimate from the program text alone: each line weighted by
    the trip counts of the loops around it (the printer indents every
    block), plus half a unit per character.  Over 73 programs it explains
    90% of the variance of the oracle's host time."""
    weight = 0
    loops: list[tuple[int, int]] = []  # (indent, trips) of enclosing loops
    for line in source.splitlines():
        indent = len(line) - len(line.lstrip())
        while loops and loops[-1][0] >= indent:
            loops.pop()
        weight += math.prod(trips for _, trips in loops)
        bound = _LOOP_BOUND.search(line)
        if bound:
            loops.append((indent, int(bound.group(1))))
    return weight + len(source) / 2


def fuzz_seeds(seed: int, count: int, build_program, config) -> list[int]:
    """``count`` program seeds: a systematic sample of a seed-drawn pool
    ``FUZZ_POOL`` times larger, ordered by :func:`static_cost`, so every
    run covers the same spread of program sizes."""
    pool = [seed * FUZZ_SEED_STRIDE + k for k in range(count * FUZZ_POOL)]
    ranked = sorted(pool, key=lambda s: static_cost(build_program(s, config)))
    step = len(ranked) / count
    return sorted(ranked[int((k + 0.5) * step)] for k in range(count))


class FuzzOracle(Workload):
    """``fuzz_run`` under the default ``DifferentialOracle``: many small
    random programs, each compiled, linted, partitioned, certified, run and
    simulated under all three schemes."""

    def prepare(self) -> None:
        from repro.gen.build import BuildConfig, build_program
        from repro.gen.fuzz import DifferentialOracle, fuzz_run

        self.fuzz_run = fuzz_run
        self.oracle = DifferentialOracle()
        self.build = BuildConfig(**FUZZ_BUILD)
        count = max(1, round(self.seconds / FUZZ_PROGRAM_S))
        self.seeds = fuzz_seeds(self.seed, count, build_program, self.build)
        self.stats: list = []
        self.cases: list = []

    def measure(self, items: Items) -> None:
        from repro.sim.pipeline import TimingSimulator

        # the oracle keeps no SimStats, so observe them on the way out (no
        # clock reads: one extra call per simulation, traced or not)
        simulate = TimingSimulator.run

        def observed(sim, *args, **kwargs):
            stats = simulate(sim, *args, **kwargs)
            self.stats.append(stats)
            return stats

        TimingSimulator.run = observed

        def on_case(case) -> None:
            self.cases.append((case, self.stats[-3:] if len(self.stats) >= 3 else []))
            self.stats = []
            items.tick(f"fuzz-seed-{case.seed}", case.ok)

        self.seeds_run = sum(
            self.fuzz_run(1, start=seed, oracle=self.oracle, config=self.build,
                          on_case=on_case).seeds_run
            for seed in self.seeds
        )

    def check(self) -> None:
        for case, stats in self.cases:
            self.violations += len(case.violations)
            for violation in case.violations:
                self.errors.append(f"seed {case.seed}: [{violation.kind}] {violation.detail}")
            if len(stats) != 3:
                self.errors.append(f"seed {case.seed}: {len(stats)} simulations, expected 3")
        if self.seeds_run != len(self.seeds):
            self.errors.append(f"ran {self.seeds_run} of {len(self.seeds)} programs")

    def simulated(self) -> tuple[float, float]:
        done = [stats for _, stats in self.cases if len(stats) == 3]
        offload = statistics.fmean(adv.fp_issued / adv.retired for _, _, adv in done)
        speedup = geomean([conv.cycles / adv.cycles for conv, _, adv in done])
        return offload, speedup


WORKLOADS = {"fig8-cold": Fig8Cold, "machine-sweep": MachineSweep, "fuzz-oracle": FuzzOracle}


def run(args) -> dict:
    recorder = None
    if args.trace:
        from spans import Recorder

        recorder = Recorder()
    workload = WORKLOADS[args.workload](args.seed, args.seconds)
    workload.prepare()
    record: dict = {"prepare_s": time.monotonic() - args.spawned}
    if args.setup_only:
        return record

    from repro.bench.harness import clear_memo
    from repro.trace.store import clear_trace_pool, trace_pool

    clear_memo()
    clear_trace_pool()
    if recorder is not None:
        recorder.install()
    items = Items(recorder)
    start = time.perf_counter()
    workload.capture()
    measured = time.perf_counter()
    items.start()
    workload.measure(items)
    end = time.perf_counter()
    if recorder is not None:
        recorder.uninstall()
    workload.check()
    errors = workload.errors
    try:
        offload, speedup = workload.simulated()
    except (KeyError, ValueError, ZeroDivisionError) as exc:
        offload = speedup = 0.0
        errors.append(f"simulated results incomplete: {exc!r}")
    record.update(
        capture_s=measured - start,
        wall_s=end - measured,
        items=items.rows,
        errors=errors,
        offload_frac=offload,
        speedup_geomean=speedup,
        peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        pool=trace_pool().stats(),
        retries=workload.retries,
        violations=workload.violations,
    )
    if recorder is not None:
        record["layers"] = recorder.by_layer()
        record["covered_s"] = recorder.covered_s()
        record["spans"] = len(recorder.spans)
        if args.spans:
            recorder.dump(args.spans, [label for label, _, _ in items.rows])
    return record


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--spawned", type=float, required=True)
    parser.add_argument("--out", required=True)
    parser.add_argument("--spans")
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)
    record = run(args)
    Path(args.out).write_text(json.dumps(record), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
