"""Layer spans recorded from outside the program.

A traced benchmark run replaces the names that ``repro.experiments.runner``
and ``repro.gen.fuzz`` import (plus ``TimingSimulator.run`` and
``repro.analysis.certify.certify_partition``) with timing wrappers.  Nothing
under ``src/`` is edited: the wrappers live in this file and are installed
into the already-imported modules of the measuring process only.

Each call becomes one span ``(layer, start, end, parent, item, counts)``
kept in memory; :meth:`Recorder.dump` writes them out once the run ends.
A layer's *self* time is its span time minus the time of the wrapped spans
nested inside it, so the self times of all layers plus the benchmark's own
time (``bench.self_s``) add up to the traced wall time.
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass, field


@dataclass(slots=True)
class Span:
    layer: str
    start: float
    end: float
    parent: int
    item: int | None
    counts: dict[str, int] = field(default_factory=dict)
    child_s: float = 0.0

    @property
    def seconds(self) -> float:
        return self.end - self.start

    @property
    def self_s(self) -> float:
        return self.seconds - self.child_s


def _instructions(result) -> dict[str, int]:
    return {"instructions": result.instructions}


def _packed(result) -> dict[str, int]:
    return {"instructions": result.n}


def _sim(result) -> dict[str, int]:
    return {"instructions": result.retired, "cycles": result.cycles}


class Recorder:
    """In-memory span log for one single-threaded measuring process."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        #: index of the measured item in progress; ``None`` during set-up
        self.item: int | None = None
        self._stack: list[int] = []
        self._undo: list[tuple[object, str, object]] = []

    def _call(self, layer: str, fn, counter, args, kwargs):
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        span = Span(layer, 0.0, 0.0, parent, self.item)
        self.spans.append(span)
        self._stack.append(index)
        span.start = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
        finally:
            span.end = time.perf_counter()
            self._stack.pop()
            if parent >= 0:
                self.spans[parent].child_s += span.seconds
        if counter is not None:
            span.counts = counter(result)
        return result

    def _wrap(self, layer: str, fn, counter=None):
        def wrapper(*args, **kwargs):
            return self._call(layer, fn, counter, args, kwargs)

        wrapper.__wrapped__ = fn
        return wrapper

    def _wrap_run_program(self, fn):
        # one interpreter, two uses: the profiling run and the traced run
        def wrapper(*args, **kwargs):
            layer = "runtime.trace" if kwargs.get("collect_trace") else "runtime.profile"
            return self._call(layer, fn, _instructions, args, kwargs)

        wrapper.__wrapped__ = fn
        return wrapper

    def _patch(self, owner, name: str, replacement) -> None:
        self._undo.append((owner, name, getattr(owner, name)))
        setattr(owner, name, replacement)

    def install(self) -> None:
        """Wrap every layer entry point the benchmark workloads reach."""
        import repro.analysis.certify as certify
        import repro.experiments.runner as runner
        import repro.gen.fuzz as fuzz
        from repro.sim.pipeline import TimingSimulator

        for module in (runner, fuzz):
            self._patch(module, "run_program", self._wrap_run_program(module.run_program))
            self._patch(module, "pack_entries", self._wrap("trace.pack", module.pack_entries, _packed))
            self._patch(module, "allocate_program", self._wrap("regalloc", module.allocate_program))
            self._patch(module, "verify_program", self._wrap("regalloc", module.verify_program))
        self._patch(runner, "compile_workload", self._wrap("minic", runner.compile_workload))
        self._patch(runner, "partition_program", self._wrap("partition", runner.partition_program))
        self._patch(fuzz, "compile_source", self._wrap("minic", fuzz.compile_source))
        self._patch(fuzz, "build_program", self._wrap("gen.build", fuzz.build_program))
        self._patch(fuzz, "lint_program", self._wrap("lint", fuzz.lint_program))
        for name in ("basic_partition", "advanced_partition", "apply_partition"):
            self._patch(fuzz, name, self._wrap("partition", getattr(fuzz, name)))
        # imported inside the calling functions, so the module attribute is
        # what both partition_program and the fuzz oracle pick up
        self._patch(certify, "certify_partition",
                    self._wrap("analysis.certify", certify.certify_partition))
        self._patch(TimingSimulator, "run", self._wrap("sim", TimingSimulator.run, _sim))

    def uninstall(self) -> None:
        while self._undo:
            owner, name, original = self._undo.pop()
            setattr(owner, name, original)

    def by_layer(self) -> dict[str, dict[str, float]]:
        """Per layer: call count, self seconds and summed counts."""
        layers: dict[str, dict[str, float]] = {}
        for span in self.spans:
            row = layers.setdefault(span.layer, {"calls": 0, "self_s": 0.0})
            row["calls"] += 1
            row["self_s"] += span.self_s
            for key, value in span.counts.items():
                row[key] = row.get(key, 0) + value
        return layers

    def covered_s(self) -> float:
        """Wall time inside any wrapped layer (top-level spans)."""
        return sum(span.seconds for span in self.spans if span.parent < 0)

    def dump(self, path, labels: list[str]) -> None:
        """One JSON line per span; ``item`` is the measured item's label."""
        with open(path, "w", encoding="utf-8") as out:
            for span in self.spans:
                out.write(json.dumps({
                    "layer": span.layer,
                    "start": span.start,
                    "end": span.end,
                    "parent": span.parent,
                    "item": "setup" if span.item is None else labels[span.item],
                    "self_s": span.self_s,
                    **span.counts,
                }) + "\n")
