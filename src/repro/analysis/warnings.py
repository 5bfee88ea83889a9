"""Compiler warnings derived from the abstract-interpretation engine.

Two classes of findings, both advisory (they never fail compilation):

* **Unreachable blocks** — either plain CFG unreachability (no path of
  edges from entry) or the strictly stronger *interval-proved* kind: the
  block is CFG-reachable, but every path into it crosses a branch edge
  whose direction the value analysis proves infeasible
  (``analyze_values``' per-edge refinement returned ``None`` on every
  incoming feasible path).
* **Fuel-unbounded loops** — natural loops with no exit edge at all, or
  whose every exit edge is interval-proved infeasible.  Such loops can
  only terminate by exhausting the simulator's fuel, which the
  bench runner treats as a fault; flagging them statically turns
  a late runtime failure into an early compile-time warning.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

from repro.analysis.loops import find_loops
from repro.analysis.valueclass import ValueClassResult, analyze_values
from repro.ir.cfg import reachable_blocks, successor_map
from repro.ir.function import Function
from repro.ir.program import Program


@dataclass(frozen=True, slots=True)
class AnalysisWarning:
    """One advisory finding.

    ``kind`` is machine-readable (``unreachable-block`` or
    ``unbounded-loop``); ``message`` is the human-readable detail.
    """

    kind: str
    function: str
    block: str
    message: str

    def sort_key(self) -> tuple[str, str, str, str]:
        return (self.function, self.block, self.kind, self.message)

    def to_dict(self) -> dict[str, str]:
        return {
            "kind": self.kind,
            "function": self.function,
            "block": self.block,
            "message": self.message,
        }

    def render(self) -> str:
        return f"warning: {self.kind}: {self.function}:{self.block}: {self.message}"


def _unreachable_warnings(
    func: Function, values: ValueClassResult
) -> Iterable[AnalysisWarning]:
    cfg_reachable = reachable_blocks(func)
    for blk in func.blocks:
        if blk.label == func.entry.label:
            continue
        if blk.label not in cfg_reachable:
            yield AnalysisWarning(
                kind="unreachable-block",
                function=func.name,
                block=blk.label,
                message="no control-flow path from entry reaches this block",
            )
        elif not values.reachable(blk.label):
            yield AnalysisWarning(
                kind="unreachable-block",
                function=func.name,
                block=blk.label,
                message=(
                    "value analysis proves every branch into this block "
                    "infeasible (dead under the computed value ranges)"
                ),
            )


def _unbounded_loop_warnings(
    func: Function, values: ValueClassResult
) -> Iterable[AnalysisWarning]:
    succ = successor_map(func)
    blocks = {blk.label: blk for blk in func.blocks}
    for loop in find_loops(func):
        if not values.reachable(loop.header):
            continue  # already reported as unreachable
        exits = [
            (src, dst)
            for src in loop.body
            for dst in succ[src]
            if dst not in loop.body
        ]
        if not exits:
            yield AnalysisWarning(
                kind="unbounded-loop",
                function=func.name,
                block=loop.header,
                message=(
                    f"loop with {len(loop.body)} block(s) has no exit edge; "
                    "it can only terminate by exhausting simulation fuel"
                ),
            )
            continue
        feasible = False
        for src, dst in exits:
            out = values.fixpoint.out_states.get(src)
            if out is None:
                continue
            if values.domain.transfer_edge(func, blocks[src], dst, out) is not None:
                feasible = True
                break
        if not feasible:
            yield AnalysisWarning(
                kind="unbounded-loop",
                function=func.name,
                block=loop.header,
                message=(
                    "value analysis proves every loop-exit branch "
                    "infeasible; the loop cannot terminate normally"
                ),
            )


def analyze_function(func: Function) -> list[AnalysisWarning]:
    """All advisory warnings for one function, deterministically ordered."""
    values = analyze_values(func)
    warnings = list(_unreachable_warnings(func, values))
    warnings.extend(_unbounded_loop_warnings(func, values))
    warnings.sort(key=AnalysisWarning.sort_key)
    return warnings


def analyze_program(program: Program) -> list[AnalysisWarning]:
    """All advisory warnings for a program, in function-definition order
    (each function's findings internally sorted)."""
    warnings: list[AnalysisWarning] = []
    for func in program.functions.values():
        warnings.extend(analyze_function(func))
    return warnings
