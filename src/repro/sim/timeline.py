"""Pipeline timeline rendering.

With ``TimingSimulator(config, record_timeline=True)`` the simulator
records fetch/dispatch/issue/complete/retire cycles per instruction, in
trace order, as the run goes (the same engine as every other run; the
cycles are kept only when the flag is set);
:func:`simulate_with_timeline` labels them with the program's
instructions and :func:`render_timeline` draws the classic pipeline diagram::

    cycle          1234567890
    addu  v1,...   FDIC.R
    lw    v2,...   FDI..CR
    bne   ...      F.DIC..R

Letters: F fetched, D dispatched, I issued, C completed, R retired;
dots are in-flight wait cycles.  Intended for small traces — examples,
debugging, teaching — not for benchmark-sized runs.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import TracePackError
from repro.ir.instructions import Instruction
from repro.ir.printer import print_instruction
from repro.ir.program import Program
from repro.runtime.trace import ProgramLayout
from repro.sim.config import MachineConfig
from repro.sim.pipeline import TimingSimulator
from repro.sim.stats import SimStats
from repro.trace.pack import PackedTrace


@dataclass(frozen=True, slots=True)
class TimelineRow:
    """Stage cycles of one dynamic instruction (-1 = never reached)."""

    instr: Instruction
    fetched_at: int
    dispatched_at: int
    issued_at: int
    complete: int | None
    retired_at: int


def simulate_with_timeline(
    program: Program,
    trace: PackedTrace,
    config: MachineConfig,
    perfect_branches: bool = False,
) -> tuple[SimStats, list[TimelineRow]]:
    """Run a trace of ``program`` recording per-instruction stage cycles.

    Returns ``(stats, timeline)``, one :class:`TimelineRow` per fetched
    instruction; each row's instruction is found from its pc through the
    program's layout.
    """
    simulator = TimingSimulator(
        config, perfect_branches=perfect_branches, record_timeline=True
    )
    stats = simulator.run(trace)
    instr_at = ProgramLayout(program).instr_at
    rows = []
    for seq, cycles in enumerate(simulator.timeline):
        pc = trace.pcs[trace.instr_ids[seq]]
        instr = instr_at.get(pc)
        if instr is None:
            raise TracePackError(
                f"packed trace does not match program: no instruction "
                f"at pc {pc:#x}"
            )
        rows.append(TimelineRow(instr, *cycles))
    return stats, rows


def render_timeline(
    timeline: list[TimelineRow], max_instructions: int = 40, width: int = 64
) -> str:
    """Render recorded stage timestamps as a text pipeline diagram."""
    if not timeline:
        return "(empty timeline)"
    shown = timeline[:max_instructions]
    first = min(dyn.fetched_at for dyn in shown if dyn.fetched_at >= 0)
    last = max(dyn.retired_at for dyn in shown if dyn.retired_at >= 0)
    span = min(last - first + 1, width)

    label_width = 28
    header = " " * label_width + "".join(
        str((first + i) % 10) for i in range(span)
    )
    lines = [f"{'cycle %d..%d' % (first, first + span - 1):{label_width}s}", header]

    for dyn in shown:
        text = print_instruction(dyn.instr)
        if len(text) > label_width - 2:
            text = text[: label_width - 3] + "…"
        row = [" "] * span

        def mark(cycle: int, letter: str) -> None:
            index = cycle - first
            if 0 <= index < span:
                row[index] = letter

        start = dyn.fetched_at
        end = dyn.retired_at if dyn.retired_at >= 0 else first + span - 1
        for cycle in range(max(start, first), min(end, first + span - 1) + 1):
            row[cycle - first] = "."
        mark(dyn.fetched_at, "F")
        mark(dyn.dispatched_at, "D")
        mark(dyn.issued_at, "I")
        if dyn.complete is not None:
            mark(dyn.complete, "C")
        mark(dyn.retired_at, "R")
        lines.append(f"{text:{label_width}s}{''.join(row)}")
    if len(timeline) > max_instructions:
        lines.append(f"... ({len(timeline) - max_instructions} more instructions)")
    return "\n".join(lines)
