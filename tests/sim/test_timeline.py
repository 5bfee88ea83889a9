"""Tests for pipeline timeline recording and rendering."""

from pathlib import Path

import pytest

from repro.errors import TracePackError

from repro.ir.parser import parse_program
from repro.runtime.interp import run_program
from repro.sim.config import four_way
from repro.sim.timeline import render_timeline, simulate_with_timeline


@pytest.fixture
def small_program():
    return parse_program(
        """
global g 16

func main(0) {
entry:
  v0 = li @g
  v1 = li 5
  sw v1, v0, 0
  v2 = lw v0, 0
  v3 = addiu v2, 1
  v4 = mult v3, v3
  sw v4, v0, 4
  ret
}
"""
    )


@pytest.fixture
def small_trace(small_program):
    return run_program(small_program, collect_trace=True).trace


class TestRecording:
    def test_timeline_covers_every_instruction(self, small_program, small_trace):
        stats, timeline = simulate_with_timeline(small_program, small_trace, four_way())
        assert len(timeline) == small_trace.n
        assert stats.retired == small_trace.n

    def test_stage_ordering_invariants(self, small_program, small_trace):
        _, timeline = simulate_with_timeline(small_program, small_trace, four_way())
        for dyn in timeline:
            assert 0 < dyn.fetched_at <= dyn.dispatched_at
            assert dyn.dispatched_at < dyn.issued_at  # dispatch->issue takes a cycle
            assert dyn.issued_at < dyn.complete
            assert dyn.complete <= dyn.retired_at

    def test_retirement_in_program_order(self, small_program, small_trace):
        _, timeline = simulate_with_timeline(small_program, small_trace, four_way())
        retire_cycles = [dyn.retired_at for dyn in timeline]
        assert retire_cycles == sorted(retire_cycles)

    def test_multiply_latency_visible(self, small_program, small_trace):
        _, timeline = simulate_with_timeline(small_program, small_trace, four_way())
        mult = next(d for d in timeline if d.instr.op.value == "mult")
        assert mult.complete - mult.issued_at == 6

    def test_dependent_load_waits_for_store(self, small_program, small_trace):
        _, timeline = simulate_with_timeline(small_program, small_trace, four_way())
        store = next(d for d in timeline if d.instr.op.value == "sw")
        load = next(d for d in timeline if d.instr.op.value == "lw")
        assert load.issued_at > store.issued_at

    def test_not_recorded_by_default(self, small_trace):
        from repro.sim.pipeline import TimingSimulator

        sim = TimingSimulator(four_way())
        sim.run(small_trace)
        assert sim.timeline == []


class TestRendering:
    def test_render_contains_stage_letters(self, small_program, small_trace):
        _, timeline = simulate_with_timeline(small_program, small_trace, four_way())
        text = render_timeline(timeline)
        for letter in "FDICR":
            assert letter in text
        assert "mult" in text

    def test_render_empty(self):
        assert "empty" in render_timeline([])

    def test_render_truncates(self, small_program, small_trace):
        _, timeline = simulate_with_timeline(small_program, small_trace, four_way())
        text = render_timeline(timeline, max_instructions=2)
        assert "more instructions" in text


class TestLabels:
    def test_rows_are_labelled_by_pc(self, small_program, small_trace):
        _, timeline = simulate_with_timeline(small_program, small_trace, four_way())
        ops = [row.instr.op.value for row in timeline]
        assert ops == ["li", "li", "sw", "lw", "addiu", "mult", "sw", "ret"]

    def test_foreign_program_is_rejected(self, small_trace):
        other = parse_program("func main(0) {\nentry:\n  ret\n}\n")
        with pytest.raises(TracePackError, match="does not match program"):
            simulate_with_timeline(other, small_trace, four_way())

    def test_cli_timeline_output_is_pinned(self, capsys):
        """``repro simulate --timeline 12`` on examples/lcg.mc, as printed
        before the trace was captured as columns."""
        from repro.__main__ import main

        repo = Path(__file__).resolve().parents[2]
        assert main(["simulate", "--timeline", "12", str(repo / "examples/lcg.mc")]) == 0
        expected = (Path(__file__).with_name("lcg_timeline12.txt")).read_text()
        assert capsys.readouterr().out == expected
