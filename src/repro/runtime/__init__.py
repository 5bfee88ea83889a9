"""Functional simulation: interpreter, profiler, dynamic traces.

The interpreter executes IR programs with full MIPS-like semantics
(32-bit wrapping integer arithmetic, byte/word memory, explicit-operand
calls).  It produces:

* the program's result value,
* a basic-block :class:`~repro.partition.cost.ExecutionProfile` (the
  input to the advanced scheme's cost model), and
* optionally the dynamic instruction trace consumed by the timing
  simulator, captured directly as a columnar
  :class:`~repro.trace.pack.PackedTrace` — per dynamic instruction its
  laid-out PC, the memory address touched, the branch outcome, and
  dependence tokens that uniquely name register instances across
  activations.
"""

from repro.runtime.state import Memory, MachineState
from repro.runtime.interp import Interpreter, RunResult, run_program
from repro.runtime.trace import TraceEntry, ProgramLayout, Subsystem

__all__ = [
    "Memory",
    "MachineState",
    "Interpreter",
    "RunResult",
    "run_program",
    "TraceEntry",
    "ProgramLayout",
    "Subsystem",
]
