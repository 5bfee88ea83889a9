"""Pinned trace captures, and an entry-by-entry oracle for any capture.

``pinned_capture.json`` (next to this file) holds, per cell, the SHA-256 of
the ``repro-trace/1`` encoding of its traced run, the run's dynamic
instruction count, its dynamic mix and — for the smoke matrix — the
``SimStats`` counters on both Table 1 machines.  The values were produced
by the per-entry ``TraceEntry`` capture that preceded direct columnar
capture, so they pin today's capture to the historical byte stream.

Two families of cells:

* the smoke matrix (``repro.bench.matrix``'s smoke suite) prepared by
  :func:`repro.experiments.runner.prepare_program`;
* every fuzz regression (``tests/corpus/regressions/*.mc``) and every
  ``examples/*.mc`` program present when the digests were recorded,
  compiled with the optimizer and prepared under all three schemes by
  :func:`prepare_source` (measured profile for the partitioned schemes,
  then register allocation).  Programs added later are not pinned.

:func:`entry_stream` and :func:`check_operands` restate, independently of
the interpreter, what each dynamic instruction of a capture must record.
"""

from __future__ import annotations

import json
from pathlib import Path

from repro.experiments.runner import SCHEMES, prepare_program
from repro.ir.opcodes import OpKind
from repro.ir.program import Program
from repro.minic.compile import compile_source
from repro.partition.program import partition_program
from repro.regalloc.linear_scan import allocate_program
from repro.runtime.interp import run_program
from repro.runtime.trace import ProgramLayout, Subsystem, TraceEntry
from repro.sim.config import eight_way, four_way

REPO = Path(__file__).resolve().parents[2]
DIGESTS = Path(__file__).with_name("pinned_capture.json")

#: The smoke matrix (mirrors ``repro.bench.matrix``'s smoke suite).
SMOKE = {"compress": 150, "m88ksim": 2}

SMOKE_CELLS = [
    (workload, scale, scheme)
    for workload, scale in sorted(SMOKE.items())
    for scheme in SCHEMES
]

MACHINES = {"4way": four_way, "8way": eight_way}

def smoke_id(workload: str, scale: int, scheme: str) -> str:
    return f"{workload}@{scale}/{scheme}"


def source_id(path: str, scheme: str) -> str:
    return f"{path}/{scheme}"


def prepare_smoke(workload: str, scale: int, scheme: str) -> Program:
    return prepare_program(workload, scheme, scale=scale).program


def prepare_source(path: str, scheme: str) -> Program:
    program = compile_source((REPO / path).read_text(), optimize=True)
    if scheme != "conventional":
        profile = run_program(program).profile
        partition_program(program, scheme, profile=profile)
    allocate_program(program)
    return program


def load_digests() -> dict:
    return json.loads(DIGESTS.read_text())


def entry_stream(program: Program, pack) -> list:
    """Spell a captured trace out as :class:`TraceEntry` objects.

    Each entry's instruction is found from its pc through the program's
    layout.  Re-packing the result with
    :func:`~repro.trace.pack.pack_entries` must give the capture's bytes
    back: direct capture numbers rows and tokens by first appearance,
    exactly as the entry-stream packer does.
    """
    instr_at = ProgramLayout(program).instr_at
    tokens = [pack.token(t) for t in range(len(pack.token_frames))]
    roff, rtok = pack.read_offsets, pack.read_tokens
    woff, wtok = pack.write_offsets, pack.write_tokens
    entries = []
    for i, sid in enumerate(pack.instr_ids):
        mem, taken = pack.mem_addr[i], pack.taken[i]
        entries.append(TraceEntry(
            instr_at[pack.pcs[sid]],
            pack.pcs[sid],
            Subsystem.FP if pack.fp_side[sid] else Subsystem.INT,
            tuple(tokens[t] for t in rtok[roff[i]:roff[i + 1]]),
            tuple(tokens[t] for t in wtok[woff[i]:woff[i + 1]]),
            mem_addr=None if mem < 0 else mem,
            taken=None if taken < 0 else bool(taken),
        ))
    return entries


def check_operands(entries: list) -> None:
    """Every entry's tokens, address and outcome follow from its
    instruction and the call stack.

    Frames are numbered in activation order from 0 (the entry
    function).  An instruction reads ``(frame, name)`` for its register
    uses other than ``$zero``/``$sp`` and writes ``(frame, name)`` for
    its defs, except that ``param`` reads the frame's ``@args``, ``call``
    writes the callee frame's ``@args``, and ``ret`` writes the caller's
    result register (if the call has one) in the caller's frame.
    """
    stack = [(0, None)]  # (frame, the call that created it)
    next_frame = 1
    for index, entry in enumerate(entries):
        instr, kind = entry.instr, entry.instr.kind
        frame = stack[-1][0]
        where = f"entry {index} ({instr.op.value})"
        reads = [
            (frame, r.name) for r in instr.uses if r.name not in ("$zero", "$sp")
        ]
        writes = [(frame, r.name) for r in instr.defs]
        if kind is OpKind.PARAM:
            reads = [(frame, "@args")]
        elif kind is OpKind.CALL:
            writes = [(next_frame, "@args")]
            stack.append((next_frame, instr))
            next_frame += 1
        elif kind is OpKind.RET:
            _, call = stack.pop()
            if stack:
                caller = stack[-1][0]
                writes = [(caller, call.defs[0].name)] if call.defs else []
        assert list(entry.reads) == reads, where
        assert list(entry.writes) == writes, where
        assert (entry.mem_addr is not None) == (
            kind in (OpKind.LOAD, OpKind.STORE)
        ), where
        assert (entry.taken is not None) == (kind is OpKind.BRANCH), where
        fp = Subsystem.FP if instr.info.fp_subsystem else Subsystem.INT
        assert entry.subsystem is fp, where
    assert not stack, "trace ends before the entry function returns"


def mix_of(entries: list) -> dict[str, int]:
    """Dynamic counts by category, counted entry by entry."""
    out = dict.fromkeys(
        ("total", "fp_executed", "loads", "stores", "branches", "copies"), 0
    )
    by_kind = {
        OpKind.LOAD: "loads",
        OpKind.STORE: "stores",
        OpKind.BRANCH: "branches",
        OpKind.COPY: "copies",
    }
    for entry in entries:
        out["total"] += 1
        out["fp_executed"] += entry.subsystem is Subsystem.FP
        if entry.instr.kind in by_kind:
            out[by_kind[entry.instr.kind]] += 1
    return out
