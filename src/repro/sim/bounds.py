"""Sound lower bounds on a trace's simulated cycle count.

Both bounds are computed from the trace and the machine configuration
alone, independently of :mod:`repro.sim.pipeline`, so they check the
simulator from outside: a run that finishes in fewer cycles than either
bound has broken the machine model.

* :func:`resource_bound` — throughput.  Every cycle retires at most
  ``retire_width`` instructions, issues at most ``int_units`` INT-side
  and ``fp_units`` FP-side instructions, and gives INT-side loads and
  stores at most ``ls_ports`` load/store ports.  Needs only the trace's
  per-row occurrence counts, so it is cheap enough for every run of the
  fuzz oracle.
* :func:`dataflow_bound` — the register critical path.  No instruction
  issues before cycle 3 (fetched in cycle 1 at the earliest, dispatched
  a cycle later, issued a cycle after that) or before all of its
  producers have completed; an instruction completes its Table 1 latency
  after issue, with loads taken at their D-cache hit time.  Nothing
  retires before it completes.  One pass over every dependence token,
  so it is kept out of the per-run hot paths and used by tests.

On the Figure 8 traces the resource bound reaches about half to
nine-tenths of the simulated cycles; the dataflow bound is far looser,
because the surrogates' dependence chains are short next to their
instruction counts.
"""

from __future__ import annotations

from collections import Counter

from repro.sim.config import MachineConfig
from repro.trace.pack import LAT_DIV, LAT_LOAD, LAT_MUL, LAT_STORE, PackedTrace

#: earliest issue cycle: fetch in cycle 1, dispatch in 2, issue in 3
FIRST_ISSUE_CYCLE = 3


def _ceil_div(a: int, b: int) -> int:
    return -(-a // b)


def resource_bound(trace: PackedTrace, config: MachineConfig) -> int:
    """``max(ceil(n/retire), ceil(n_int/int_units), ceil(n_fp/fp_units),
    ceil(n_mem/ls_ports))`` with the counts taken from ``trace``.

    ``n_mem`` counts INT-side loads and stores: only those use the INT
    subsystem's load/store ports.
    """
    n = trace.n
    if n == 0:
        return 0
    n_fp = n_mem = 0
    fp_side, row_lat = trace.fp_side, trace.row_lat
    for sid, count in Counter(trace.instr_ids).items():
        if fp_side[sid]:
            n_fp += count
        elif row_lat[sid] == LAT_LOAD or row_lat[sid] == LAT_STORE:
            n_mem += count
    return max(
        _ceil_div(n, config.retire_width),
        _ceil_div(n - n_fp, config.int_units),
        _ceil_div(n_fp, config.fp_units),
        _ceil_div(n_mem, config.ls_ports),
    )


def dataflow_bound(trace: PackedTrace, config: MachineConfig) -> int:
    """The latest completion cycle along register dependences, with
    every instruction issued as early as its producers allow."""
    latency_of = {
        LAT_LOAD: config.dcache.hit_cycles,
        LAT_MUL: config.mul_latency,
        LAT_DIV: config.div_latency,
    }
    row_latency = [latency_of.get(lat, 1) for lat in trace.row_lat]
    roff, rtok = trace.read_offsets, trace.read_tokens
    woff, wtok = trace.write_offsets, trace.write_tokens
    available = [0] * len(trace.token_frames)
    latest = 0
    for seq, sid in enumerate(trace.instr_ids):
        issue = FIRST_ISSUE_CYCLE
        for ti in range(roff[seq], roff[seq + 1]):
            ready = available[rtok[ti]]
            if ready > issue:
                issue = ready
        complete = issue + row_latency[sid]
        for ti in range(woff[seq], woff[seq + 1]):
            available[wtok[ti]] = complete
        if complete > latest:
            latest = complete
    return latest
