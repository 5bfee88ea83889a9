"""Trace-driven out-of-order pipeline model.

The model replays a dynamic trace through a superscalar pipeline with the
stage structure of Figure 1: shared fetch/decode, then partitioned INT
and FP(a) subsystems, each with its own issue window and functional
units.  All memory instructions flow through the INT subsystem's
load/store port(s) regardless of which register file their data targets
(``l.s``/``s.s`` included), matching the paper's machine.

Per simulated cycle, in reverse pipeline order:

1. **Retire** — in order from the ROB head, up to the retire width;
   frees rename registers.
2. **Issue** — oldest-first out of each subsystem's window: an entry
   issues when its producers have completed, a functional unit of its
   class is free, and (loads/stores) a load/store port is free.  Loads
   additionally wait until every older in-flight store has computed its
   address, and until any older store to the same word has completed
   (store-to-load data dependence).
3. **Dispatch** — from the fetch buffer into the windows, up to the
   decode width, blocked by window space, the in-flight cap, and free
   rename registers of the destination's register class.
4. **Fetch** — up to the fetch width from the trace, stopping at taken
   control flow; I-cache misses stall fetch; conditional branches are
   predicted with gshare and a misprediction stalls fetch until the
   branch resolves (wrong-path work is not simulated, its cost is the
   fetch bubble — the standard trace-driven approximation).

The engine is event-driven rather than polling, in the style of
SimpleScalar's RUU; the stage order above is what it computes.

* **Wakeup lists.**  Dispatch records, for each read token, the last
  in-flight writer.  A consumer of a writer that has not issued yet goes
  on that writer's waiter list and counts it as pending; a writer that
  already issued only raises the consumer's ready cycle.  Issue fixes a
  writer's completion cycle and wakes its waiters: a waiter whose
  pending count reaches zero is filed under its ready cycle (the
  maximum completion cycle of its producers).
* **Ready queues.**  At the start of each issue stage the entries filed
  under the current cycle move into one min-heap of sequence numbers
  per subsystem, so selection pops oldest-first exactly as a scan of the
  window in program order would.  Memory operations popped while no
  load/store port is left, and loads held back by store ordering, are
  pushed back after the cycle.
* **Store ordering.**  Stores complete one cycle after they issue, so an
  older store can only be incomplete if it has not issued (a deque of
  dispatched stores gives the oldest unissued one) or issued earlier in
  the same cycle (the cycle's issued stores are kept by word).
* **Sequence ranges.**  The fetch buffer is ``[dispatched, fetched)`` and
  the ROB is ``[retired, dispatched)``; per-instruction state lives in
  ring lists indexed by ``seq & mask``, sized to cover every in-flight
  instruction.  ``seq < retired`` means "retired, hence complete".

The loop consumes a :class:`~repro.trace.pack.PackedTrace` — latency
and control classes pre-resolved per static row, dependence tokens as
dense integers.  Interpreter runs capture their trace in that form;
hand-written micro-traces go through
:func:`~repro.trace.pack.pack_entries` first.
"""

from __future__ import annotations

from collections import deque
from heapq import heappop, heappush

from repro.errors import SimulationError
from repro.progress import report_progress
from repro.sim.branch_pred import GSharePredictor, PerfectPredictor
from repro.sim.cache import Cache
from repro.sim.config import MachineConfig
from repro.sim.stats import SimStats
from repro.trace.pack import (
    CTRL_BRANCH,
    CTRL_JUMP,
    LAT_DIV,
    LAT_LOAD,
    LAT_MUL,
    LAT_SINGLE,
    LAT_STORE,
    PackedTrace,
)

#: completion cycle of an instruction that has not issued yet
_NEVER = 1 << 62


class TimingSimulator:
    """Simulates one trace on one machine configuration."""

    def __init__(
        self,
        config: MachineConfig,
        perfect_branches: bool = False,
        record_timeline: bool = False,
    ):
        self.config = config
        self.icache = Cache(config.icache)
        self.dcache = Cache(config.dcache)
        self.perfect_branches = perfect_branches
        if perfect_branches:
            self.predictor = PerfectPredictor(config.predictor)
        else:
            self.predictor = GSharePredictor(config.predictor)
        self.stats = SimStats()
        self.record_timeline = record_timeline
        #: per-instruction stage cycles ``(fetched, dispatched, issued,
        #: complete, retired)`` in trace order, populated when
        #: ``record_timeline`` is set (-1 / None = never reached); see
        #: :mod:`repro.sim.timeline`
        self.timeline: list[tuple[int, int, int, int | None, int]] = []

    def run(
        self,
        trace: PackedTrace,
        max_cycles: int | None = None,
    ) -> SimStats:
        """Replay ``trace``; returns the populated :class:`SimStats`."""
        config = self.config
        stats = self.stats
        n = trace.n
        if n == 0:
            return stats

        # dynamic columns stay arrays; the static-row table is small
        ids = trace.instr_ids
        mem_col = trace.mem_addr
        taken_col = trace.taken
        roff, rtok = trace.read_offsets, trace.read_tokens
        woff, wtok = trace.write_offsets, trace.write_tokens
        row_pc = list(trace.pcs)
        row_fp = list(trace.fp_side)
        row_lat = list(trace.row_lat)
        row_ctrl = list(trace.row_ctrl)
        row_int_defs = list(trace.int_defs)
        row_fp_defs = list(trace.fp_defs)

        fetch_width = config.fetch_width
        fetch_buffer_cap = 2 * fetch_width
        decode_width = config.decode_width
        retire_width = config.retire_width
        int_window_cap = config.int_window
        fp_window_cap = config.fp_window
        max_inflight = config.max_inflight
        int_units = config.int_units
        fp_units = config.fp_units
        ls_ports = config.ls_ports
        mul_latency = config.mul_latency
        div_latency = config.div_latency
        redirect = config.mispredict_redirect

        # per-instruction ring state, indexed by seq & mask
        size = 1
        while size < max_inflight + fetch_buffer_cap + 2:
            size <<= 1
        mask = size - 1
        slot_sid = [0] * size          # static row
        slot_fp = [0] * size           # 1 = FP subsystem
        done = [_NEVER] * size         # completion cycle once issued
        ready_at = [0] * size          # max completion cycle of producers
        pending = [0] * size           # producers not yet issued
        waiters: list[list[int]] = [[] for _ in range(size)]

        last_writer = [-1] * len(trace.token_frames)
        # ready entries by cycle: ``next_ready`` is cycle now+1, the rest
        # are keyed by cycle in ``later``
        next_ready: list[int] = []
        later: dict[int, list[int]] = {}
        int_queue: list[int] = []
        fp_queue: list[int] = []
        stores: deque[int] = deque()  # dispatched stores, oldest first
        wakers: list[int] = []  # slots issued this cycle that have waiters

        record = self.record_timeline
        if record:
            t_fetch = [-1] * n
            t_dispatch = [-1] * n
            t_issue = [-1] * n
            t_done: list[int | None] = [None] * n
            t_retire = [-1] * n

        icache = self.icache
        icache_access = icache.access
        line_shift = config.icache.line_bytes.bit_length() - 1
        last_line = -1
        line_hits = 0
        dcache_access = self.dcache.access
        predict = self.predictor.update
        hit_cycles = config.icache.hit_cycles

        fetched = 0
        dispatched = 0
        reads_at, writes_at = roff[0], woff[0]  # next dispatch's tokens
        retired = 0
        int_occupancy = 0
        fp_occupancy = 0
        fetch_stall_until = 0
        blocking_branch = -1
        free_int = config.rename_int
        free_fp = config.rename_fp
        now = 0
        limit = max_cycles if max_cycles is not None else 200 * n + 10_000

        int_issued_total = fp_issued_total = 0
        loads = stores_issued = 0
        branches = mispredicts = 0
        int_busy = fp_busy = int_idle_fp_busy = 0
        fetch_stalls = dispatch_stalls = 0

        while retired < n:
            if now & 1023 == 0:
                report_progress(cycles=now, retired=retired)
            now += 1
            if now > limit:
                raise SimulationError(
                    f"simulation exceeded {limit} cycles with "
                    f"{retired}/{n} instructions retired"
                )

            # ---- retire ------------------------------------------------
            width = retire_width
            while retired < dispatched and width:
                slot = retired & mask
                if done[slot] > now:
                    break
                sid = slot_sid[slot]
                free_int += row_int_defs[sid]
                free_fp += row_fp_defs[sid]
                if record:
                    t_retire[retired] = now
                retired += 1
                width -= 1

            # ---- issue ---------------------------------------------------
            woken = next_ready
            if later:
                more = later.pop(now, None)
                if more is not None:
                    woken += more
            if woken:
                next_ready = []
                for seq in woken:
                    if slot_fp[seq & mask]:
                        heappush(fp_queue, seq)
                    else:
                        heappush(int_queue, seq)

            int_issued = 0
            if int_queue:
                budget = int_units
                ports = ls_ports
                held: list[int] = []  # memory operations retried next cycle
                store_words: dict[int, int] = {}  # word -> oldest store issued
                while int_queue and budget:
                    seq = heappop(int_queue)
                    slot = seq & mask
                    lat = row_lat[slot_sid[slot]]
                    if lat == LAT_SINGLE:
                        complete = now + 1
                    elif lat == LAT_LOAD:
                        if not ports:
                            held.append(seq)
                            continue
                        while stores:
                            oldest = stores[0]
                            if oldest < retired or done[oldest & mask] != _NEVER:
                                stores.popleft()
                            else:
                                break
                        addr = mem_col[seq]
                        if (stores and stores[0] < seq) or (
                            store_words.get(addr >> 2, seq) < seq
                        ):
                            held.append(seq)
                            continue
                        ports -= 1
                        loads += 1
                        complete = now + dcache_access(addr)
                    elif lat == LAT_STORE:
                        if not ports:
                            held.append(seq)
                            continue
                        ports -= 1
                        stores_issued += 1
                        addr = mem_col[seq]
                        dcache_access(addr)
                        store_words.setdefault(addr >> 2, seq)
                        complete = now + 1
                    elif lat == LAT_MUL:
                        complete = now + mul_latency
                    else:
                        complete = now + div_latency
                    done[slot] = complete
                    budget -= 1
                    int_issued += 1
                    if record:
                        t_issue[seq] = now
                        t_done[seq] = complete
                    if waiters[slot]:
                        wakers.append(slot)
                for seq in held:
                    heappush(int_queue, seq)
                int_occupancy -= int_issued
                int_issued_total += int_issued

            fp_issued = 0
            if fp_queue:
                budget = fp_units
                while fp_queue and budget:
                    seq = heappop(fp_queue)
                    slot = seq & mask
                    lat = row_lat[slot_sid[slot]]
                    if lat == LAT_SINGLE:
                        complete = now + 1
                    elif lat == LAT_MUL:
                        complete = now + mul_latency
                    elif lat == LAT_DIV:
                        complete = now + div_latency
                    elif lat == LAT_LOAD:
                        complete = now + dcache_access(mem_col[seq])
                    else:
                        dcache_access(mem_col[seq])
                        complete = now + 1
                    done[slot] = complete
                    budget -= 1
                    fp_issued += 1
                    if record:
                        t_issue[seq] = now
                        t_done[seq] = complete
                    if waiters[slot]:
                        wakers.append(slot)
                fp_occupancy -= fp_issued
                fp_issued_total += fp_issued

            # wake the consumers of this cycle's issues; everything woken
            # is ready in a later cycle, so the order does not matter
            if wakers:
                for slot in wakers:
                    complete = done[slot]
                    woke = waiters[slot]
                    for w in woke:
                        wslot = w & mask
                        if complete > ready_at[wslot]:
                            ready_at[wslot] = complete
                        left = pending[wslot] - 1
                        pending[wslot] = left
                        if not left:
                            at = ready_at[wslot]
                            if at == now + 1:
                                next_ready.append(w)
                            elif at in later:
                                later[at].append(w)
                            else:
                                later[at] = [w]
                    woke.clear()
                wakers.clear()

            if int_issued:
                int_busy += 1
            if fp_issued:
                fp_busy += 1
                if not int_issued:
                    int_idle_fp_busy += 1
            if blocking_branch >= 0:
                complete = done[blocking_branch & mask]
                if complete != _NEVER:
                    if complete + redirect > fetch_stall_until:
                        fetch_stall_until = complete + redirect
                    blocking_branch = -1

            # ---- dispatch ------------------------------------------------
            if dispatched < fetched:
                width = decode_width
                while dispatched < fetched and width:
                    seq = dispatched
                    slot = seq & mask
                    sid = slot_sid[slot]
                    fp = slot_fp[slot]
                    if fp:
                        if fp_occupancy >= fp_window_cap:
                            break
                    elif int_occupancy >= int_window_cap:
                        break
                    if seq - retired >= max_inflight:
                        break
                    int_defs = row_int_defs[sid]
                    fp_defs = row_fp_defs[sid]
                    if int_defs > free_int or fp_defs > free_fp:
                        break
                    dispatched += 1
                    free_int -= int_defs
                    free_fp -= fp_defs
                    if record:
                        t_dispatch[seq] = now
                    at = now + 1
                    waiting = 0
                    end = roff[seq + 1]
                    for token in rtok[reads_at:end]:
                        producer = last_writer[token]
                        if producer >= retired:
                            complete = done[producer & mask]
                            if complete == _NEVER:
                                waiters[producer & mask].append(seq)
                                waiting += 1
                            elif complete > at:
                                at = complete
                    reads_at = end
                    end = woff[seq + 1]
                    for token in wtok[writes_at:end]:
                        last_writer[token] = seq
                    writes_at = end
                    if waiting:
                        ready_at[slot] = at
                        pending[slot] = waiting
                    elif at == now + 1:
                        next_ready.append(seq)
                    elif at in later:
                        later[at].append(seq)
                    else:
                        later[at] = [seq]
                    if fp:
                        fp_occupancy += 1
                    else:
                        int_occupancy += 1
                    if row_lat[sid] == LAT_STORE:
                        stores.append(seq)
                    width -= 1
                if width == decode_width:
                    dispatch_stalls += 1

            # ---- fetch ---------------------------------------------------
            if now < fetch_stall_until or blocking_branch >= 0:
                if fetched < n:
                    fetch_stalls += 1
                continue
            width = fetch_width
            stop = min(n, dispatched + fetch_buffer_cap)
            while width and fetched < stop:
                sid = ids[fetched]
                pc = row_pc[sid]
                # only fetch touches the I-cache, so the previous fetch's
                # line is the most recently used in its set: a plain hit
                line = pc >> line_shift
                if line == last_line:
                    line_hits += 1
                else:
                    last_line = line
                    latency = icache_access(pc)
                    if latency > hit_cycles:
                        fetch_stall_until = now + (latency - hit_cycles)
                        break
                slot = fetched & mask
                slot_sid[slot] = sid
                slot_fp[slot] = row_fp[sid]
                done[slot] = _NEVER
                if record:
                    t_fetch[fetched] = now
                seq = fetched
                fetched += 1
                width -= 1
                ctrl = row_ctrl[sid]
                if ctrl == CTRL_BRANCH:
                    raw = taken_col[seq]
                    taken = None if raw < 0 else raw == 1
                    branches += 1
                    if not predict(pc, taken):
                        mispredicts += 1
                        blocking_branch = seq
                        break
                    if taken:
                        break  # cannot fetch past a taken branch this cycle
                elif ctrl == CTRL_JUMP:
                    break  # taken control flow, perfectly predicted

        icache.hits += line_hits
        stats.cycles = now
        stats.retired = retired
        stats.int_issued += int_issued_total
        stats.fp_issued += fp_issued_total
        stats.loads += loads
        stats.stores += stores_issued
        stats.branches += branches
        stats.branch_mispredicts += mispredicts
        stats.int_busy_cycles += int_busy
        stats.fp_busy_cycles += fp_busy
        stats.int_idle_fp_busy_cycles += int_idle_fp_busy
        stats.fetch_stall_cycles += fetch_stalls
        stats.dispatch_stall_cycles += dispatch_stalls
        stats.icache_hits = icache.hits
        stats.icache_misses = icache.misses
        stats.dcache_hits = self.dcache.hits
        stats.dcache_misses = self.dcache.misses
        if record:
            self.timeline = list(
                zip(t_fetch, t_dispatch, t_issue, t_done, t_retire)
            )
        report_progress(cycles=now, retired=retired)
        return stats


def simulate_trace(
    trace: PackedTrace,
    config: MachineConfig,
    perfect_branches: bool = False,
) -> SimStats:
    """Convenience wrapper: run ``trace`` on a fresh simulator."""
    return TimingSimulator(config, perfect_branches=perfect_branches).run(trace)
