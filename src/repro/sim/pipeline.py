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

The loop consumes a :class:`~repro.trace.pack.PackedTrace` — latency
and control classes pre-resolved per static row, dependence tokens as
dense integers — so the per-dynamic-instruction work is array indexing
and integer dict lookups.  Interpreter runs capture their trace in that
form; hand-written micro-traces go through
:func:`~repro.trace.pack.pack_entries` first.
"""

from __future__ import annotations

from collections import deque

from repro.errors import CheckpointError, SimulationError
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
    LAT_STORE,
    PackedTrace,
)


class _Dyn:
    """Pipeline bookkeeping for one dynamic instruction.

    Static properties (subsystem side, latency class, rename-register
    demand) arrive pre-resolved from the packed trace's static table —
    the constructor only copies integers.
    """

    __slots__ = (
        "seq",
        "producers",
        "complete",
        "issued",
        "lat_class",
        "is_load",
        "is_store",
        "is_mem",
        "fp_side",
        "int_defs",
        "fp_defs",
        "mem_addr",
        "fetched_at",
        "dispatched_at",
        "issued_at",
        "retired_at",
    )

    def __init__(
        self,
        seq: int,
        fp_side: bool,
        lat_class: int,
        int_defs: int,
        fp_defs: int,
        mem_addr: int,
    ):
        self.seq = seq
        self.fp_side = fp_side
        self.lat_class = lat_class
        self.is_load = lat_class == LAT_LOAD
        self.is_store = lat_class == LAT_STORE
        self.is_mem = self.is_load or self.is_store
        self.int_defs = int_defs
        self.fp_defs = fp_defs
        self.mem_addr = mem_addr
        self.producers: list[_Dyn] = []
        self.complete: int | None = None
        self.issued = False
        self.fetched_at = -1
        self.dispatched_at = -1
        self.issued_at = -1
        self.retired_at = -1


class TimingSimulator:
    """Simulates one trace on one machine configuration."""

    def __init__(
        self,
        config: MachineConfig,
        perfect_branches: bool = False,
        record_timeline: bool = False,
        checkpoint=None,
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
        #: optional :class:`~repro.checkpoint.store.CheckpointSlot`;
        #: when set, the run loop snapshots every ``slot.interval``
        #: cycles and restores from the slot before starting
        self.checkpoint = checkpoint
        if checkpoint is not None and record_timeline:
            raise CheckpointError(
                "record_timeline cannot be combined with checkpointing: "
                "the timeline keeps every dynamic instruction alive, "
                "which a bounded snapshot cannot capture"
            )
        #: cycle the last restore resumed from (None = cold start)
        self.resumed_from: int | None = None
        #: cycle of the last published snapshot (None = none yet)
        self.last_checkpoint: int | None = None
        #: per-instruction stage timestamps, populated when
        #: ``record_timeline`` is set; see :mod:`repro.sim.timeline`
        self.timeline: list[_Dyn] = []

    # ------------------------------------------------------------------
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

        # column handles: per-dynamic work is indexing into these
        ids = trace.instr_ids
        mem_col = trace.mem_addr
        taken_col = trace.taken
        roff, rtok = trace.read_offsets, trace.read_tokens
        woff, wtok = trace.write_offsets, trace.write_tokens
        row_pc = trace.pcs
        row_fp = trace.fp_side
        row_lat = trace.row_lat
        row_ctrl = trace.row_ctrl
        row_int_defs = trace.int_defs
        row_fp_defs = trace.fp_defs

        fetch_index = 0
        fetch_buffer: deque[_Dyn] = deque()
        fetch_buffer_cap = 2 * config.fetch_width
        fetch_stall_until = 0
        blocking_branch: _Dyn | None = None

        int_window: list[_Dyn] = []
        fp_window: list[_Dyn] = []
        rob: deque[_Dyn] = deque()
        last_writer: dict[int, _Dyn] = {}
        inflight_stores: list[_Dyn] = []

        free_int = config.rename_int
        free_fp = config.rename_fp
        retired = 0
        now = 0
        hit_cycles = config.icache.hit_cycles
        limit = max_cycles if max_cycles is not None else 200 * n + 10_000

        slot = self.checkpoint
        interval = slot.interval if slot is not None else 0
        last_saved = 0
        if slot is not None:
            saved = slot.load()
            if saved is not None:
                try:
                    (
                        now, fetch_index, retired, fetch_stall_until,
                        free_int, free_fp, blocking_branch, fetch_buffer,
                        int_window, fp_window, rob, last_writer,
                        inflight_stores,
                    ) = self._restore_state(saved, trace)
                except CheckpointError:
                    # stale or inconsistent snapshot: cold restart, and
                    # discard whatever the partial restore touched
                    self.icache = Cache(config.icache)
                    self.dcache = Cache(config.dcache)
                    if self.perfect_branches:
                        self.predictor = PerfectPredictor(config.predictor)
                    else:
                        self.predictor = GSharePredictor(config.predictor)
                    self.stats = stats = SimStats()
                else:
                    stats = self.stats
                    last_saved = now
                    self.resumed_from = now
                    report_progress(cycles=now, retired=retired,
                                    resumed_from_cycle=now)

        while retired < n:
            # snapshot at cycle boundaries: the state below is "end of
            # cycle `now`", so a resumed run replays from `now + 1` on
            if interval and now > last_saved and now % interval == 0:
                slot.save(self._snapshot_state(
                    n, now, fetch_index, retired, fetch_stall_until,
                    free_int, free_fp, blocking_branch, fetch_buffer,
                    int_window, fp_window, rob, last_writer,
                    inflight_stores,
                ))
                last_saved = now
                self.last_checkpoint = now
                report_progress(checkpoint_cycle=now)
            if now & 1023 == 0:
                report_progress(cycles=now, retired=retired)
            now += 1
            if now > limit:
                raise SimulationError(
                    f"simulation exceeded {limit} cycles with "
                    f"{retired}/{n} instructions retired"
                )

            # ---- retire ------------------------------------------------
            width = config.retire_width
            while rob and width:
                head = rob[0]
                if head.complete is None or head.complete > now:
                    break
                rob.popleft()
                head.retired_at = now
                free_int += head.int_defs
                free_fp += head.fp_defs
                if head.is_store:
                    inflight_stores.remove(head)
                retired += 1
                width -= 1

            # ---- issue ---------------------------------------------------
            int_issued_now = self._issue_int(int_window, inflight_stores, now)
            fp_issued_now = self._issue_fp(fp_window, now)
            if int_issued_now:
                stats.int_busy_cycles += 1
            if fp_issued_now:
                stats.fp_busy_cycles += 1
                if not int_issued_now:
                    stats.int_idle_fp_busy_cycles += 1
            if blocking_branch is not None and blocking_branch.complete is not None:
                fetch_stall_until = max(
                    fetch_stall_until,
                    blocking_branch.complete + config.mispredict_redirect,
                )
                blocking_branch = None

            # ---- dispatch ------------------------------------------------
            width = config.decode_width
            dispatched_any = False
            while fetch_buffer and width:
                dyn = fetch_buffer[0]
                window = fp_window if dyn.fp_side else int_window
                window_cap = config.fp_window if dyn.fp_side else config.int_window
                if len(window) >= window_cap:
                    break
                if len(rob) >= config.max_inflight:
                    break
                if dyn.int_defs > free_int or dyn.fp_defs > free_fp:
                    break
                fetch_buffer.popleft()
                dyn.dispatched_at = now
                free_int -= dyn.int_defs
                free_fp -= dyn.fp_defs
                s = dyn.seq
                for ti in range(roff[s], roff[s + 1]):
                    producer = last_writer.get(rtok[ti])
                    if producer is not None and (
                        producer.complete is None or producer.complete > now
                    ):
                        dyn.producers.append(producer)
                for ti in range(woff[s], woff[s + 1]):
                    last_writer[wtok[ti]] = dyn
                window.append(dyn)
                rob.append(dyn)
                if dyn.is_store:
                    inflight_stores.append(dyn)
                width -= 1
                dispatched_any = True
            if fetch_buffer and not dispatched_any:
                stats.dispatch_stall_cycles += 1

            # ---- fetch ---------------------------------------------------
            if now < fetch_stall_until or blocking_branch is not None:
                if fetch_index < n:
                    stats.fetch_stall_cycles += 1
                continue
            width = config.fetch_width
            while width and fetch_index < n and len(fetch_buffer) < fetch_buffer_cap:
                sid = ids[fetch_index]
                pc = row_pc[sid]
                latency = self.icache.access(pc)
                if latency > hit_cycles:
                    fetch_stall_until = now + (latency - hit_cycles)
                    break
                dyn = _Dyn(
                    fetch_index,
                    row_fp[sid] == 1,
                    row_lat[sid],
                    row_int_defs[sid],
                    row_fp_defs[sid],
                    mem_col[fetch_index],
                )
                dyn.fetched_at = now
                if self.record_timeline:
                    self.timeline.append(dyn)
                fetch_index += 1
                fetch_buffer.append(dyn)
                width -= 1
                ctrl = row_ctrl[sid]
                if ctrl == CTRL_BRANCH:
                    raw = taken_col[dyn.seq]
                    taken = None if raw < 0 else raw == 1
                    correct = self.predictor.update(pc, taken)
                    stats.branches += 1
                    if not correct:
                        stats.branch_mispredicts += 1
                        blocking_branch = dyn
                        break
                    if taken:
                        break  # cannot fetch past a taken branch this cycle
                elif ctrl == CTRL_JUMP:
                    break  # taken control flow, perfectly predicted

        stats.cycles = now
        stats.retired = retired
        stats.icache_hits = self.icache.hits
        stats.icache_misses = self.icache.misses
        stats.dcache_hits = self.dcache.hits
        stats.dcache_misses = self.dcache.misses
        if slot is not None:
            slot.clear()
        report_progress(cycles=now, retired=retired)
        return stats

    # ------------------------------------------------------------------
    def _snapshot_state(
        self,
        n: int,
        now: int,
        fetch_index: int,
        retired: int,
        fetch_stall_until: int,
        free_int: int,
        free_fp: int,
        blocking_branch: "_Dyn | None",
        fetch_buffer: "deque[_Dyn]",
        int_window: "list[_Dyn]",
        fp_window: "list[_Dyn]",
        rob: "deque[_Dyn]",
        last_writer: "dict[int, _Dyn]",
        inflight_stores: "list[_Dyn]",
    ) -> dict:
        """The run loop's live state as a JSON-able dict (cycle boundary).

        The dynamic-instruction closure is small by construction:

        * every *incomplete* instruction is in the ROB (it cannot retire
          before completing), so the ROB plus the fetch buffer covers
          all live bookkeeping;
        * a ``last_writer`` entry whose writer completed at or before
          ``now`` is semantically dead — dispatch only records producers
          that are still incomplete — so those entries are pruned here,
          which keeps snapshots bounded by the machine's in-flight
          capacity instead of the token-table size;
        * producers referenced from the ROB that already retired only
          matter for their ``complete`` timestamp, so they are captured
          as bare records with their own producer lists pruned.
        """
        primary: dict[int, _Dyn] = {}
        for dyn in rob:
            primary[dyn.seq] = dyn
        for dyn in fetch_buffer:
            primary[dyn.seq] = dyn
        if blocking_branch is not None:
            primary[blocking_branch.seq] = blocking_branch
        writer_items = sorted(
            (token, dyn.seq)
            for token, dyn in last_writer.items()
            if dyn.complete is None or dyn.complete > now
        )
        for _, seq in writer_items:
            if seq not in primary:
                raise CheckpointError(
                    f"live writer seq {seq} missing from ROB/fetch buffer"
                )
        extras: dict[int, _Dyn] = {}
        for dyn in primary.values():
            for producer in dyn.producers:
                if producer.seq not in primary and producer.seq not in extras:
                    if producer.complete is None:
                        raise CheckpointError(
                            f"incomplete producer seq {producer.seq} "
                            f"missing from ROB"
                        )
                    extras[producer.seq] = producer

        def record(dyn: _Dyn, full: bool) -> dict:
            return {
                "seq": dyn.seq,
                "complete": dyn.complete,
                "issued": dyn.issued,
                "t": [dyn.fetched_at, dyn.dispatched_at,
                      dyn.issued_at, dyn.retired_at],
                "producers": [p.seq for p in dyn.producers] if full else [],
            }

        dyn_records = [record(primary[seq], True) for seq in sorted(primary)]
        dyn_records += [record(extras[seq], False) for seq in sorted(extras)]
        return {
            "n": n,
            "now": now,
            "fetch_index": fetch_index,
            "retired": retired,
            "fetch_stall_until": fetch_stall_until,
            "free_int": free_int,
            "free_fp": free_fp,
            "blocking_branch": (
                None if blocking_branch is None else blocking_branch.seq
            ),
            "fetch_buffer": [dyn.seq for dyn in fetch_buffer],
            "int_window": [dyn.seq for dyn in int_window],
            "fp_window": [dyn.seq for dyn in fp_window],
            "rob": [dyn.seq for dyn in rob],
            "inflight_stores": [dyn.seq for dyn in inflight_stores],
            "last_writer": [list(item) for item in writer_items],
            "dyns": dyn_records,
            "stats": self.stats.to_counters(),
            "icache": self.icache.state_dict(),
            "dcache": self.dcache.state_dict(),
            "predictor": {
                "class": type(self.predictor).__name__,
                "state": self.predictor.state_dict(),
            },
        }

    def _restore_state(
        self,
        state: dict,
        packed: PackedTrace,
    ) -> tuple:
        """Rebuild the run loop's live state from a decoded snapshot.

        Raises :class:`CheckpointError` on any inconsistency; structural
        validation happens before ``self`` is mutated, but a failure in
        the final apply phase can leave caches partially loaded — the
        caller resets them on the cold-restart path.
        """
        try:
            n = int(state["n"])
            now = int(state["now"])
            fetch_index = int(state["fetch_index"])
            retired = int(state["retired"])
            fetch_stall_until = int(state["fetch_stall_until"])
            free_int = int(state["free_int"])
            free_fp = int(state["free_fp"])
            predictor_doc = state["predictor"]
            dyn_records = state["dyns"]
        except (KeyError, TypeError, ValueError) as exc:
            raise CheckpointError(f"malformed checkpoint state: {exc}")
        if n != packed.n:
            raise CheckpointError(
                f"checkpoint is for a {n}-instruction trace, "
                f"this trace has {packed.n}"
            )
        if not (0 <= retired <= n and 0 <= fetch_index <= n and now >= 0):
            raise CheckpointError("checkpoint cursors out of range")
        if predictor_doc.get("class") != type(self.predictor).__name__:
            raise CheckpointError(
                f"checkpoint predictor {predictor_doc.get('class')!r} does "
                f"not match {type(self.predictor).__name__}"
            )

        ids = packed.instr_ids
        mem_col = packed.mem_addr
        row_fp = packed.fp_side
        row_lat = packed.row_lat
        row_int_defs = packed.int_defs
        row_fp_defs = packed.fp_defs
        dyns: dict[int, _Dyn] = {}
        try:
            for rec in dyn_records:
                seq = int(rec["seq"])
                if not 0 <= seq < n or seq in dyns:
                    raise CheckpointError(f"bad dynamic record seq {seq}")
                sid = ids[seq]
                dyn = _Dyn(
                    seq,
                    row_fp[sid] == 1,
                    row_lat[sid],
                    row_int_defs[sid],
                    row_fp_defs[sid],
                    mem_col[seq],
                )
                complete = rec["complete"]
                dyn.complete = None if complete is None else int(complete)
                dyn.issued = bool(rec["issued"])
                (dyn.fetched_at, dyn.dispatched_at,
                 dyn.issued_at, dyn.retired_at) = (int(t) for t in rec["t"])
                dyns[seq] = dyn
            for rec in dyn_records:
                dyn = dyns[int(rec["seq"])]
                dyn.producers = [dyns[int(p)] for p in rec["producers"]]

            def pick(seqs) -> list[_Dyn]:
                return [dyns[int(seq)] for seq in seqs]

            fetch_buffer = deque(pick(state["fetch_buffer"]))
            int_window = pick(state["int_window"])
            fp_window = pick(state["fp_window"])
            rob = deque(pick(state["rob"]))
            inflight_stores = pick(state["inflight_stores"])
            raw_branch = state["blocking_branch"]
            blocking_branch = None if raw_branch is None else dyns[int(raw_branch)]
            last_writer = {
                int(token): dyns[int(seq)]
                for token, seq in state["last_writer"]
            }
            stats_counters = {
                key: int(value) for key, value in state["stats"].items()
            }
        except CheckpointError:
            raise
        except (KeyError, TypeError, ValueError) as exc:
            raise CheckpointError(f"inconsistent checkpoint state: {exc}")

        # apply phase: structure validated, now load the stateful models
        self.icache.load_state(state["icache"])
        self.dcache.load_state(state["dcache"])
        self.predictor.load_state(predictor_doc["state"])
        restored_stats = SimStats.from_counters(stats_counters)
        for field in self.stats.to_counters():
            setattr(self.stats, field, getattr(restored_stats, field))
        return (
            now, fetch_index, retired, fetch_stall_until, free_int, free_fp,
            blocking_branch, fetch_buffer, int_window, fp_window, rob,
            last_writer, inflight_stores,
        )

    # ------------------------------------------------------------------
    def _latency(self, dyn: _Dyn) -> int:
        lat = dyn.lat_class
        if lat == LAT_LOAD:
            return self.dcache.access(dyn.mem_addr)
        if lat == LAT_STORE:
            self.dcache.access(dyn.mem_addr)
            return 1
        if lat == LAT_MUL:
            return self.config.mul_latency
        if lat == LAT_DIV:
            return self.config.div_latency
        return 1

    @staticmethod
    def _ready(dyn: _Dyn, now: int) -> bool:
        for producer in dyn.producers:
            if producer.complete is None or producer.complete > now:
                return False
        return True

    def _issue_int(
        self, window: list[_Dyn], inflight_stores: list[_Dyn], now: int
    ) -> int:
        """Issue from the INT window; returns number issued."""
        budget = self.config.int_units
        ls_budget = self.config.ls_ports
        issued = 0
        stats = self.stats
        if not window:
            return 0
        oldest_unissued_store = None
        for store in inflight_stores:
            if not store.issued:
                oldest_unissued_store = store.seq
                break
        remaining: list[_Dyn] = []
        for dyn in window:
            if budget == 0:
                remaining.append(dyn)
                continue
            if dyn.is_mem and ls_budget == 0:
                remaining.append(dyn)
                continue
            if not self._ready(dyn, now):
                remaining.append(dyn)
                continue
            if dyn.is_load:
                if (
                    oldest_unissued_store is not None
                    and oldest_unissued_store < dyn.seq
                ):
                    remaining.append(dyn)
                    continue
                conflict = False
                word = dyn.mem_addr >> 2
                for store in inflight_stores:
                    if store.seq > dyn.seq:
                        break
                    if (
                        store.mem_addr >> 2 == word
                        and (store.complete is None or store.complete > now)
                    ):
                        conflict = True
                        break
                if conflict:
                    remaining.append(dyn)
                    continue
            dyn.issued = True
            dyn.issued_at = now
            dyn.complete = now + self._latency(dyn)
            if dyn.is_store and oldest_unissued_store == dyn.seq:
                oldest_unissued_store = None
                for store in inflight_stores:
                    if not store.issued:
                        oldest_unissued_store = store.seq
                        break
            budget -= 1
            if dyn.is_mem:
                ls_budget -= 1
                if dyn.is_load:
                    stats.loads += 1
                else:
                    stats.stores += 1
            issued += 1
            stats.int_issued += 1
        window[:] = remaining
        return issued

    def _issue_fp(self, window: list[_Dyn], now: int) -> int:
        """Issue from the FP window; returns number issued."""
        budget = self.config.fp_units
        issued = 0
        if not window:
            return 0
        remaining: list[_Dyn] = []
        for dyn in window:
            if budget == 0 or not self._ready(dyn, now):
                remaining.append(dyn)
                continue
            dyn.issued = True
            dyn.issued_at = now
            dyn.complete = now + self._latency(dyn)
            budget -= 1
            issued += 1
            self.stats.fp_issued += 1
        window[:] = remaining
        return issued

    # ------------------------------------------------------------------


def simulate_trace(
    trace: PackedTrace,
    config: MachineConfig,
    perfect_branches: bool = False,
) -> SimStats:
    """Convenience wrapper: run ``trace`` on a fresh simulator."""
    return TimingSimulator(config, perfect_branches=perfect_branches).run(trace)
