"""Daemon lifecycle: startup, signal handling, graceful drain.

The shutdown contract (see ``docs/robustness.md``):

1. SIGTERM/SIGINT sets the **draining** flag — ``/readyz`` flips to
   503 and new work is refused, while ``/healthz`` stays green (the
   process is still alive and finishing work).
2. In-flight requests get up to ``drain_grace`` seconds to complete.
3. When the gate is idle (or the grace expired) the **stop** event is
   set — any still-running ``run_cells`` call aborts promptly, its
   requests answer 503 — and the listener shuts down.
4. The process exits 0.  A drain is an *orderly* ending; only an
   internal error exits non-zero.

``serve_drain`` is a fault site so the chaos suite can break the drain
path itself and assert the grace ceiling still holds.
"""

from __future__ import annotations

import contextlib
import signal
import sys
import threading

from repro.faults import fault_point
from repro.serve.http import ServeHTTPServer
from repro.serve.state import ServeConfig, ServeState


class ReproDaemon:
    """One serving process: an HTTP server plus its shared state."""

    def __init__(self, config: ServeConfig) -> None:
        self.config = config
        self.state = ServeState(config)
        self.server = ServeHTTPServer(self.state)
        self._serve_thread: threading.Thread | None = None
        self._drain_thread: threading.Thread | None = None
        self._drain_lock = threading.Lock()
        self._drain_started = False
        self._finished = threading.Event()

    @property
    def bound_port(self) -> int:
        """The actual listening port (useful with ``port=0``)."""
        return self.server.bound_port

    # -- embedded use (tests, loadgen self-hosting) -----------------------

    def start(self) -> None:
        """Serve on a background thread; returns once listening."""
        self._serve_thread = threading.Thread(
            target=self._serve, name="repro-serve", daemon=True
        )
        self._serve_thread.start()

    def _serve(self) -> None:
        try:
            self.server.serve_forever(poll_interval=0.1)
        finally:
            self.server.server_close()
            self._finished.set()

    def drain(self, grace: float | None = None) -> bool:
        """Stop accepting, wait for in-flight work, shut the server down.

        Returns True when every in-flight request finished inside the
        grace period, False when the stop event had to abort stragglers.
        Idempotent: repeat calls join the same drain.
        """
        grace = self.config.drain_grace if grace is None else grace
        with self._drain_lock:
            leader = not self._drain_started
            self._drain_started = True
        if not leader:
            # join the in-progress drain, bounded so a wedged drain can
            # never wedge its observers too
            self._finished.wait(grace + 15.0)
            return not self.state.stop.is_set()
        self.state.draining.set()
        with contextlib.suppress(Exception):
            fault_point("serve_drain", "drain")
        clean = self.state.gate.wait_idle(grace)
        if not clean:
            # grace expired: abort in-flight run_cells promptly; their
            # requests answer 503 Aborted rather than hanging forever
            self.state.stop.set()
            self.state.gate.wait_idle(5.0)
        self.server.shutdown()
        self._finished.wait()
        return clean

    def stop(self) -> None:
        """Hard stop without grace (tests)."""
        self.drain(grace=0.0)

    # -- foreground use (the ``repro serve`` CLI) -------------------------

    def run_forever(self) -> int:
        """Serve until SIGTERM/SIGINT, then drain; returns the exit code."""
        drained: dict[str, bool] = {}

        def _on_signal(signum, frame) -> None:
            # never drain on the signal-handler frame: it may have
            # interrupted a thread holding an arbitrary lock
            if self._drain_thread is None:
                name = signal.Signals(signum).name
                print(f"repro serve: {name} received, draining "
                      f"(grace {self.config.drain_grace:.0f}s)", file=sys.stderr)
                self._drain_thread = threading.Thread(
                    target=lambda: drained.__setitem__("clean", self.drain()),
                    name="repro-serve-drain",
                    daemon=True,
                )
                self._drain_thread.start()

        signal.signal(signal.SIGTERM, _on_signal)
        signal.signal(signal.SIGINT, _on_signal)
        self.start()
        if not self.config.quiet:
            print(
                f"repro serve: listening on "
                f"http://{self.config.host}:{self.bound_port} "
                f"(queue {self.config.queue_depth}, "
                f"workers {self.config.workers})",
                file=sys.stderr,
            )
        self._finished.wait()
        if self._drain_thread is not None:
            self._drain_thread.join(timeout=self.config.drain_grace + 10.0)
        aborted = self.state.stop.is_set()
        if not self.config.quiet:
            how = "aborted stragglers" if aborted else "clean"
            print(f"repro serve: drained ({how}), exiting", file=sys.stderr)
        # a drain that had to abort work is still an orderly shutdown
        return 0


def write_port_file(path: str, port: int) -> None:
    """Publish the bound port for scripts that started us with port 0."""
    from repro.ioutil import atomic_write_bytes

    atomic_write_bytes(path, f"{port}\n".encode("ascii"), fsync=False)
