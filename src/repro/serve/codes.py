"""HTTP status mapping for the ``repro serve`` daemon.

The CLI maps every :class:`~repro.errors.ReproError` subclass to a
documented exit code; the daemon maps the same hierarchy onto HTTP
statuses so a request failure is inspectable without parsing message
text.  The two tables are kept side by side in ``docs/robustness.md``.

The rule of thumb:

* **4xx** — the *request* was at fault: unparseable JSON, an unknown
  route, a source file that does not compile, an unknown workload.
* **422** — the request was well-formed but the pipeline legitimately
  refused it (partition illegality, register-allocation failure,
  a guest-program runtime error).
* **429 / 503** — the *service* refused: admission control shed the
  request (429, with ``Retry-After``), the daemon is draining or the
  family's circuit breaker is open (503).
* **504** — the request's deadline expired (the progress-aware watchdog
  killed a stalled worker).
* **5xx** — the service itself failed (a worker crash the retries could
  not absorb, an injected fault, an unexpected exception).

Every error response body has the shape::

    {"error": {"type": "PartitionError", "stage": "partition",
               "message": "...", "exit_code": 14, "status": 422}}

so clients can recover the CLI-equivalent exit code from any failure.
"""

from __future__ import annotations

from repro.errors import EXIT_CODES, ReproError, error_stage

#: exit code -> HTTP status for pipeline errors flowing out of a request.
HTTP_STATUS_BY_EXIT: dict[int, int] = {
    10: 400,  # ParseError        — bad source in the request
    11: 400,  # SemanticError     — bad source in the request
    19: 400,  # WorkloadError     — unknown workload / bad scale
    12: 422,  # IRError           — pipeline refused the program
    13: 422,  # AnalysisError
    14: 422,  # PartitionError
    15: 422,  # RegAllocError
    16: 422,  # ExecutionError
    17: 422,  # FuelExhausted
    18: 500,  # SimulationError   — simulator invariant broke: our fault
    20: 500,  # FaultInjected     — deliberately broken service
    21: 500,  # TracePackError
    23: 500,  # PerfDegradation   — never request-triggered
    24: 500,  # ServeError        — service misconfiguration
}

#: Harness failure types that are service conditions, not pipeline errors.
_HARNESS_STATUS = {
    "Timeout": 504,            # watchdog killed a stalled/over-budget cell
    "CircuitOpen": 503,        # family breaker open: fail fast, retry later
    "Aborted": 503,            # daemon drained before the cell resolved
    "BrokenProcessPool": 500,  # worker died and retries did not absorb it
}

#: Service-level statuses the daemon emits directly.
STATUS_SHED = 429
STATUS_DRAINING = 503
STATUS_DEADLINE = 504


def http_status_for_type(error_type: str) -> int:
    """HTTP status for a captured failure's exception-type name."""
    service = _HARNESS_STATUS.get(error_type)
    if service is not None:
        return service
    exit_code = EXIT_CODES.get(error_type)
    if exit_code is None:
        return 500
    return HTTP_STATUS_BY_EXIT.get(exit_code, 500)


def http_status_for(exc: BaseException) -> int:
    """HTTP status for a live exception escaping request handling."""
    if isinstance(exc, ReproError):
        return http_status_for_type(type(exc).__name__)
    return 500


def error_body(
    error_type: str,
    stage: str,
    message: str,
    *,
    status: int | None = None,
) -> tuple[int, dict]:
    """(status, JSON body) for a failure, with the CLI exit code echoed."""
    if status is None:
        status = http_status_for_type(error_type)
    return status, {
        "error": {
            "type": error_type,
            "stage": stage,
            "message": message,
            "exit_code": EXIT_CODES.get(error_type, 1),
            "status": status,
        }
    }


def error_body_for(exc: BaseException, *, status: int | None = None) -> tuple[int, dict]:
    """:func:`error_body` from a live exception."""
    return error_body(
        type(exc).__name__, error_stage(exc), str(exc), status=status
    )
