"""``repro bench`` — run the experiment matrix, emit BENCH JSON.

Examples::

    repro bench --suite fig8 --jobs 4
    repro bench --suite fig8 --jobs 4 --baseline benchmarks/baseline.json
    repro bench --suite all --jobs 8 --timeout 300 --retries 2
    repro bench --suite all --resume          # continue a killed sweep
    repro bench --validate BENCH_fig8.json
    repro bench --list

A failing or hung cell no longer aborts the sweep: it is recorded in
the document's ``failures`` section and the run exits 4 when the count
exceeds ``--max-failures`` (default 0, so CI still fails loudly).  The
run journal (``<output>.journal``) makes an interrupted sweep resumable
with ``--resume``; it is deleted after a fully clean run.
"""

from __future__ import annotations

import argparse
import os
import sys
import time

from repro.errors import EXIT_BENCH_FAILURES, ReproError, exit_code_for


def configure_parser(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--suite",
        default="fig8",
        metavar="NAME",
        help="experiment suite to run (see --list; default: fig8)",
    )
    parser.add_argument(
        "--jobs",
        "-j",
        type=int,
        default=1,
        metavar="N",
        help="worker processes; 0 = one per CPU (default: 1, serial)",
    )
    parser.add_argument(
        "--scale",
        type=int,
        default=None,
        help="force one workload scale on every cell (default: per-workload)",
    )
    parser.add_argument(
        "--output",
        "-o",
        default=None,
        metavar="PATH",
        help="BENCH JSON path (default: BENCH_<suite>.json; '-' = stdout only)",
    )
    parser.add_argument(
        "--cache-dir",
        default=".repro-bench-cache",
        metavar="DIR",
        help="on-disk result cache directory (default: .repro-bench-cache)",
    )
    parser.add_argument(
        "--no-cache",
        action="store_true",
        help="neither read nor write the on-disk cache",
    )
    parser.add_argument(
        "--trace-cache",
        default=None,
        metavar="DIR",
        help="on-disk packed-trace store: interpret each (workload, "
        "scheme) once and replay the trace for every machine config "
        "(equivalent to REPRO_TRACE_CACHE=DIR; default: env/off)",
    )
    parser.add_argument(
        "--force",
        action="store_true",
        help="recompute every cell even on cache hits (cache is rewritten)",
    )
    parser.add_argument(
        "--timeout",
        type=float,
        default=None,
        metavar="SECS",
        help="per-cell stall limit; a cell whose heartbeat advances is "
        "granted more time, a stalled cell is killed and recorded "
        "(default: none)",
    )
    parser.add_argument(
        "--hard-timeout",
        type=float,
        default=None,
        metavar="SECS",
        help="absolute per-cell wall-clock ceiling; kills the cell even "
        "while it is still making progress (default: unlimited)",
    )
    parser.add_argument(
        "--retries",
        type=int,
        default=1,
        metavar="N",
        help="extra attempts per failing cell before recording the "
        "failure (default: 1)",
    )
    parser.add_argument(
        "--breaker-threshold",
        type=int,
        default=0,
        metavar="K",
        help="open a (workload, scheme) family's circuit breaker after "
        "K consecutive failed attempts and fail its remaining cells "
        "fast (default: 0, disabled)",
    )
    parser.add_argument(
        "--backoff",
        type=float,
        default=0.5,
        metavar="SECS",
        help="base of the exponential retry delay (default: 0.5)",
    )
    parser.add_argument(
        "--max-failures",
        type=int,
        default=0,
        metavar="N",
        help="tolerate up to N failed cells before exiting non-zero "
        "(default: 0 — any failure fails the run)",
    )
    parser.add_argument(
        "--resume",
        action="store_true",
        help="replay finished cells from the run journal of an "
        "interrupted sweep, recomputing only the rest",
    )
    parser.add_argument(
        "--baseline",
        default=None,
        metavar="PATH",
        help="compare against this committed BENCH JSON; exit 1 on slowdown",
    )
    parser.add_argument(
        "--tolerance",
        type=float,
        default=10.0,
        metavar="PCT",
        help="allowed cycle-count slowdown vs the baseline, in percent "
        "(default: 10)",
    )
    parser.add_argument(
        "--validate",
        default=None,
        metavar="PATH",
        help="only validate an existing BENCH JSON file, then exit",
    )
    parser.add_argument(
        "--list",
        action="store_true",
        dest="list_suites",
        help="list available suites and their cells, then exit",
    )
    parser.add_argument(
        "--quiet",
        "-q",
        action="store_true",
        help="suppress per-cell progress lines",
    )


def run(args: argparse.Namespace) -> int:
    from repro.bench.cache import ResultCache, cell_key, code_fingerprint
    from repro.bench.compare import compare_documents, format_report
    from repro.bench.harness import CellError, CellOutcome, RunReport, run_cells
    from repro.bench.journal import RunJournal
    from repro.bench.matrix import Cell, SUITES, suite_cells
    from repro.bench.results import (
        build_document,
        load_document,
        outcome_cell_doc,
        result_from_dict,
        save_document,
        validate_document,
    )

    if args.list_suites:
        for name in sorted(SUITES):
            cells = SUITES[name]()
            print(f"{name:8s} {len(cells):3d} cells  "
                  + ", ".join(c.label for c in cells[:4])
                  + (", ..." if len(cells) > 4 else ""))
        from repro.gen import GENERATORS

        print()
        print("generator specs (usable anywhere a workload name is; "
              "see docs/fuzzing.md):")
        for gname in sorted(GENERATORS):
            generator = GENERATORS[gname]
            axes = ", ".join(generator.axes)
            print(f"  gen:{gname:8s} {generator.description}  [axes: {axes}]")
        print("  example: repro bench --suite gen-smoke, or any cell with "
              "workload='gen:mixer?seed=7&ldst=0.3'")
        return 0

    if args.validate is not None:
        doc = load_document(args.validate)
        validate_document(doc)
        print(
            f"{args.validate}: valid {doc['schema']} document, "
            f"suite {doc['suite']!r}, {len(doc['cells'])} cells"
        )
        return 0

    cells = suite_cells(args.suite, scale=args.scale)
    jobs = args.jobs if args.jobs > 0 else (os.cpu_count() or 1)
    if args.trace_cache is not None:
        # via the environment so pool workers inherit the setting
        from repro.trace.store import TRACE_CACHE_ENV

        os.environ[TRACE_CACHE_ENV] = args.trace_cache
    cache = None if args.no_cache else ResultCache(args.cache_dir)
    code_version = code_fingerprint()

    output = args.output
    if output is None:
        output = f"BENCH_{args.suite}.json"
    journal_name = output if output != "-" else f"BENCH_{args.suite}.json"
    journal = RunJournal(f"{journal_name}.journal")

    # -- resume: replay finished cells from an interrupted sweep -------
    resumed: list[CellOutcome] = []
    if args.resume and journal.matches(args.suite, code_version):
        _, entries = journal.load()
        replayable: dict[str, dict] = {}
        for entry in entries:
            if entry.get("status") == "ok" and entry.get("key"):
                replayable[entry["key"]] = entry  # last write wins
        for entry in replayable.values():
            try:
                result = result_from_dict(entry["result"])
                cell = Cell.from_dict(entry)
            except (ReproError, KeyError, TypeError):
                continue  # damaged line: just recompute that cell
            resumed.append(
                CellOutcome(
                    cell, result, entry["key"], True, "journal", 0.0,
                    float(entry.get("compute_seconds", 0.0)),
                )
            )
        if resumed and not args.quiet:
            print(
                f"resuming from {journal.path}: {len(resumed)} finished "
                "cells replayed",
                file=sys.stderr,
            )
    elif args.resume:
        print(
            f"note: no matching run journal at {journal.path}; "
            "running the full suite",
            file=sys.stderr,
        )
    resumed_keys = {o.key for o in resumed}
    todo = [c for c in cells if cell_key(c) not in resumed_keys]

    journal.start(args.suite, code_version, fresh=not resumed)

    def progress(outcome) -> None:
        journal.record(outcome_cell_doc(outcome))
        if args.quiet:
            return
        if not outcome.ok:
            error = outcome.error or CellError("Unknown", "unknown", "")
            print(
                f"  [{outcome.status.upper():>8s}] {outcome.cell.label:32s} "
                f"{error.type} at {error.stage}: {error.message}",
                file=sys.stderr,
            )
            return
        tag = outcome.source if outcome.cached else f"{outcome.seconds:6.2f}s"
        print(
            f"  [{tag:>8s}] {outcome.cell.label:32s} "
            f"{outcome.result.cycles:>9d} cycles",
            file=sys.stderr,
        )

    print(
        f"suite {args.suite!r}: {len(cells)} cells, jobs={jobs}, "
        f"cache={'off' if cache is None else args.cache_dir}",
        file=sys.stderr,
    )
    start = time.perf_counter()
    run_report = RunReport()
    try:
        outcomes = resumed + run_cells(
            todo,
            jobs=jobs,
            cache=cache,
            force=args.force,
            progress=progress,
            timeout=args.timeout,
            hard_timeout=args.hard_timeout,
            retries=max(0, args.retries),
            backoff=max(0.0, args.backoff),
            breaker_threshold=max(0, args.breaker_threshold),
            report=run_report,
        )
    finally:
        journal.close()
    total_seconds = time.perf_counter() - start
    # report in suite order, regardless of resume/completion order
    by_key = {o.key: o for o in outcomes}
    outcomes = [by_key[k] for k in dict.fromkeys(cell_key(c) for c in cells)]

    hits = sum(1 for o in outcomes if o.cached)
    doc = build_document(
        args.suite,
        outcomes,
        jobs=jobs,
        total_seconds=total_seconds,
        # replay rate over memo + disk; cache.stats() alone misses memo hits
        cache_stats={
            "dir": None if cache is None else str(cache.root),
            "hits": hits,
            "misses": len(outcomes) - hits,
            "hit_rate": hits / len(outcomes) if outcomes else 0.0,
        },
        code_version=code_version,
        breakers=run_report.breakers,
    )
    validate_document(doc)

    if output == "-":
        import json

        print(json.dumps(doc, indent=2, sort_keys=True))
    else:
        save_document(doc, output)

    failures = doc["failures"]
    if not failures:
        journal.remove()  # clean run: nothing left to resume

    compute_total = sum(o.compute_seconds for o in outcomes)
    print(
        f"{len(outcomes)} cells in {total_seconds:.1f}s wall "
        f"({compute_total:.1f}s of pipeline work; {hits} replayed from "
        f"cache, hit rate {hits / len(outcomes):.0%}"
        f"{f', {len(failures)} FAILED' if failures else ''})"
        + (f"; wrote {output}" if output != "-" else ""),
        file=sys.stderr,
    )
    for failure in failures:
        error = failure.get("error", {})
        print(
            f"  failure: {failure['workload']}/{failure['scheme']}/"
            f"{failure['width']}-way [{failure['status']}] "
            f"{error.get('type')} at {error.get('stage')}: "
            f"{error.get('message')}",
            file=sys.stderr,
        )
        fail_progress = failure.get("progress")
        if fail_progress:
            detail = ", ".join(
                f"{k}={v}" for k, v in sorted(fail_progress.items())
            )
            print(f"    progress: {detail}", file=sys.stderr)
    for family, state in sorted((doc.get("breakers") or {}).items()):
        if state.get("state") == "open":
            print(
                f"  breaker OPEN: {family} after "
                f"{state.get('consecutive_failures')} consecutive failures "
                f"({state.get('skipped_cells', 0)} cell(s) skipped)",
                file=sys.stderr,
            )
    if len(failures) > args.max_failures:
        print(
            f"error: {len(failures)} failed cell(s) exceed "
            f"--max-failures {args.max_failures} "
            f"(journal kept at {journal.path} for --resume)",
            file=sys.stderr,
        )
        return EXIT_BENCH_FAILURES

    if args.baseline is not None:
        baseline = load_document(args.baseline)
        validate_document(baseline)
        report = compare_documents(doc, baseline, tolerance=args.tolerance / 100.0)
        print(format_report(report))
        if not report.ok:
            return 1
    return 0


def main(argv: list[str] | None = None) -> int:
    """Standalone entry point (``python -m repro.bench.cli``)."""
    parser = argparse.ArgumentParser(
        prog="repro bench", description=__doc__.splitlines()[0]
    )
    configure_parser(parser)
    try:
        return run(parser.parse_args(argv))
    except ReproError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exit_code_for(exc)


if __name__ == "__main__":
    raise SystemExit(main())
