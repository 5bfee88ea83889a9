"""Differential partition fuzzing: random MiniC vs the §6.1 contract.

Every generated program is pushed through the full pipeline under all
three schemes and checked against the invariants the paper's machinery
promises (the *oracle*).  A program that breaks any of them is a
**violation** — the fuzz loop records it, writes a crash bundle, and
(optionally) shrinks it into a replayable regression.

Oracle invariants, per program:

``compile``      both schemes compile, partition, rewrite, register-
                 allocate and pass the IR verifier
``lint``         lint-clean under all 8 rules: the partition-level rules
                 pre-rewrite, the full dataflow rules post-rewrite
``certify``      every advanced partition passes the independent §6.1
                 re-pricing (Profit >= -eps), priced with the *audit*
                 cost params — normally the partitioner's own, but a
                 deliberately skewed set in ``--inject-cost-bug`` mode,
                 which must make the fuzzer report violations (the
                 fuzzer-catches-bugs acceptance check)
``checksum``     bit-exact architectural results across conventional /
                 basic / advanced
``retire``       the timing simulation retires exactly the traced
                 instruction count under both partitioned schemes
``basic-pure``   the basic scheme never *adds* instructions (§5: it may
                 not insert copies; eliminating pre-existing conversion
                 copies is allowed, so dyn_basic <= dyn_conventional)
``profit-bound`` advanced never loses to basic by more than the copy
                 overhead it added plus a small modelling slack:
                 ``cycles_adv <= cycles_basic + o_copy * added + slack``
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

from repro.errors import FuzzViolationError, ReproError
from repro.gen.build import BuildConfig, build_program
from repro.ir.program import Program
from repro.ir.verify import verify_program
from repro.lint.registry import Severity, partition_rule_ids
from repro.lint.runner import lint_program
from repro.minic.compile import compile_source
from repro.partition.cost import CostParams, ExecutionProfile
from repro.partition.program import (
    advanced_partition,
    apply_partition,
    basic_partition,
)
from repro.regalloc.linear_scan import allocate_program
from repro.runtime.interp import run_program
from repro.sim.config import MachineConfig, four_way
from repro.sim.pipeline import TimingSimulator
# pack_entries is unused here; perfbench/spans.py wraps this attribute
from repro.trace.pack import pack_entries  # noqa: F401

#: Profit certification tolerance mirrored from the certifier.
PROFIT_EPS = 1e-6

#: Interpreter fuel per scheme run; generated programs are bounded well
#: below this by construction (see :mod:`repro.gen.build`).
FUZZ_FUEL = 20_000_000

#: Slack for the profit bound: local §6.1 pricing vs the global timing
#: simulation (fetch grouping, cache and branch effects the cost model
#: does not see).  Fractional of the basic cycles plus a constant floor
#: for tiny programs.
PROFIT_SLACK_FRACTION = 0.08
PROFIT_SLACK_FLOOR = 400.0


@dataclass(frozen=True, slots=True)
class Violation:
    """One broken oracle invariant for one program."""

    kind: str
    detail: str

    def __str__(self) -> str:  # pragma: no cover - display only
        return f"[{self.kind}] {self.detail}"


@dataclass(eq=False, slots=True)
class _SchemeRun:
    program: Program
    checksum: int | None = None
    dynamic: int = 0
    cycles: int = 0
    retired: int = 0
    copies_added: int = 0


@dataclass(eq=False, slots=True)
class FuzzCase:
    """Outcome of checking one generated program."""

    seed: int
    source: str
    violations: list[Violation] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.violations


@dataclass(eq=False, slots=True)
class FuzzReport:
    """Outcome of a fuzzing campaign."""

    seeds_run: int = 0
    elapsed: float = 0.0
    failures: list[FuzzCase] = field(default_factory=list)
    budget_exhausted: bool = False

    @property
    def ok(self) -> bool:
        return not self.failures


class DifferentialOracle:
    """Checks one MiniC source against the differential invariants.

    Args:
        params: Cost parameters handed to the *partitioner*.
        audit_params: Cost parameters used to *audit* (lint + certify).
            Defaults to ``params``; passing a different set models a
            profit-accounting bug and must produce ``certify``
            violations (this is how ``repro fuzz --inject-cost-bug``
            demonstrates the oracle has teeth).
        config: Machine config for the timing simulation.
        schemes: Subset of schemes to run — the shrinker uses e.g.
            ``("advanced",)`` to make its interestingness predicate
            cheap; cross-scheme invariants only fire when every scheme
            they mention actually ran.
        simulate: Run the timing simulation (the ``retire`` and
            ``profit-bound`` invariants need it; lint/certify/checksum
            do not).
    """

    def __init__(
        self,
        params: CostParams | None = None,
        audit_params: CostParams | None = None,
        config: MachineConfig | None = None,
        fuel: int = FUZZ_FUEL,
        schemes: tuple[str, ...] = ("conventional", "basic", "advanced"),
        simulate: bool = True,
    ) -> None:
        self.params = params or CostParams()
        self.audit_params = audit_params or self.params
        self.config = config or four_way()
        self.fuel = fuel
        self.schemes = schemes
        self.simulate = simulate

    # -- pipeline legs ----------------------------------------------------
    def _run_scheme(
        self, source: str, scheme: str, violations: list[Violation]
    ) -> _SchemeRun | None:
        try:
            program = compile_source(source, optimize=True)
        except ReproError as exc:
            violations.append(Violation("compile", f"{scheme}: {exc}"))
            return None
        run = _SchemeRun(program=program)
        try:
            if scheme != "conventional":
                profile = run_program(program, fuel=self.fuel).profile
                self._partition_and_audit(program, scheme, profile, run, violations)
            allocate_program(program)
            verify_program(program)
        except ReproError as exc:
            violations.append(Violation("compile", f"{scheme}: {exc}"))
            return None
        try:
            result = run_program(program, fuel=self.fuel, collect_trace=True)
        except ReproError as exc:
            violations.append(Violation("compile", f"{scheme}: execution: {exc}"))
            return None
        run.checksum = result.value
        run.dynamic = result.instructions
        if self.simulate:
            packed = result.trace
            stats = TimingSimulator(self.config).run(packed)
            run.cycles = stats.cycles
            run.retired = stats.retired
            if stats.retired != packed.n:
                violations.append(
                    Violation(
                        "retire",
                        f"{scheme}: simulator retired {stats.retired} of "
                        f"{packed.n} traced instructions",
                    )
                )
        return run

    def _partition_and_audit(
        self,
        program: Program,
        scheme: str,
        profile: ExecutionProfile,
        run: _SchemeRun,
        violations: list[Violation],
    ) -> None:
        """Partition + certify + lint + rewrite, auditing with
        ``audit_params`` (the partitioner itself uses ``params``)."""
        from repro.analysis.certify import certify_partition

        partitions = {}
        for name, func in program.functions.items():
            if scheme == "basic":
                partitions[name] = basic_partition(func)
            else:
                partitions[name] = advanced_partition(
                    func, profile=profile, params=self.params
                )
        # pre-rewrite: partition-level rules, priced with the audit params
        pre = lint_program(
            program,
            partitions=partitions,
            profile=profile,
            params=self.audit_params,
            scheme=scheme,
            rules=partition_rule_ids(),
        )
        self._collect_lint(pre, f"{scheme}/pre-rewrite", violations)
        if scheme == "advanced":
            for name in program.functions:
                certificate = certify_partition(
                    partitions[name], profile=profile, params=self.audit_params
                )
                if not certificate.ok:
                    for message, _ in certificate.violations:
                        violations.append(
                            Violation("certify", f"{name}: {message}")
                        )
        for name, func in program.functions.items():
            stats = apply_partition(func, partitions[name])
            run.copies_added += (
                stats.copies_inserted + stats.dups_inserted + stats.back_copies_inserted
            )
        verify_program(program)
        post = lint_program(program, scheme=scheme)
        self._collect_lint(post, f"{scheme}/post-rewrite", violations)

    @staticmethod
    def _collect_lint(result, where: str, violations: list[Violation]) -> None:
        for diag in result.diagnostics:
            if diag.severity >= Severity.ERROR:
                violations.append(
                    Violation("lint", f"{where}: {diag.rule}: {diag.message}")
                )

    # -- the oracle -------------------------------------------------------
    def check_source(self, source: str, seed: int = -1) -> FuzzCase:
        """All differential invariants for one program."""
        case = FuzzCase(seed=seed, source=source)
        violations = case.violations
        runs: dict[str, _SchemeRun | None] = {
            scheme: self._run_scheme(source, scheme, violations)
            for scheme in self.schemes
        }
        conventional = runs.get("conventional")
        basic = runs.get("basic")
        advanced = runs.get("advanced")
        live = {k: r for k, r in runs.items() if r is not None}
        checksums = {k: r.checksum for k, r in live.items()}
        if len(set(checksums.values())) > 1:
            violations.append(
                Violation("checksum", f"architectural results diverge: {checksums}")
            )
        if conventional is not None and basic is not None:
            if basic.dynamic > conventional.dynamic:
                violations.append(
                    Violation(
                        "basic-pure",
                        "basic scheme increased the dynamic instruction "
                        f"count: {conventional.dynamic} -> {basic.dynamic} "
                        "(it may not insert copies; it may only eliminate "
                        "pre-existing conversion copies)",
                    )
                )
        if basic is not None and advanced is not None and self.simulate:
            added = max(0, advanced.dynamic - basic.dynamic)
            slack = max(
                PROFIT_SLACK_FLOOR, PROFIT_SLACK_FRACTION * basic.cycles
            )
            bound = basic.cycles + self.params.o_copy * added + slack
            if advanced.cycles > bound:
                violations.append(
                    Violation(
                        "profit-bound",
                        f"advanced lost to basic beyond the copy-overhead "
                        f"bound: {advanced.cycles} cycles vs "
                        f"{basic.cycles} + {self.params.o_copy} * {added} "
                        f"+ slack {slack:.0f} = {bound:.0f}",
                    )
                )
        return case


def fuzz_run(
    seeds: int,
    start: int = 0,
    budget: float | None = None,
    oracle: DifferentialOracle | None = None,
    config: BuildConfig | None = None,
    on_case=None,
) -> FuzzReport:
    """Fuzz ``seeds`` programs (seeds ``start .. start+seeds-1``).

    Args:
        budget: Wall-clock budget in seconds; the campaign stops early
            (``report.budget_exhausted``) when exceeded.
        on_case: Optional callback ``(case) -> None`` invoked after each
            checked program (progress reporting, bundle writing).
    """
    oracle = oracle or DifferentialOracle()
    report = FuzzReport()
    t0 = time.monotonic()
    for seed in range(start, start + seeds):
        if budget is not None and time.monotonic() - t0 > budget:
            report.budget_exhausted = True
            break
        source = build_program(seed, config)
        case = oracle.check_source(source, seed=seed)
        report.seeds_run += 1
        if not case.ok:
            report.failures.append(case)
        if on_case is not None:
            on_case(case)
    report.elapsed = time.monotonic() - t0
    return report


def make_interesting(oracle: DifferentialOracle, kinds: set[str]):
    """An interestingness predicate for the shrinker: the oracle still
    reports at least one violation of one of ``kinds``."""

    def interesting(source: str) -> bool:
        case = oracle.check_source(source)
        return bool(kinds & {v.kind for v in case.violations})

    return interesting


def raise_on_failures(report: FuzzReport) -> None:
    """Raise :class:`FuzzViolationError` when a campaign found failures."""
    if report.ok:
        return
    lines = []
    for case in report.failures:
        for violation in case.violations:
            lines.append(f"  seed {case.seed}: {violation}")
    raise FuzzViolationError(
        f"{len(report.failures)} of {report.seeds_run} fuzzed programs "
        "violated the differential oracle:\n" + "\n".join(lines)
    )


__all__ = [
    "DifferentialOracle",
    "FuzzCase",
    "FuzzReport",
    "FUZZ_FUEL",
    "PROFIT_EPS",
    "Violation",
    "fuzz_run",
    "make_interesting",
    "raise_on_failures",
]
