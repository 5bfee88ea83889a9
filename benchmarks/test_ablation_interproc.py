"""Ablation — interprocedural FP-argument passing (§6.6 future work).

The paper suggests interprocedural analysis could "reduce some of the
copy overheads across calls by passing integer arguments in
floating-point registers".  This ablation measures the implemented
extension on the call-intensive benchmarks.
"""

import pytest

from repro.experiments.runner import run_benchmark

CASES = {"li": 8, "compress": 400, "perl": 1}


@pytest.fixture(scope="module")
def sweep():
    results = {}
    for name, scale in CASES.items():
        baseline = run_benchmark(name, "conventional", scale=scale)
        plain = run_benchmark(name, "advanced", scale=scale)
        ext = run_benchmark(name, "advanced", scale=scale, interprocedural=True)
        results[name] = {
            "plain": (
                plain.dynamic_instructions,
                plain.speedup_over(baseline),
                plain.mix["copies"],
            ),
            "interproc": (
                ext.dynamic_instructions,
                ext.speedup_over(baseline),
                ext.mix["copies"],
            ),
            "eliminated": ext.partition_summary.get("copies_eliminated", 0),
        }
    return results


def _kernel_case():
    """A kernel where the conditions do align: the caller computes the
    argument in FPa and the callee consumes it only in FPa."""
    from repro.ir.parser import parse_program
    from repro.partition.program import partition_program
    from repro.runtime.interp import run_program

    src = """
global acc 8
global data 256

func mix(1) {
entry:
  v0 = param 0
  v8 = li @acc
body:
  v1 = lw v8, 0
  v2 = addu v1, v0
  v3 = sll v2, 3
  v4 = xor v3, v0
  v5 = addu v4, v2
  v6 = sra v5, 1
  sw v6, v8, 0
  ret
}

func main(0) {
entry:
  v9 = li @data
  v0 = li 0
loop:
  v1 = sll v0, 2
  v2 = addu v9, v1
  v3 = lw v2, 0
  v4 = addiu v3, 5
  v5 = sll v4, 1
  v6 = addu v5, v4
  call mix(v6)
  v0 = addiu v0, 1
  v10 = slti v0, 64
  v11 = li 0
  bne v10, v11, loop
exit:
  ret
}
"""
    out = {}
    for flag in (False, True):
        program = parse_program(src)
        profile = run_program(program).profile
        program = parse_program(src)
        result = partition_program(
            program, "advanced", profile=profile, interprocedural=flag
        )
        run = run_program(program, collect_trace=True)
        out[flag] = (
            run.instructions,
            run.trace.dynamic_mix()["copies"],
            result.copies_eliminated,
        )
    return out


def test_interproc_ablation(sweep, save_table, benchmark):
    lines = ["Ablation: interprocedural FP-argument passing (advanced scheme)"]
    for name, data in sweep.items():
        for kind in ("plain", "interproc"):
            dyn, speedup, copies = data[kind]
            lines.append(
                f"{name:10s} {kind:9s} dyn={dyn:7d} copies={copies:6d} "
                f"speedup={100 * (speedup - 1):+5.1f}%"
            )
        lines.append(f"{name:10s} static copies eliminated: {data['eliminated']}")
    kernel = _kernel_case()
    lines.append(
        "kernel     plain     dyn=%7d copies=%6d" % kernel[False][:2]
    )
    lines.append(
        "kernel     interproc dyn=%7d copies=%6d (static eliminated: %d)"
        % kernel[True]
    )
    lines.append(
        "finding: on the SPECINT surrogates the extension's safety conditions"
    )
    lines.append(
        "rarely align (argument producers sit in INT), so it fires ~never —"
    )
    lines.append(
        "the paper's 'might be possible' hedge is warranted; the kernel row"
    )
    lines.append("shows it working where the conditions do hold.")
    save_table("ablation_interproc", "\n".join(lines))

    # where the conditions align, copies disappear
    assert kernel[True][1] < kernel[False][1]
    assert kernel[True][0] < kernel[False][0]
    assert kernel[True][2] >= 2

    for name, data in sweep.items():
        plain_dyn, plain_speedup, plain_copies = data["plain"]
        ext_dyn, ext_speedup, ext_copies = data["interproc"]
        # the extension may only remove instructions, never add them
        assert ext_dyn <= plain_dyn, name
        assert ext_copies <= plain_copies, name
        # and never costs performance
        assert ext_speedup > plain_speedup - 0.02, name

    benchmark.pedantic(
        lambda: run_benchmark(
            "li", "advanced", scale=CASES["li"], interprocedural=True
        ),
        rounds=1,
        iterations=1,
    )
