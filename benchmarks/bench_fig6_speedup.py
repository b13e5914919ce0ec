"""Figure 6: speedup over CPU dense (batch 1) for all seven configurations.

Regenerates the nine-benchmark x seven-configuration speedup chart plus the
geometric mean through the ``"fig6_speedup"`` experiment of
:mod:`repro.experiments`, and checks the paper's qualitative claims: EIE wins
on every benchmark, the geometric-mean speedup over the CPU is in the
hundreds, the GPU sits in between, and compression alone (without EIE) buys
only a few x.
"""

from __future__ import annotations

from repro.analysis.report import format_table
from repro.analysis.speedup import GEOMEAN_KEY, SPEEDUP_CONFIGS
from repro.baselines.reference import PAPER_EIE_SPEEDUPS, PAPER_SPEEDUP_GEOMEAN
from repro.workloads.benchmarks import BENCHMARK_NAMES

from benchmarks.conftest import write_result


def test_fig6_speedup_over_cpu(benchmark, runner, results_dir):
    """Regenerate Figure 6."""
    result = benchmark.pedantic(runner.run, args=("fig6_speedup",), rounds=1, iterations=1)
    table = {record["benchmark"]: record for record in result.records}
    extra = "EIE speedups versus the paper (Figure 6, last group):\n"
    extra += format_table(
        ["Benchmark", "ours", "paper", "ratio"],
        [
            [name, table[name]["EIE"], PAPER_EIE_SPEEDUPS[name],
             table[name]["EIE"] / PAPER_EIE_SPEEDUPS[name]]
            for name in BENCHMARK_NAMES
        ],
    )
    extra += f"\n\nGeometric-mean EIE speedup: ours = {table[GEOMEAN_KEY]['EIE']:.0f}x, " \
             f"paper = {PAPER_SPEEDUP_GEOMEAN['EIE']:.0f}x"
    write_result(results_dir, result, extra=extra)

    geomean = table[GEOMEAN_KEY]
    # Shape checks, not exact matches.
    assert geomean["EIE"] > 100.0
    assert geomean["EIE"] > geomean["GPU Compressed"] > geomean["GPU Dense"]
    assert geomean["CPU Compressed"] < 10.0           # compression alone buys only a few x
    assert geomean["mGPU Dense"] < 2.0                # the mobile GPU is no faster than the CPU
    for name in BENCHMARK_NAMES:
        assert table[name]["EIE"] == max(table[name][config] for config in SPEEDUP_CONFIGS)
