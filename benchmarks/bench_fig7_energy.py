"""Figure 7: energy efficiency over CPU dense (batch 1).

Regenerates the energy-efficiency chart through the
``"fig7_energy_efficiency"`` experiment of :mod:`repro.experiments` and
checks the headline claims: EIE is several orders of magnitude more energy
efficient than CPU/GPU/mGPU, and compression alone (on general-purpose
hardware) only buys single-digit factors.
"""

from __future__ import annotations

from repro.analysis.speedup import GEOMEAN_KEY, SPEEDUP_CONFIGS
from repro.baselines.reference import PAPER_ENERGY_EFFICIENCY_GEOMEAN
from repro.workloads.benchmarks import BENCHMARK_NAMES

from benchmarks.conftest import write_result


def test_fig7_energy_efficiency(benchmark, runner, results_dir):
    """Regenerate Figure 7."""
    result = benchmark.pedantic(
        runner.run, args=("fig7_energy_efficiency",), rounds=1, iterations=1
    )
    table = {record["benchmark"]: record for record in result.records}
    extra = (
        f"Geometric-mean EIE energy efficiency: ours = {table[GEOMEAN_KEY]['EIE']:.0f}x, "
        f"paper = {PAPER_ENERGY_EFFICIENCY_GEOMEAN['EIE']:.0f}x"
    )
    write_result(results_dir, result, extra=extra)

    geomean = table[GEOMEAN_KEY]
    assert geomean["EIE"] > 5_000.0            # several orders of magnitude
    assert geomean["EIE"] > 100 * geomean["GPU Compressed"]
    assert geomean["CPU Compressed"] < 20.0
    for name in BENCHMARK_NAMES:
        assert table[name]["EIE"] == max(table[name][config] for config in SPEEDUP_CONFIGS)
