"""Figure 12: real work / total work (padding-zero overhead) versus #PEs.

With more PEs each PE's slice of a column is shorter, so zero runs longer
than 15 (which force padding zeros) become rarer and the fraction of useful
work rises — the effect that offsets the worsening load balance in Figure 13.
Regenerated by the ``"fig12_padding_zeros"`` experiment (a whole-matrix
statistic: no engine runs required).
"""

from __future__ import annotations

from repro.analysis.report import record_series
from repro.workloads.benchmarks import BENCHMARK_NAMES

from benchmarks.conftest import write_result


def test_fig12_padding_zero_overhead(benchmark, runner, results_dir):
    """Regenerate Figure 12."""
    result = benchmark.pedantic(
        runner.run, args=("fig12_padding_zeros",), rounds=1, iterations=1
    )
    write_result(results_dir, result)
    real_work = record_series(result.records, "num_pes", "real_work_fraction")

    for name in BENCHMARK_NAMES:
        fractions = [real_work[name][n] for n in sorted(real_work[name])]
        # Padding overhead shrinks (real work fraction grows) with more PEs.
        assert all(b >= a - 1e-9 for a, b in zip(fractions, fractions[1:]))
        assert 0.0 < fractions[0] <= 1.0
        # With 256 PEs the local columns are so short that padding largely vanishes.
        assert real_work[name][256] > 0.9
    # The sparsest layers (VGG-6/7 at 4% density) have the most padding at 1 PE.
    sparsest = min(real_work[name][1] for name in BENCHMARK_NAMES)
    assert min(real_work["VGG-6"][1], real_work["VGG-7"][1]) == sparsest
    assert real_work["VGG-6"][1] < real_work["Alex-6"][1] < real_work["Alex-8"][1]
