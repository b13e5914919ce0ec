"""Figure 11: speedup versus number of PEs (1 to 256).

Runs the ``"fig11_scalability"`` experiment (all nine full-size benchmarks at
FIFO depth 8, PE counts 1-256) and checks the scalability conclusions:
speedup is near-linear for the large layers (Alex/VGG) and saturates for
NT-We, whose 600 rows spread too thinly over many PEs.

Every sweep point is timed by the registry's ``"cycle"`` engine (one engine
per PE count, preparations shared through the runner's session).
"""

from __future__ import annotations

from repro.analysis.report import record_series
from repro.workloads.benchmarks import BENCHMARK_NAMES

from benchmarks.conftest import write_result


def test_fig11_scalability(benchmark, runner, results_dir):
    """Regenerate Figure 11."""
    result = benchmark.pedantic(
        runner.run, args=("fig11_scalability",), rounds=1, iterations=1
    )
    write_result(results_dir, result)
    speedups = record_series(result.records, "num_pes", "speedup_vs_1pe")

    for name in BENCHMARK_NAMES:
        # Speedup grows with PE count everywhere.
        ordered = [speedups[name][n] for n in sorted(speedups[name])]
        assert all(b >= a - 1e-9 for a, b in zip(ordered, ordered[1:]))
    # Large layers scale nearly linearly to 64 PEs (>= ~60% efficiency).
    for name in ("Alex-6", "Alex-7", "VGG-6", "NT-Wd"):
        assert speedups[name][64] > 0.6 * 64
    # NT-We saturates: its speedup at 256 PEs is far below linear.
    assert speedups["NT-We"][256] < 0.5 * 256
    assert speedups["NT-We"][256] < speedups["Alex-7"][256]
