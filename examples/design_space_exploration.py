#!/usr/bin/env python3
"""Design-space exploration: reproduce the paper's architecture decisions.

EIE's design fixes three parameters after a design-space study:

* activation FIFO depth = 8 (Figure 8),
* Spmat SRAM interface width = 64 bits (Figure 9),
* arithmetic precision = 16-bit fixed point (Figure 10),

and Section VI-C / Figures 11-13 study how the design scales from 1 to 256
PEs.  This example runs all four sweeps on a subset of the full-scale
benchmarks and prints the same trade-off curves, ending with the design point
the data selects.

Each sweep runs a registered experiment (`fig8_fifo_depth`,
`fig9_sram_width`, `fig10_precision`, `fig11_scalability`) with a narrowed
grid and reads its `records`, one flat dictionary per grid point — the one
shape every experiment returns.  See examples/declarative_experiments.py
for driving the same sweeps from JSON specs with `--jobs N` concurrency.

Run with:  python examples/design_space_exploration.py
"""

from __future__ import annotations

from collections import defaultdict

from repro.analysis.report import format_table, record_series, render_series
from repro.experiments import run_experiment
from repro.workloads.generator import WorkloadBuilder

#: Subset of Table III benchmarks used for the interactive sweeps.
BENCHMARKS = ("Alex-6", "Alex-7", "NT-We")


def explore_fifo_depth(builder: WorkloadBuilder) -> int:
    print("=== Activation FIFO depth (Figure 8) ===")
    depths = (1, 2, 4, 8, 16, 32)
    result = run_experiment("fig8_fifo_depth", builder=builder, workloads=BENCHMARKS,
                            grid={"fifo_depth": depths}, config={"num_pes": 64})
    sweep = record_series(result.records, "fifo_depth", "load_balance_efficiency")
    print(render_series(sweep, x_label="FIFO depth"))
    # Pick the depth after which doubling buys less than 5 percentage points
    # of efficiency on average (the paper's "diminishing returns beyond 8").
    chosen = depths[-1]
    for depth, next_depth in zip(depths, depths[1:]):
        average_gain = sum(sweep[b][next_depth] - sweep[b][depth] for b in BENCHMARKS) / len(BENCHMARKS)
        if average_gain < 0.05:
            chosen = depth
            break
    print(f"-> chosen FIFO depth: {chosen} (paper chooses 8)\n")
    return chosen


def explore_sram_width(builder: WorkloadBuilder) -> int:
    print("=== Spmat SRAM width (Figure 9) ===")
    result = run_experiment("fig9_sram_width", builder=builder,
                            workloads=("Alex-6", "Alex-7", "Alex-8"),
                            grid={"width_bits": (32, 64, 128, 256, 512)},
                            config={"num_pes": 64})
    totals: dict[int, float] = defaultdict(float)
    for record in result.records:
        totals[record["width_bits"]] += record["total_energy_nj"]
    print(format_table(["Width (bits)", "Total Spmat read energy (nJ)"], sorted(totals.items())))
    chosen = min(totals, key=totals.get)
    print(f"-> chosen SRAM width: {chosen} bits (paper chooses 64)\n")
    return chosen


def explore_precision() -> str:
    print("=== Arithmetic precision (Figure 10) ===")
    records = run_experiment("fig10_precision", params={"num_samples": 256}).records
    print(format_table(
        ["Precision", "Accuracy", "Multiply energy (pJ)"],
        [[r["precision"], f"{r['accuracy']:.3f}", f"{r['multiply_energy_pj']:.2f}"]
         for r in records],
    ))
    # Pick the cheapest precision within 1% accuracy of float32.
    reference = next(r for r in records if r["precision"] == "float32")
    viable = [r for r in records if r["accuracy"] >= reference["accuracy"] - 0.01]
    chosen = min(viable, key=lambda r: r["multiply_energy_pj"])["precision"]
    print(f"-> chosen precision: {chosen} (paper chooses 16-bit fixed point)\n")
    return chosen


def explore_scalability(builder: WorkloadBuilder) -> None:
    print("=== Scalability 1-256 PEs (Figures 11-13) ===")
    result = run_experiment("fig11_scalability", builder=builder, workloads=BENCHMARKS,
                            grid={"num_pes": (1, 16, 64, 256)})
    speedups: dict[str, dict[int, float]] = {}
    balance: dict[str, dict[int, float]] = {}
    for r in result.records:
        speedups.setdefault(r["benchmark"], {})[r["num_pes"]] = round(r["speedup_vs_1pe"], 1)
        balance.setdefault(r["benchmark"], {})[r["num_pes"]] = round(
            r["load_balance_efficiency"], 3
        )
    print("Speedup versus 1 PE:")
    print(render_series(speedups, x_label="# PEs"))
    print("\nLoad-balance efficiency:")
    print(render_series(balance, x_label="# PEs"))
    print("-> large layers scale near-linearly; NT-We saturates beyond 32-64 PEs\n")


def main() -> None:
    builder = WorkloadBuilder()
    depth = explore_fifo_depth(builder)
    width = explore_sram_width(builder)
    precision = explore_precision()
    explore_scalability(builder)
    print("=== Selected design point ===")
    print(f"FIFO depth = {depth}, Spmat SRAM width = {width} bits, precision = {precision}, "
          f"64 PEs @ 800 MHz")


if __name__ == "__main__":
    main()
