"""Parity tests: registered experiments against independent recomputations.

The engine-timed sweeps are recomputed point by point directly through the
engine registry, the table experiments are compared with the table row
builders, and the CLI's classic ``figure``/``table``/``ablation`` commands
must print byte-identical output to ``experiment run <name>``.
"""

from __future__ import annotations

import pytest

from repro.baselines.roofline import RooflinePlatform
from repro.baselines.specs import CPU_CORE_I7_5930K, GPU_TITAN_X, MOBILE_GPU_TEGRA_K1
from repro.cli import main
from repro.core.config import EIEConfig
from repro.engine import EngineRegistry
from repro.experiments import run_experiment
from repro.workloads.benchmarks import scaled_benchmarks
from repro.workloads.generator import WorkloadBuilder

SCALE = 64.0


@pytest.fixture(scope="module")
def builder() -> WorkloadBuilder:
    return WorkloadBuilder()


@pytest.fixture(scope="module")
def subset():
    specs = scaled_benchmarks(SCALE)
    return [specs["Alex-7"], specs["NT-We"]]


class TestLegacyFunctionParity:
    """Experiment records equal a direct recomputation of the same points."""

    def test_fifo_depth_against_direct_engine_runs(self, builder, subset):
        """Independent recomputation: the experiment cannot drift silently."""
        result = run_experiment(
            "fig8_fifo_depth", builder=builder, workloads=subset,
            grid={"fifo_depth": (1, 8)}, config={"num_pes": 16},
        )
        for record in result.records:
            spec = next(s for s in subset if s.name == record["benchmark"])
            workload = builder.build(spec, 16)
            config = EIEConfig(num_pes=16, fifo_depth=record["fifo_depth"])
            engine = EngineRegistry.create("cycle", config)
            stats = engine.run(engine.prepare(workload)).stats
            assert record["load_balance_efficiency"] == stats.load_balance_efficiency

    def test_fig11_cycles_against_direct_engine_runs(self, builder, subset):
        """Independent recomputation of every Figure 11 point's cycle count."""
        result = run_experiment(
            "fig11_scalability", builder=builder, workloads=subset,
            grid={"num_pes": (1, 4, 16)},
        )
        cycles = {}
        for record in result.records:
            spec = next(s for s in subset if s.name == record["benchmark"])
            workload = builder.build(spec, record["num_pes"])
            engine = EngineRegistry.create("cycle", EIEConfig(num_pes=record["num_pes"]))
            stats = engine.run(engine.prepare(workload)).stats
            assert record["total_cycles"] == stats.total_cycles
            cycles[(spec.name, record["num_pes"])] = stats.total_cycles
        for record in result.records:
            baseline = cycles[(record["benchmark"], 1)]
            assert record["speedup_vs_1pe"] == baseline / record["total_cycles"]

    def test_tables_match_legacy_row_builders(self):
        # Table V is exercised at full scale by the benchmark harness only
        # (its AlexNet-FC7 workload is too heavy for the unit suite).
        from repro.analysis.tables import table1_rows, table2_rows, table3_rows

        assert run_experiment("table1_energy").records == table1_rows()
        assert run_experiment("table2_area_power").records == table2_rows()
        assert run_experiment("table3_benchmarks").records == table3_rows()

    def test_table4_matches_legacy_rows(self, builder, subset):
        """Every Table IV cell recomputed: roofline platforms and EIE workloads."""
        config = EIEConfig(num_pes=16)
        result = run_experiment(
            "table4_wallclock", builder=builder, workloads=subset, config={"num_pes": 16}
        )
        rows = {(row["platform"], row["batch"], row["kernel"]): row for row in result.records}
        assert len(rows) == len(result.records) == 14
        platforms = {
            "CPU": RooflinePlatform(CPU_CORE_I7_5930K),
            "GPU": RooflinePlatform(GPU_TITAN_X),
            "mGPU": RooflinePlatform(MOBILE_GPU_TEGRA_K1),
        }
        for spec in subset:
            for name, platform in platforms.items():
                for batch in (1, 64):
                    for kernel in ("dense", "sparse"):
                        time_s = platform.time_s(spec, compressed=(kernel == "sparse"), batch=batch)
                        assert rows[(name, batch, kernel)][spec.name] == time_s * 1e6
            stats = WorkloadBuilder().build(spec, config.num_pes).simulate(config)
            assert rows[("EIE", 1, "theoretical")][spec.name] == stats.theoretical_time_s * 1e6
            assert rows[("EIE", 1, "actual")][spec.name] == stats.time_s * 1e6


class TestCliParity:
    """`repro figure/table/ablation` and `repro experiment run` print the same bytes."""

    def _capture(self, capsys, argv) -> str:
        assert main(argv) == 0
        return capsys.readouterr().out

    @pytest.mark.parametrize(
        "legacy_argv, experiment_argv",
        [
            (
                ["figure", "8", "--scale", "64", "--benchmarks", "Alex-7", "--pes", "16"],
                ["experiment", "run", "fig8_fifo_depth", "--set", "scale=64",
                 "--set", "workloads=Alex-7", "--set", "config.num_pes=16"],
            ),
            (
                ["figure", "12", "--scale", "64", "--benchmarks", "Alex-7"],
                ["experiment", "run", "fig12_padding_zeros", "--set", "scale=64",
                 "--set", "workloads=Alex-7"],
            ),
            (["table", "1"], ["experiment", "run", "table1_energy"]),
            (["table", "2"], ["experiment", "run", "table2_area_power"]),
            (["table", "3"], ["experiment", "run", "table3_benchmarks"]),
            (
                ["ablation", "index-width", "--scale", "64", "--benchmarks", "Alex-7",
                 "--pes", "16"],
                ["experiment", "run", "ablation_index_width", "--set", "scale=64",
                 "--set", "workloads=Alex-7", "--set", "config.num_pes=16"],
            ),
        ],
    )
    def test_legacy_command_equals_experiment_run(self, capsys, legacy_argv, experiment_argv):
        legacy_output = self._capture(capsys, legacy_argv)
        experiment_output = self._capture(capsys, experiment_argv)
        assert experiment_output == legacy_output
