"""Direct tests for analysis/energy_efficiency.py (Figure 7's data layer).

Golden-value and shape tests for :func:`layer_energies` and the records of
the ``"fig7_energy_efficiency"`` experiment on scaled layers, plus spec-level
parity between an ``EIEConfig`` object and the equivalent JSON overlay.
"""

from __future__ import annotations

import pytest

from repro.analysis.energy_efficiency import layer_energies
from repro.analysis.report import geometric_mean
from repro.analysis.speedup import GEOMEAN_KEY, SPEEDUP_CONFIGS
from repro.baselines.roofline import RooflinePlatform
from repro.baselines.specs import CPU_CORE_I7_5930K, GPU_TITAN_X
from repro.core.config import EIEConfig
from repro.experiments import run_experiment
from repro.hardware.area import chip_power_w
from repro.workloads.benchmarks import scaled_benchmarks
from repro.workloads.generator import WorkloadBuilder

SCALE = 64.0


@pytest.fixture(scope="module")
def builder() -> WorkloadBuilder:
    return WorkloadBuilder()


@pytest.fixture(scope="module")
def specs():
    return scaled_benchmarks(SCALE)


@pytest.fixture(scope="module")
def subset(specs):
    return [specs["Alex-7"], specs["NT-We"]]


@pytest.fixture(scope="module")
def eie_config() -> EIEConfig:
    return EIEConfig(num_pes=16)


class TestLayerEnergies:
    @pytest.fixture(scope="class")
    def energies(self, builder, specs, eie_config):
        return layer_energies(specs["Alex-7"], builder, eie_config)

    def test_covers_all_figure7_configurations(self, energies):
        assert set(energies) == set(SPEEDUP_CONFIGS)

    def test_all_energies_positive(self, energies):
        assert all(value > 0.0 for value in energies.values())

    def test_cpu_dense_energy_is_time_times_power(self, builder, specs, energies):
        """Golden value: CPU energy = roofline dense time x measured power."""
        cpu = RooflinePlatform(CPU_CORE_I7_5930K)
        expected = cpu.dense_time_s(specs["Alex-7"], 1) * CPU_CORE_I7_5930K.power_w
        assert energies["CPU Dense"] == expected

    def test_gpu_compressed_energy_is_time_times_power(self, builder, specs, energies):
        gpu = RooflinePlatform(GPU_TITAN_X)
        expected = gpu.sparse_time_s(specs["Alex-7"], 1) * GPU_TITAN_X.power_w
        assert energies["GPU Compressed"] == expected

    def test_eie_energy_is_simulated_time_times_chip_power(
        self, builder, specs, eie_config, energies
    ):
        """Golden value: EIE energy = cycle-model time x Table II chip power."""
        workload = builder.build(specs["Alex-7"], eie_config.num_pes)
        stats = workload.simulate(eie_config)
        assert energies["EIE"] == stats.time_s * chip_power_w(eie_config.num_pes)

    def test_compression_reduces_energy_on_every_platform(self, energies):
        assert energies["CPU Compressed"] < energies["CPU Dense"]
        assert energies["GPU Compressed"] < energies["GPU Dense"]
        assert energies["mGPU Compressed"] < energies["mGPU Dense"]


class TestEnergyEfficiencyTable:
    @pytest.fixture(scope="class")
    def table(self, builder, subset, eie_config):
        result = run_experiment(
            "fig7_energy_efficiency", builder=builder, workloads=subset, config=eie_config
        )
        return {record["benchmark"]: record for record in result.records}

    def test_shape_benchmarks_plus_geomean(self, table, subset):
        assert set(table) == {spec.name for spec in subset} | {GEOMEAN_KEY}
        for row in table.values():
            assert set(row) == {"benchmark", *SPEEDUP_CONFIGS}

    def test_cpu_dense_is_the_unit_baseline(self, table):
        for name, row in table.items():
            assert row["CPU Dense"] == pytest.approx(1.0)

    def test_efficiency_is_energy_ratio(self, builder, subset, eie_config, table):
        """Golden value: each cell is CPU-dense energy over that config's energy."""
        for spec in subset:
            energies = layer_energies(spec, builder, eie_config)
            for config_name in SPEEDUP_CONFIGS:
                expected = energies["CPU Dense"] / energies[config_name]
                assert table[spec.name][config_name] == expected

    def test_geomean_row_is_geometric_mean_of_benchmarks(self, table, subset):
        for config_name in SPEEDUP_CONFIGS:
            expected = geometric_mean(
                [table[spec.name][config_name] for spec in subset]
            )
            assert table[GEOMEAN_KEY][config_name] == expected

    def test_eie_dominates_every_configuration(self, table):
        for row in table.values():
            assert row["EIE"] == max(row[name] for name in SPEEDUP_CONFIGS)

    def test_spec_level_parity_with_experiment(self, builder, subset, eie_config, table):
        """A JSON-style ``config`` overlay reproduces the EIEConfig run bit for bit."""
        result = run_experiment(
            "fig7_energy_efficiency", builder=builder, workloads=subset,
            config={"num_pes": eie_config.num_pes},
        )
        assert {record["benchmark"]: record for record in result.records} == table
