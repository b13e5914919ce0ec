"""Tests for benchmark specs, synthetic generators and the workload builder."""

from __future__ import annotations

import hashlib
from dataclasses import replace

import numpy as np
import pytest

from repro.compression.csc import InterleavedCSC
from repro.core.config import EIEConfig
from repro.errors import ConfigurationError, WorkloadError
from repro.experiments import ExperimentRunner
from repro.models import build_model
from repro.models.catalog import LSTM_GATE_NAMES
from repro.nn.layers import sigmoid, tanh
from repro.store import ArtifactStore
from repro.workloads import generator
from repro.workloads.benchmarks import ALL_BENCHMARKS, BENCHMARK_NAMES, LayerSpec, get_benchmark, scaled_benchmarks
from repro.workloads.generator import WorkloadBuilder
from repro.workloads.synthetic import (
    generate_activations,
    generate_dense_weights,
    generate_sparse_pattern,
)


class TestBenchmarkSpecs:
    def test_all_nine_benchmarks_present(self):
        assert len(BENCHMARK_NAMES) == 9
        assert set(BENCHMARK_NAMES) == set(ALL_BENCHMARKS)

    def test_table3_alex6(self):
        spec = get_benchmark("Alex-6")
        assert (spec.input_size, spec.output_size) == (9216, 4096)
        assert spec.weight_density == pytest.approx(0.09)
        assert spec.activation_density == pytest.approx(0.351)

    def test_table3_vgg6_and_nt(self):
        assert get_benchmark("VGG-6").input_size == 25088
        assert get_benchmark("NT-Wd").output_size == 8791
        assert get_benchmark("NT-We").activation_density == 1.0

    def test_flop_fraction_matches_paper_order_of_magnitude(self):
        # Table III FLOP% is roughly weight density times activation density.
        assert get_benchmark("Alex-6").flop_fraction == pytest.approx(0.03, abs=0.01)
        assert get_benchmark("VGG-6").flop_fraction == pytest.approx(0.01, abs=0.01)

    def test_unknown_benchmark_rejected(self):
        with pytest.raises(WorkloadError):
            get_benchmark("Alex-9")

    def test_scaled_preserves_densities(self):
        scaled = get_benchmark("Alex-6").scaled(64)
        assert scaled.weight_density == get_benchmark("Alex-6").weight_density
        assert scaled.input_size == 9216 // 64
        assert scaled.rows == scaled.output_size

    def test_scaled_benchmarks_cover_all(self):
        assert set(scaled_benchmarks(128)) == set(BENCHMARK_NAMES)

    def test_seeds_differ_between_benchmarks(self):
        assert get_benchmark("Alex-6").weight_seed != get_benchmark("Alex-7").weight_seed
        assert get_benchmark("Alex-6").weight_seed != get_benchmark("Alex-6").activation_seed

    def test_invalid_spec_rejected(self):
        with pytest.raises(WorkloadError):
            LayerSpec(name="bad", input_size=0, output_size=4, weight_density=0.1, activation_density=0.5)
        with pytest.raises(WorkloadError):
            LayerSpec(name="bad", input_size=4, output_size=4, weight_density=0.0, activation_density=0.5)


class TestSyntheticGenerators:
    def test_pattern_density_close_to_target(self):
        pattern = generate_sparse_pattern(400, 300, 0.1, rng=1)
        assert pattern.density == pytest.approx(0.1, abs=0.01)
        assert pattern.shape == (400, 300)

    def test_pattern_rows_sorted_within_columns(self):
        pattern = generate_sparse_pattern(100, 50, 0.2, rng=2)
        for column in range(0, 50, 7):
            rows = pattern.column_rows(column)
            assert np.all(np.diff(rows) > 0)

    def test_pattern_column_nnz_sums_to_total(self):
        pattern = generate_sparse_pattern(64, 64, 0.15, rng=3)
        assert pattern.column_nnz().sum() == pattern.nnz

    def test_pattern_deterministic(self):
        first = generate_sparse_pattern(64, 32, 0.1, rng=7)
        second = generate_sparse_pattern(64, 32, 0.1, rng=7)
        assert np.array_equal(first.row_indices, second.row_indices)

    def test_pattern_dense_mask_roundtrip(self):
        pattern = generate_sparse_pattern(32, 16, 0.2, rng=5)
        mask = pattern.to_dense_mask()
        assert mask.sum() == pattern.nnz

    def test_pattern_validation(self):
        with pytest.raises(WorkloadError):
            generate_sparse_pattern(0, 4, 0.5)
        with pytest.raises(WorkloadError):
            generate_sparse_pattern(4, 4, 0.0)

    def test_activation_density_and_nonnegativity(self):
        activations = generate_activations(2000, 0.3, rng=4)
        density = np.count_nonzero(activations) / activations.size
        assert density == pytest.approx(0.3, abs=0.05)
        assert np.all(activations >= 0.0)

    def test_activation_always_has_a_nonzero(self):
        activations = generate_activations(5, 0.01, rng=6)
        assert np.count_nonzero(activations) >= 1

    def test_dense_weights_match_spec_density(self, tiny_spec):
        weights = generate_dense_weights(tiny_spec)
        density = np.count_nonzero(weights) / weights.size
        assert density == pytest.approx(tiny_spec.weight_density, abs=0.05)
        assert weights.shape == (tiny_spec.rows, tiny_spec.cols)


class TestWorkloadBuilder:
    def test_work_matrix_matches_explicit_encoding(self, tiny_spec):
        builder = WorkloadBuilder()
        workload = builder.build(tiny_spec, num_pes=4)
        # Rebuild the same matrix explicitly and compare the touched columns.
        pattern = builder.pattern(tiny_spec)
        dense = np.zeros((tiny_spec.rows, tiny_spec.cols))
        columns = np.repeat(np.arange(tiny_spec.cols), pattern.column_nnz())
        dense[pattern.row_indices, columns] = 1.0
        explicit = InterleavedCSC.from_dense(dense, num_pes=4)
        counts = explicit.entries_per_pe_column()
        assert np.array_equal(workload.work, counts[:, workload.nonzero_columns])
        assert workload.total_entries == explicit.num_entries
        assert workload.total_padding == explicit.num_padding_zeros

    def test_cache_returns_same_pattern(self, tiny_spec):
        builder = WorkloadBuilder()
        assert builder.pattern(tiny_spec) is builder.pattern(tiny_spec)
        builder.clear_cache()
        assert builder.pattern(tiny_spec) is not None

    def test_workload_properties(self, tiny_spec):
        workload = WorkloadBuilder().build(tiny_spec, num_pes=4)
        assert workload.broadcasts == workload.nonzero_columns.shape[0]
        assert workload.touched_entries == workload.work.sum()
        assert 0.0 < workload.real_work_fraction <= 1.0
        assert workload.dense_macs == tiny_spec.dense_macs

    def test_simulate_checks_pe_count(self, tiny_spec):
        workload = WorkloadBuilder().build(tiny_spec, num_pes=4)
        with pytest.raises(WorkloadError):
            workload.simulate(EIEConfig(num_pes=8))

    def test_simulate_runs(self, tiny_spec):
        workload = WorkloadBuilder().build(tiny_spec, num_pes=4)
        stats = workload.simulate(EIEConfig(num_pes=4, fifo_depth=8))
        assert stats.total_cycles > 0
        assert stats.entries_processed == workload.touched_entries

    def test_invalid_pe_count_rejected(self, tiny_spec):
        with pytest.raises(WorkloadError):
            WorkloadBuilder().build(tiny_spec, num_pes=0)

    def test_caches_distinguish_seeds(self, tiny_spec):
        # Two specs that differ only in seed must not share any cache entry.
        other = replace(tiny_spec, seed=tiny_spec.seed + 1)
        builder = WorkloadBuilder()
        builder.build(tiny_spec, num_pes=4)
        shared = builder.build(other, num_pes=4)
        fresh = WorkloadBuilder().build(other, num_pes=4)
        assert shared.total_entries == fresh.total_entries
        assert np.array_equal(shared.work, fresh.work)
        assert np.array_equal(shared.nonzero_columns, fresh.nonzero_columns)
        assert np.array_equal(builder.pattern(other).row_indices,
                              WorkloadBuilder().pattern(other).row_indices)
        assert np.array_equal(builder.activations(other), WorkloadBuilder().activations(other))


def _sha256(array: np.ndarray) -> str:
    return hashlib.sha256(array.tobytes()).hexdigest()


#: ``(benchmark, scale, num_pes) -> (sha256 of work, padding_work,
#: nonzero_columns, total_entries, total_padding)`` of a fresh build.
GOLDEN_WORKLOADS = {
    ("Alex-8", 8, 2): (
        "b7e15c5a7f2db8bcd6eeb0f9f02a4e9a572fe96e4249550c6182ec9745d4906b",
        "c7e0d86bcd5c3b35ec18bb0170f1c1bf0a455f4d15e8fa3a8b5dda2cac0c7e98",
        "456e1974c4035951999d952d442455884cfaa4331da01dbb2721d20222064056",
        16219, 104,
    ),
    ("Alex-8", 8, 5): (
        "65f1e69b63d02b5483336cbf4727d5aa8f6ca811618d0169253d4922981d849f",
        "4e427938fc53f9d46eecb9dc20c1a5ee6facfff3c6d66e93341eb0926d8a5dd1",
        "456e1974c4035951999d952d442455884cfaa4331da01dbb2721d20222064056",
        16175, 60,
    ),
    ("VGG-7", 16, 2): (
        "be7188c8be2e68225ba8c0d88a017a95f39706914899c898e010593776d3c07a",
        "55ab70e3d332132c8aad2c556ba3bb628a1da1d7836d69933af29230584dd2c0",
        "a7e57b311f31ad0c837a21342b40b29964d8cb1b5b6da4e5356e13eaeef9f697",
        4726, 2075,
    ),
    ("VGG-7", 16, 5): (
        "dd48d51ae2b2b0b76960aa692966df27dde7b00b9fb165d4c01c3e528981ead1",
        "3e72a1c7b3d6788503860fd2e8e1acdec642fb32aa170dd6f0ddbe96a507b25e",
        "a7e57b311f31ad0c837a21342b40b29964d8cb1b5b6da4e5356e13eaeef9f697",
        3888, 1237,
    ),
    ("NT-LSTM", 16, 2): (
        "e286575b13c45d133e526f957fccce95bd4e70fb54fc671e912966651c646130",
        "352505d2c79766f2d59876c8eda60460fc24b1b6455e04e1d639b18a56e4fd51",
        "b2dcd08745a4691b93a2cee8346844f207b7e15388a91e0477dd86a849540459",
        1284, 195,
    ),
    ("NT-LSTM", 16, 5): (
        "e5fbd2ba41af271f38745ace030df1b30b8fd01828b3426fa4b8b39df7aba842",
        "6b43465677282935bf1d46c2f8ef5054a1cadc79517f2ba59ba874dc2e1a0cd5",
        "b2dcd08745a4691b93a2cee8346844f207b7e15388a91e0477dd86a849540459",
        1197, 108,
    ),
}


class TestGoldenWorkloads:
    """Pins the content the ``workloads`` store kind serves.

    Stored workloads are keyed by spec, PE count and
    ``repro.workloads.generator.WORKLOAD_FORMAT``, not by the code that built
    them.  If a change to ``generate_sparse_pattern``,
    ``generate_activations`` or ``interleaved_entry_counts`` breaks this pin,
    bump ``WORKLOAD_FORMAT`` together with the pin, or every existing store
    keeps serving the old workloads.
    """

    @pytest.mark.parametrize("point", sorted(GOLDEN_WORKLOADS))
    def test_fresh_build_matches_golden(self, point):
        name, scale, num_pes = point
        workload = WorkloadBuilder().build(get_benchmark(name).scaled(scale), num_pes)
        arrays = (workload.work, workload.padding_work, workload.nonzero_columns)
        assert all(array.dtype == np.int64 for array in arrays)
        assert (
            *(_sha256(array) for array in arrays),
            workload.total_entries,
            workload.total_padding,
        ) == GOLDEN_WORKLOADS[point]
        assert workload.true_nonzeros == workload.total_entries - workload.total_padding


def _assert_same_workload(loaded, built) -> None:
    for name in ("work", "padding_work", "nonzero_columns"):
        assert getattr(loaded, name).dtype == np.int64
        assert np.array_equal(getattr(loaded, name), getattr(built, name))
    for name in ("num_pes", "total_entries", "total_padding", "true_nonzeros"):
        assert getattr(loaded, name) == getattr(built, name)
    assert loaded.spec == built.spec


class TestWorkloadStore:
    @pytest.fixture
    def spec(self):
        return get_benchmark("VGG-7").scaled(16)

    def test_loaded_workload_equals_a_fresh_build(self, tmp_path, spec, monkeypatch):
        built = WorkloadBuilder(store=ArtifactStore(tmp_path)).build(spec, 5)
        assert len(ArtifactStore(tmp_path).entries("workloads")) == 1

        def no_pattern(*args, **kwargs):
            raise AssertionError("a stored workload must not regenerate its pattern")

        monkeypatch.setattr(generator, "generate_sparse_pattern", no_pattern)
        store = ArtifactStore(tmp_path)
        loaded = WorkloadBuilder(store=store).build(spec, 5)
        _assert_same_workload(loaded, built)
        assert store.stats()["by_kind"]["workloads"]["hits"] == 1

    def test_key_covers_seed_pe_count_and_max_run(self, tmp_path, spec):
        store = ArtifactStore(tmp_path)
        builder = WorkloadBuilder(store=store)
        builder.build(spec, 5)
        builder.build(spec, 2)
        builder.build(replace(spec, seed=spec.seed + 1), 5)
        WorkloadBuilder(max_run=7, store=store).build(spec, 5)
        assert len(store.entries("workloads")) == 4
        assert store.stats()["by_kind"]["workloads"]["hits"] == 0

    @pytest.mark.parametrize("damage", ["truncate", "flip"])
    def test_corrupt_entry_is_an_error_and_a_miss(self, tmp_path, spec, damage):
        built = WorkloadBuilder(store=ArtifactStore(tmp_path)).build(spec, 2)
        (path,) = ArtifactStore(tmp_path).entries("workloads")
        data = bytearray(path.read_bytes())
        if damage == "truncate":
            data = data[: len(data) // 2]
        else:
            middle = len(data) // 2
            data[middle:middle + 16] = bytes(value ^ 0xA5 for value in data[middle:middle + 16])
        path.write_bytes(bytes(data))

        store = ArtifactStore(tmp_path)
        rebuilt = WorkloadBuilder(store=store).build(spec, 2)
        counters = store.stats()["by_kind"]["workloads"]
        assert (counters["errors"], counters["misses"], counters["hits"]) == (1, 1, 0)
        assert counters["stores"] == 1  # recomputed and republished
        _assert_same_workload(rebuilt, built)
        reloaded = WorkloadBuilder(store=ArtifactStore(tmp_path)).build(spec, 2)
        _assert_same_workload(reloaded, built)

    def test_inconsistent_entry_is_rejected(self, tmp_path, spec):
        store = ArtifactStore(tmp_path)
        built = WorkloadBuilder(store=store).build(spec, 2)
        (path,) = store.entries("workloads")
        key = path.stem
        # A readable entry whose arrays do not match its PE count.
        store.store_arrays(
            "workloads", key,
            {"total_entries": 0, "total_padding": 0},
            {"work": np.zeros((3, 1), dtype=np.int32),
             "padding_work": np.zeros((3, 1), dtype=np.int32),
             "nonzero_columns": np.zeros(1, dtype=np.int64)},
        )
        fresh = ArtifactStore(tmp_path)
        _assert_same_workload(WorkloadBuilder(store=fresh).build(spec, 2), built)
        assert fresh.stats()["by_kind"]["workloads"]["errors"] == 1

    def test_process_workers_hit_the_shared_store(self, tmp_path):
        layers = [get_benchmark("Alex-8").scaled(64), get_benchmark("NT-We").scaled(64)]
        kwargs = dict(workloads=layers, grid={"num_pes": [2, 4]})
        serial = ExperimentRunner(executor="serial").run("fig12_padding_zeros", **kwargs)
        cold_store = ArtifactStore(tmp_path)
        cold = ExperimentRunner(store=cold_store).run(
            "fig12_padding_zeros", executor="processes", jobs=2, **kwargs
        )
        assert len(cold_store.entries("workloads")) == 4
        assert cold_store.stats()["by_kind"]["workloads"]["stores"] == 4
        warm_store = ArtifactStore(tmp_path)
        warm = ExperimentRunner(store=warm_store).run(
            "fig12_padding_zeros", executor="processes", jobs=2, **kwargs
        )
        counters = warm_store.stats()["by_kind"]["workloads"]
        assert counters["hits"] == 4 and counters["stores"] == 0
        assert cold.records == warm.records == serial.records

    def test_no_store_writes_nothing(self, tmp_path, monkeypatch, spec):
        monkeypatch.setenv("REPRO_STORE_DIR", str(tmp_path / "store"))
        WorkloadBuilder().build(spec, 2)
        ExperimentRunner(executor="serial").run(
            "fig12_padding_zeros", workloads=[spec], grid={"num_pes": [2]}
        )
        assert not any(tmp_path.iterdir())


class TestModelBuilders:
    def test_alexnet_chain_runs(self):
        model = build_model("alexnet_fc", scale=96)
        output = model.forward(np.random.default_rng(0).uniform(size=model.input_size))
        assert output.shape == (model.output_size,)

    def test_vgg_chain_runs(self):
        model = build_model("vgg_fc", scale=128)
        assert len(model) == 3

    def test_neuraltalk_lstm_step(self):
        model = build_model("neuraltalk_lstm", scale=32)
        trace = model.trace(np.zeros(model.input_size))
        pre = {gate: trace.node_output(f"gate_{gate}") for gate in LSTM_GATE_NAMES}
        # Software applies the gate non-linearities to EIE's M x V outputs.
        cell = sigmoid(pre["input"]) * tanh(pre["cell"])
        hidden = sigmoid(pre["output"]) * tanh(cell)
        assert hidden.shape == (model.metadata["hidden_size"],)

    def test_generate_dense_weights_density(self, tiny_spec):
        weights = generate_dense_weights(tiny_spec)
        density = np.count_nonzero(weights) / weights.size
        assert density == pytest.approx(tiny_spec.weight_density, abs=0.06)

    def test_invalid_scale_rejected(self):
        with pytest.raises(ConfigurationError):
            build_model("alexnet_fc", scale=0)
        with pytest.raises(ConfigurationError):
            build_model("neuraltalk_lstm", scale=-1)
