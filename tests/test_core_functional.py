"""Tests for the whole-array functional simulation (the ``"functional"`` engine)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.compression.pipeline import CompressionConfig, DeepCompressor
from repro.core.config import EIEConfig
from repro.core.functional import FunctionalResult
from repro.engine.adapters import FunctionalEngine
from repro.errors import SimulationError
from repro.nn.fixed_point import FixedPointFormat


def run_functional(layer, config, activations, fixed_point=None) -> FunctionalResult:
    """Prepare ``layer`` on a fresh functional engine and run one vector."""
    engine = FunctionalEngine(config, fixed_point=fixed_point)
    return engine.run(engine.prepare(layer), activations).functional[0]


class TestFunctionalEngine:
    def test_matches_dense_reference_with_relu(self, compressed_layer, small_config, dense_activations):
        result = run_functional(compressed_layer, small_config, dense_activations)
        expected = np.maximum(compressed_layer.dense_weights() @ dense_activations, 0.0)
        assert np.allclose(result.output, expected)

    def test_pre_activation_matches_dense(self, sparse_weights, small_config, dense_activations):
        layer = DeepCompressor(CompressionConfig()).compress(
            sparse_weights, num_pes=small_config.num_pes, activation_name="identity"
        )
        result = run_functional(layer, small_config, dense_activations)
        expected = layer.dense_weights() @ dense_activations
        assert np.allclose(result.output, expected)
        assert np.allclose(result.pre_activation, expected)

    def test_broadcast_count_equals_nonzero_activations(
        self, compressed_layer, small_config, dense_activations
    ):
        result = run_functional(compressed_layer, small_config, dense_activations)
        assert result.broadcasts == np.count_nonzero(dense_activations)
        assert result.activation_density == pytest.approx(
            np.count_nonzero(dense_activations) / dense_activations.size
        )

    def test_zero_columns_never_processed(self, compressed_layer, small_config):
        activations = np.zeros(compressed_layer.cols)
        activations[5] = 1.0
        result = run_functional(compressed_layer, small_config, activations)
        per_pe_counts = compressed_layer.storage.entries_per_pe_column()
        assert result.total_entries_processed == int(per_pe_counts[:, 5].sum())

    def test_all_zero_input(self, compressed_layer, small_config):
        result = run_functional(compressed_layer, small_config, np.zeros(compressed_layer.cols))
        assert result.broadcasts == 0
        assert np.all(result.output == 0.0)

    def test_per_pe_entry_distribution_sums(self, compressed_layer, small_config, dense_activations):
        result = run_functional(compressed_layer, small_config, dense_activations)
        assert result.per_pe_entries.sum() == result.total_entries_processed
        assert result.per_pe_entries.shape == (small_config.num_pes,)

    def test_output_density_reported(self, compressed_layer, small_config, dense_activations):
        result = run_functional(compressed_layer, small_config, dense_activations)
        assert 0.0 <= result.output_density <= 1.0

    def test_wrong_activation_length_rejected(self, compressed_layer, small_config):
        engine = FunctionalEngine(small_config)
        prepared = engine.prepare(compressed_layer)
        with pytest.raises(SimulationError):
            engine.run(prepared, np.zeros(compressed_layer.cols + 1))

    def test_pe_count_mismatch_rejected(self, compressed_layer):
        engine = FunctionalEngine(EIEConfig(num_pes=8))
        with pytest.raises(SimulationError):
            engine.prepare(compressed_layer)

    def test_capacity_enforced(self, compressed_layer):
        engine = FunctionalEngine(EIEConfig(num_pes=4, spmat_sram_kb=0.001))
        with pytest.raises(SimulationError, match="Spmat SRAM"):
            engine.prepare(compressed_layer)

    def test_fixed_point_mode_close_to_float(self, compressed_layer, small_config, dense_activations):
        fmt = FixedPointFormat(total_bits=16, fraction_bits=8)
        float_result = run_functional(compressed_layer, small_config, dense_activations)
        fixed_result = run_functional(
            compressed_layer, small_config, dense_activations, fixed_point=fmt
        )
        assert np.allclose(float_result.output, fixed_result.output, atol=0.2)

    def test_repeated_runs_are_independent(self, compressed_layer, small_config, dense_activations):
        engine = FunctionalEngine(small_config)
        prepared = engine.prepare(compressed_layer)
        first = engine.run(prepared, dense_activations)
        second = engine.run(prepared, dense_activations)
        assert np.allclose(first.output, second.output)

    def test_counters_aggregated(self, compressed_layer, small_config, dense_activations):
        result = run_functional(compressed_layer, small_config, dense_activations)
        assert result.counters.macs == result.total_entries_processed
        assert result.counters.ptr_sram_reads == 2 * result.broadcasts * small_config.num_pes
