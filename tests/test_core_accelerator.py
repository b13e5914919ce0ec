"""Tests for driving the whole accelerator through a :class:`Session`.

Loading is compression plus the engines' prepare-time checks, execution is
``Session.run`` for one layer and ``Session.run_model`` for chained layers,
and estimation combines the cycle engine's timing with the energy models.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.config import EIEConfig
from repro.engine import EngineRegistry, Session
from repro.errors import ConfigurationError, ReproError, SimulationError
from repro.hardware.area import chip_area_mm2, chip_power_w
from repro.hardware.energy import counter_energy
from repro.models.ir import INPUT, MatVecNode, ModelIR


@pytest.fixture
def session(small_config) -> Session:
    return Session(config=small_config)


def _random_sparse(rng, shape, density=0.15):
    weights = rng.normal(size=shape)
    weights[rng.random(shape) >= density] = 0.0
    weights[0, 0] = 0.5
    return weights


def _chain(*layers) -> ModelIR:
    """A model feeding each ``(name, weights, activation)`` into the next."""
    nodes, source = [], INPUT
    for name, weights, activation in layers:
        nodes.append(MatVecNode(name=name, weight=weights, activation=activation, source=source))
        source = name
    return ModelIR(nodes, name="chain")


class TestLoading:
    def test_compress_and_load_returns_layer(self, session, small_config, sparse_weights):
        layer = session.compress(sparse_weights, num_pes=small_config.num_pes, name="fc1")
        assert layer.name == "fc1"
        assert layer.num_pes == small_config.num_pes
        assert session.prepare("functional", layer).source is layer

    def test_chained_layers_must_match_shapes(self, rng):
        with pytest.raises(ConfigurationError):
            _chain(
                ("fc1", _random_sparse(rng, (24, 40)), "relu"),
                ("fc2", _random_sparse(rng, (8, 30)), "relu"),
            )

    def test_load_rejects_wrong_pe_count(self, session, sparse_weights, dense_activations):
        layer = session.compressor.compress(sparse_weights, num_pes=8)
        with pytest.raises(SimulationError):
            session.run("functional", layer, dense_activations)

    def test_capacity_enforced(self, sparse_weights):
        config = EIEConfig(num_pes=4, spmat_sram_kb=0.001)
        layer = Session(config=config).compress(sparse_weights, num_pes=4)
        engine = EngineRegistry.create("functional", config)
        with pytest.raises(SimulationError, match="Spmat SRAM"):
            engine.prepare(layer)

    def test_clear(self, session, small_config, sparse_weights):
        session.compress(sparse_weights, num_pes=small_config.num_pes)
        session.clear()
        assert session.cache_info()["layers"]["entries"] == 0


class TestExecution:
    def test_single_layer_run_matches_reference(self, session, small_config, sparse_weights,
                                                dense_activations):
        layer = session.compress(sparse_weights, num_pes=small_config.num_pes, name="fc")
        result = session.run("functional", layer, dense_activations)
        expected = np.maximum(layer.dense_weights() @ dense_activations, 0.0)
        assert np.allclose(result.output, expected)

    def test_multi_layer_feed_forward(self, session, rng):
        model = _chain(
            ("fc1", _random_sparse(rng, (24, 40)), "relu"),
            ("fc2", _random_sparse(rng, (12, 24)), "identity"),
        )
        inputs = rng.uniform(0, 1, size=40)
        run = session.run_model("functional", model, inputs)
        layer1, layer2 = (record.layer for record in run.nodes)
        hidden = np.maximum(layer1.dense_weights() @ inputs, 0.0)
        expected = layer2.dense_weights() @ hidden
        assert len(run.nodes) == 2
        assert np.allclose(run.nodes[-1].result.output, expected)

    def test_run_without_layers_rejected(self):
        with pytest.raises(ConfigurationError):
            ModelIR([])

    def test_run_layer_index_checked(self, session, sparse_weights, dense_activations):
        run = session.run_model("functional", _chain(("fc", sparse_weights, "relu")),
                                dense_activations)
        with pytest.raises(SimulationError):
            run.node("fc3")

    def test_run_batch_equals_per_row_runs(self, session, rng):
        model = _chain(
            ("fc1", _random_sparse(rng, (24, 40)), "relu"),
            ("fc2", _random_sparse(rng, (12, 24)), "relu"),
        )
        batch = rng.uniform(0, 1, size=(5, 40))
        batch[rng.random((5, 40)) >= 0.5] = 0.0
        run = session.run_model("functional", model, batch)
        assert run.outputs.shape == (5, 12)
        for index, row in enumerate(batch):
            single = session.run_model("functional", model, row)
            assert np.array_equal(run.outputs[index], single.output)
            assert np.array_equal(
                run.nodes[-1].result.outputs[index], single.nodes[-1].result.output
            )

    def test_run_batch_requires_matrix_and_layers(self, session, sparse_weights,
                                                  dense_activations):
        layer = session.compress(sparse_weights, num_pes=4)
        with pytest.raises(ConfigurationError):
            session.run_model("functional", layer, np.zeros((2, 40)))  # a layer, not a model
        model = _chain(("fc", sparse_weights, "relu"))
        with pytest.raises(ReproError):
            session.run_model("functional", model, dense_activations[np.newaxis, np.newaxis])

    def test_repeated_compression_hits_session_cache(self, session, sparse_weights):
        session.compress(sparse_weights, num_pes=4, name="fc")
        first = session.cache_info()["layers"]
        session.compress(sparse_weights, num_pes=4, name="fc")
        second = session.cache_info()["layers"]
        assert second["hits"] == first["hits"] + 1


class TestEstimation:
    def test_estimate_layer_consistency(self, session, small_config, sparse_weights,
                                        dense_activations):
        layer = session.compress(sparse_weights, num_pes=small_config.num_pes, name="fc")
        cycles = session.run("cycle", layer, dense_activations).stats
        performance = cycles.performance(layer.dense_weight_count)
        functional = session.run("functional", layer, dense_activations).functional[0]
        energy = counter_energy(functional, cycles, small_config)
        assert layer.name == "fc"
        assert cycles.total_cycles > 0
        assert performance.time_s == pytest.approx(cycles.time_s)
        assert energy.energy_j > 0
        assert cycles.entries_processed == functional.total_entries_processed

    def test_estimate_without_functional_run(self, session, small_config, sparse_weights,
                                             dense_activations):
        run = session.run_model("cycle", _chain(("fc", sparse_weights, "relu")),
                                dense_activations)
        assert run.energy_j == pytest.approx(
            chip_power_w(small_config.num_pes) * run.nodes[0].result.stats.time_s
        )

    def test_chip_power_and_area_scale_with_pes(self):
        assert chip_power_w(64) > chip_power_w(4)
        assert chip_area_mm2(64) > chip_area_mm2(4)

    def test_energy_breakdown_components(self, session, small_config, sparse_weights,
                                         dense_activations):
        layer = session.compress(sparse_weights, num_pes=small_config.num_pes, name="fc")
        cycles = session.run("cycle", layer, dense_activations).stats
        functional = session.run("functional", layer, dense_activations).functional[0]
        energy = counter_energy(functional, cycles, small_config)
        assert set(energy.breakdown) >= {"spmat_sram", "arithmetic"}
        assert energy.power_w == chip_power_w(small_config.num_pes)
        assert energy.energy_j == pytest.approx(
            max(sum(energy.breakdown.values()), energy.power_w * cycles.time_s)
        )
