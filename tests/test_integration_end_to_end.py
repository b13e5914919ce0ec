"""Integration tests spanning compression, simulation and analysis."""

from __future__ import annotations

import numpy as np
import pytest

from repro.baselines.roofline import RooflinePlatform
from repro.baselines.specs import CPU_CORE_I7_5930K
from repro.compression import CompressionConfig, DeepCompressor
from repro.core import EIEConfig
from repro.engine import EngineRegistry, Session
from repro.hardware.area import chip_power_w
from repro.models import MatVecNode, ModelIR, build_model
from repro.workloads.benchmarks import get_benchmark
from repro.workloads.generator import WorkloadBuilder
from repro.workloads.synthetic import generate_activations, generate_dense_weights


class TestCompressedNetworkEndToEnd:
    """Compress a scaled AlexNet FC tail and run it on EIE end to end."""

    @pytest.fixture(scope="class")
    def model(self):
        return build_model("alexnet_fc", scale=96)

    @pytest.fixture(scope="class")
    def session(self):
        return Session(CompressionConfig(), config=EIEConfig(num_pes=8))

    @pytest.fixture(scope="class")
    def compressed(self, model, session):
        return session.compress_model(model, num_pes=8)

    def test_eie_matches_compressed_software_network(self, model, session, compressed):
        rng = np.random.default_rng(11)
        inputs = np.maximum(rng.normal(size=model.input_size), 0.0)
        # The software reference runs the *decoded* compressed weights.
        reference = inputs
        for compressed_layer, node in zip(compressed.layers.values(), model.nodes):
            pre = compressed_layer.dense_weights() @ reference
            reference = np.maximum(pre, 0.0) if node.activation == "relu" else pre
        run = session.run_model("functional", compressed, inputs)
        assert np.allclose(run.nodes[-1].result.output, reference)

    def test_relu_sparsity_reduces_downstream_work(self, session, compressed, model):
        rng = np.random.default_rng(12)
        inputs = np.maximum(rng.normal(size=model.input_size), 0.0)
        run = session.run_model("functional", compressed, inputs)
        first, second = run.nodes[0], run.nodes[1]
        # The second layer must broadcast no more activations than the first
        # layer produced non-zero outputs.
        assert second.result.functional[0].broadcasts == np.count_nonzero(
            run.node_outputs[first.name]
        )

    def test_compression_accuracy_close_to_dense(self, model, session, compressed):
        rng = np.random.default_rng(13)
        inputs = np.maximum(rng.normal(size=model.input_size), 0.0)
        fc6, fc7, fc8 = (node.weight for node in model)
        dense_out = fc8 @ np.maximum(fc7 @ np.maximum(fc6 @ inputs, 0.0), 0.0)
        eie_out = session.run_model("functional", compressed, inputs).nodes[-1].result.output
        # Weight sharing introduces bounded error; outputs stay correlated.
        if np.linalg.norm(dense_out) > 0:
            correlation = float(
                np.dot(dense_out, eie_out)
                / (np.linalg.norm(dense_out) * np.linalg.norm(eie_out) + 1e-12)
            )
            assert correlation > 0.9


class TestBenchmarkPipelineSmallScale:
    """Run one scaled Table III benchmark through every model layer."""

    @pytest.fixture(scope="class")
    def spec(self):
        return get_benchmark("Alex-7").scaled(64)

    def test_functional_and_cycle_models_agree_on_work(self, spec):
        config = EIEConfig(num_pes=8)
        weights = generate_dense_weights(spec)
        layer = DeepCompressor().compress(weights, num_pes=config.num_pes, name=spec.name)
        activations = generate_activations(spec.cols, spec.activation_density, rng=3)
        functional_engine = EngineRegistry.create("functional", config)
        functional = functional_engine.run(
            functional_engine.prepare(layer), activations
        ).functional[0]
        cycle_engine = EngineRegistry.create("cycle", config)
        cycle = cycle_engine.run(cycle_engine.prepare(layer), activations).stats
        assert functional.total_entries_processed == cycle.entries_processed
        assert functional.broadcasts == cycle.broadcasts

    def test_eie_beats_cpu_baseline_on_scaled_layer(self, spec):
        config = EIEConfig(num_pes=16)
        workload = WorkloadBuilder().build(spec, config.num_pes)
        eie_time = workload.simulate(config).time_s
        cpu_time = RooflinePlatform(CPU_CORE_I7_5930K).dense_time_s(spec, batch=1)
        assert cpu_time / eie_time > 10.0

    def test_energy_advantage_larger_than_speed_advantage(self, spec):
        config = EIEConfig(num_pes=16)
        workload = WorkloadBuilder().build(spec, config.num_pes)
        eie_time = workload.simulate(config).time_s
        cpu_time = RooflinePlatform(CPU_CORE_I7_5930K).dense_time_s(spec, batch=1)
        eie_energy = eie_time * chip_power_w(config.num_pes)
        cpu_energy = cpu_time * CPU_CORE_I7_5930K.power_w
        assert cpu_energy / eie_energy > cpu_time / eie_time


class TestMultiLayerNetworkConsistency:
    def test_network_output_independent_of_pe_count(self, rng):
        weights1 = rng.normal(size=(32, 48)) * (rng.random((32, 48)) < 0.2)
        weights2 = rng.normal(size=(16, 32)) * (rng.random((16, 32)) < 0.2)
        weights1[0, 0] = weights2[0, 0] = 0.3
        inputs = rng.uniform(0, 1, size=48)
        model = ModelIR([
            MatVecNode(name="fc1", weight=weights1),
            MatVecNode(name="fc2", weight=weights2, source="fc1"),
        ])
        outputs = []
        for num_pes in (1, 2, 8):
            config = EIEConfig(num_pes=num_pes)
            run = Session(config=config).run_model("functional", model, inputs)
            outputs.append(run.nodes[-1].result.output)
        assert np.allclose(outputs[0], outputs[1])
        assert np.allclose(outputs[0], outputs[2])

    def test_software_network_and_accelerator_share_structure(self, rng):
        weights = [
            rng.normal(size=(24, 30)) * (rng.random((24, 30)) < 0.3),
            rng.normal(size=(10, 24)) * (rng.random((10, 24)) < 0.3),
        ]
        for weight in weights:
            weight[0, 0] = 0.4
        model = ModelIR([
            MatVecNode(name="a", weight=weights[0], activation="relu"),
            MatVecNode(name="b", weight=weights[1], activation="identity", source="a"),
        ])
        compressed = Session().compress_model(model, num_pes=4)
        compressed_layers = list(compressed.layers.values())
        assert len(compressed_layers) == len(weights)
        assert compressed_layers[0].cols == weights[0].shape[1]
        assert compressed_layers[-1].rows == weights[-1].shape[0]
