"""Whole-network numerical parity: dense forward vs Session.run_model.

Tolerance contract (documented here and pinned below):

* EIE stores weights as 4-bit indices into a 16-entry shared codebook
  (entry 0 reserved for zero), so a matrix with **at most 15 distinct
  non-zero values** is represented *exactly*.  For such networks the
  functional engine's outputs match the dense numpy forward pass to float64
  rounding (the only remaining difference is summation order between the
  PE-interleaved accumulation and the dense matmul): ``rtol=1e-10``.
* For arbitrary float weights the k-means codebook introduces genuine
  quantization error; the functional engine then matches the dense forward
  of the *decoded* weights (same ``rtol=1e-10``), while the deviation from
  the original float network is the Deep Compression approximation the paper
  accepts (Section IV; accuracy is preserved at the network level).
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core import EIEConfig
from repro.engine import Session
from repro.models import MatVecNode, ModelIR

NUM_PES = 4
#: Functional-engine vs dense-matmul tolerance (float64 summation order only).
RTOL, ATOL = 1e-10, 1e-12


def two_layer_model(fc6: np.ndarray, fc7: np.ndarray, name: str) -> ModelIR:
    """``fc7 @ relu(fc6 @ x)`` as a two-node chain."""
    return ModelIR(
        [
            MatVecNode(name="fc6", weight=fc6, activation="relu"),
            MatVecNode(name="fc7", weight=fc7, activation="identity", source="fc6"),
        ],
        name=name,
    )


def dense_forward(fc6: np.ndarray, fc7: np.ndarray, x: np.ndarray) -> list[np.ndarray]:
    """Hand-written reference: the output of each layer of ``two_layer_model``."""
    hidden = np.maximum(fc6 @ x, 0.0)
    return [hidden, fc7 @ hidden]


def quantizable_model(rng: np.random.Generator) -> ModelIR:
    """A sparse two-layer network whose weights use <= 15 distinct non-zeros."""
    palette = np.linspace(-0.8, 0.8, 15)

    def matrix(rows: int, cols: int) -> np.ndarray:
        weights = rng.choice(palette, size=(rows, cols))
        weights[rng.random((rows, cols)) >= 0.25] = 0.0
        weights[0, 0] = palette[3]
        return weights

    return two_layer_model(matrix(24, 32), matrix(12, 24), name="quantizable")


def arbitrary_model(rng: np.random.Generator) -> ModelIR:
    def matrix(rows: int, cols: int) -> np.ndarray:
        weights = rng.normal(0.0, 0.3, size=(rows, cols))
        weights[rng.random((rows, cols)) >= 0.25] = 0.0
        weights[0, 0] = 0.5
        return weights

    return two_layer_model(matrix(20, 28), matrix(10, 20), name="arbitrary")


@pytest.fixture
def session() -> Session:
    return Session(config=EIEConfig(num_pes=NUM_PES))


class TestExactCodebookParity:
    def test_per_node_and_end_to_end_match_dense_forward(self, rng, session):
        model = quantizable_model(rng)
        fc6, fc7 = (node.weight for node in model)
        inputs = np.abs(rng.normal(size=(4, model.input_size)))
        run = session.run_model("functional", model, inputs)

        # The <=15-value weights are exactly representable: decoded weights
        # reproduce the originals bit for bit.
        for node, layer in session.compress_model(model, NUM_PES):
            assert np.array_equal(layer.dense_weights(), node.weight)

        for index, row in enumerate(inputs):
            expected = dense_forward(fc6, fc7, row)
            # Per-node: every engine output against the dense layer output.
            for node_index, node_run in enumerate(run.nodes):
                assert np.allclose(
                    node_run.result.outputs[index],
                    expected[node_index],
                    rtol=RTOL, atol=ATOL,
                )
            # End-to-end.
            assert np.allclose(run.outputs[index], expected[-1], rtol=RTOL, atol=ATOL)

    def test_single_vector_run_matches_batch_row(self, rng, session):
        model = quantizable_model(rng)
        inputs = np.abs(rng.normal(size=(3, model.input_size)))
        batched = session.run_model("functional", model, inputs)
        single = session.run_model("functional", model, inputs[1])
        # Propagation uses one matmul per node; BLAS may sum a (1, n) and an
        # (n,)-shaped product in different orders, so parity is to rounding.
        assert np.allclose(batched.outputs[1], single.outputs[0], rtol=RTOL, atol=ATOL)


class TestQuantizedParity:
    def test_matches_decoded_weight_network(self, rng, session):
        model = arbitrary_model(rng)
        inputs = np.abs(rng.normal(size=(2, model.input_size)))
        run = session.run_model("functional", model, inputs)
        compressed = session.compress_model(model, NUM_PES)
        fc6, fc7 = (compressed.layer(node.name).dense_weights() for node in model)
        for index, row in enumerate(inputs):
            expected = dense_forward(fc6, fc7, row)
            for node_index, node_run in enumerate(run.nodes):
                assert np.allclose(
                    node_run.result.outputs[index],
                    expected[node_index],
                    rtol=RTOL, atol=ATOL,
                )
            assert np.allclose(run.outputs[index], expected[-1], rtol=RTOL, atol=ATOL)

    def test_quantization_error_vs_float_network_is_bounded(self, rng, session):
        model = arbitrary_model(rng)
        fc6, fc7 = (node.weight for node in model)
        inputs = np.abs(rng.normal(size=(4, model.input_size)))
        run = session.run_model("functional", model, inputs)
        reference = np.stack([dense_forward(fc6, fc7, row)[-1] for row in inputs])
        scale = np.max(np.abs(reference))
        error = np.max(np.abs(run.outputs - reference)) / scale
        # 4-bit weight sharing: a genuine approximation, but a bounded one.
        assert 0.0 < error < 0.5
