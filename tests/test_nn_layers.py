"""Tests for the non-linearities and the dense M x V node they follow."""

from __future__ import annotations

import numpy as np
import pytest

from repro.errors import ConfigurationError
from repro.models import MatVecNode, ModelIR
from repro.nn.layers import identity, relu, sigmoid, tanh


class TestActivations:
    def test_relu_clamps_negative(self):
        assert relu(np.array([-1.0, 0.0, 2.0])).tolist() == [0.0, 0.0, 2.0]

    def test_sigmoid_range_and_symmetry(self):
        values = sigmoid(np.array([-50.0, 0.0, 50.0]))
        assert values[0] == pytest.approx(0.0, abs=1e-12)
        assert values[1] == pytest.approx(0.5)
        assert values[2] == pytest.approx(1.0, abs=1e-12)

    def test_sigmoid_stable_for_large_negative(self):
        assert np.isfinite(sigmoid(np.array([-1000.0]))).all()

    def test_tanh_matches_numpy(self):
        x = np.linspace(-3, 3, 11)
        assert np.allclose(tanh(x), np.tanh(x))

    def test_identity(self):
        x = np.array([1.0, -2.0])
        assert identity(x) is not None
        assert np.array_equal(identity(x), x)


class TestDenseNode:
    """A one-node model is the dense ``b = f(W a + bias)`` layer of Equation (1)."""

    def test_forward_matches_matmul(self):
        rng = np.random.default_rng(0)
        weight = rng.normal(size=(5, 7))
        inputs = rng.normal(size=7)
        node = MatVecNode(name="fc", weight=weight, activation="identity")
        assert np.allclose(node.forward(inputs), weight @ inputs)

    def test_relu_applied(self):
        weight = np.array([[1.0], [-1.0]])
        node = MatVecNode(name="fc", weight=weight, activation="relu")
        assert node.forward(np.array([2.0])).tolist() == [2.0, 0.0]

    def test_bias(self):
        weight = np.eye(3)
        bias = np.array([1.0, 2.0, 3.0])
        node = MatVecNode(name="fc", weight=weight, bias=bias, activation="identity")
        assert np.allclose(node.forward(np.zeros(3)), bias)

    def test_bias_shape_mismatch_rejected(self):
        with pytest.raises(ConfigurationError):
            MatVecNode(name="fc", weight=np.eye(3), bias=np.zeros(2))

    def test_unknown_activation_rejected(self):
        with pytest.raises(ConfigurationError):
            MatVecNode(name="fc", weight=np.eye(2), activation="swish")

    def test_input_length_checked(self):
        model = ModelIR([MatVecNode(name="fc", weight=np.eye(3))])
        with pytest.raises(ConfigurationError):
            model.forward(np.zeros(4))

    def test_shape_properties(self):
        node = MatVecNode(name="fc", weight=np.zeros((4, 6)) + 1.0)
        assert node.rows == 4
        assert node.cols == 6
        assert node.num_weights == 24
        assert ModelIR([node]).total_macs == 24

    def test_weight_density(self):
        weight = np.zeros((4, 4))
        weight[0, 0] = 1.0
        node = MatVecNode(name="fc", weight=weight)
        assert node.weight_density == pytest.approx(1 / 16)

    def test_callable(self):
        model = ModelIR([MatVecNode(name="fc", weight=np.eye(2), activation="identity")])
        assert np.allclose(model(np.array([1.0, 2.0])), [1.0, 2.0])
