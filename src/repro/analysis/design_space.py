"""Figure 10 primitives: the arithmetic-precision accuracy proxy.

Because ImageNet is not available offline, the ``fig10_precision`` experiment
models accuracy as the float32 reference accuracy multiplied by the fraction
of inputs whose arg-max prediction is unchanged under quantisation (a
standard proxy for quantisation-induced accuracy loss).  This module holds
the proxy classifier and its quantised forward pass.
"""

from __future__ import annotations

import numpy as np

from repro.nn.fixed_point import FixedPointFormat
from repro.nn.layers import FullyConnectedLayer
from repro.nn.model import FeedForwardNetwork

__all__ = ["FLOAT32_REFERENCE_ACCURACY"]

#: Baseline ImageNet top-1-style accuracy of the float32 model (Figure 10).
FLOAT32_REFERENCE_ACCURACY = 0.803


def _build_proxy_classifier(
    input_size: int, hidden_size: int, classes: int, rng: np.random.Generator
) -> FeedForwardNetwork:
    """A small FC classifier standing in for the AlexNet FC stack."""
    hidden = FullyConnectedLayer(
        weight=rng.normal(0.0, 0.12, size=(hidden_size, input_size)),
        activation="relu",
        name="proxy-hidden",
    )
    logits = FullyConnectedLayer(
        weight=rng.normal(0.0, 0.12, size=(classes, hidden_size)),
        activation="identity",
        name="proxy-logits",
    )
    return FeedForwardNetwork([hidden, logits], name="precision-proxy")


def _quantized_forward(
    network: FeedForwardNetwork, inputs: np.ndarray, fmt: FixedPointFormat | None
) -> np.ndarray:
    """Forward pass with weights and activations quantised to ``fmt``."""
    current = inputs if fmt is None else fmt.quantize(inputs)
    for layer in network.layers:
        weight = layer.weight if fmt is None else fmt.quantize(layer.weight)
        pre = weight @ current
        if fmt is not None:
            pre = fmt.quantize(pre)
        if layer.activation == "relu":
            current = np.maximum(pre, 0.0)
        else:
            current = pre
    return current
