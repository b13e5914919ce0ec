"""Element-wise non-linearities.

Equation (1) of the paper: ``b = f(W a + v)`` where ``f`` is typically ReLU.
EIE computes the M x V; the non-linearity ``f`` is one of :data:`ACTIVATIONS`,
named by each :class:`~repro.models.ir.MatVecNode`.
"""

from __future__ import annotations

from typing import Callable

import numpy as np

__all__ = [
    "relu",
    "sigmoid",
    "tanh",
    "identity",
    "ACTIVATIONS",
]


def relu(x: np.ndarray) -> np.ndarray:
    """Rectified linear unit ``max(x, 0)``."""
    return np.maximum(np.asarray(x), 0.0)


def sigmoid(x: np.ndarray) -> np.ndarray:
    """Numerically stable logistic sigmoid."""
    x = np.asarray(x, dtype=np.float64)
    out = np.empty_like(x)
    positive = x >= 0
    out[positive] = 1.0 / (1.0 + np.exp(-x[positive]))
    exp_x = np.exp(x[~positive])
    out[~positive] = exp_x / (1.0 + exp_x)
    return out


def tanh(x: np.ndarray) -> np.ndarray:
    """Hyperbolic tangent."""
    return np.tanh(np.asarray(x, dtype=np.float64))


def identity(x: np.ndarray) -> np.ndarray:
    """Identity activation (no non-linearity)."""
    return np.asarray(x)


#: Registry of the supported non-linearities, keyed by name.
ACTIVATIONS: dict[str, Callable[[np.ndarray], np.ndarray]] = {
    "relu": relu,
    "sigmoid": sigmoid,
    "tanh": tanh,
    "identity": identity,
}

