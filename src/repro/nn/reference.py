"""Reference helpers shared by the analysis and model code."""

from __future__ import annotations

import numpy as np

__all__ = ["sparse_density"]


def sparse_density(array: np.ndarray) -> float:
    """Fraction of non-zero entries of ``array`` (0 for an empty array)."""
    array = np.asarray(array)
    if array.size == 0:
        return 0.0
    return float(np.count_nonzero(array)) / array.size
