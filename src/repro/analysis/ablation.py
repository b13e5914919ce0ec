"""Primitives of the ``ablation_codebook_bits`` experiment.

The paper fixes a 4-bit (16-entry) shared-weight codebook; the ablation
quantifies the reconstruction error of smaller and larger codebooks on a
Gaussian weight population.  The other two design-choice ablations
(``ablation_index_width`` and ``ablation_partitioning``) are defined entirely
in :mod:`repro.experiments.catalog`.
"""

from __future__ import annotations

import numpy as np

from repro.compression.quantization import WeightCodebook
from repro.utils.rng import make_rng

__all__ = ["codebook_bits_point", "codebook_population"]


def codebook_population(num_weights: int, seed: int) -> tuple[np.ndarray, float]:
    """The Gaussian weight population the codebook ablation quantizes.

    Returns the non-zero weights and the normalisation scale (their standard
    deviation).
    """
    weights = make_rng(seed).normal(0.0, 0.05, size=num_weights)
    weights = weights[weights != 0.0]
    scale = float(np.std(weights)) or 1.0
    return weights, scale


def codebook_bits_point(
    nonzero_weights: np.ndarray, scale: float, bits: int, seed: int
) -> dict:
    """Fit one codebook size and measure its reconstruction error."""
    codebook = WeightCodebook.fit(nonzero_weights, index_bits=int(bits), rng=make_rng(seed))
    error = codebook.quantization_error(nonzero_weights)
    return {
        "weight_bits": int(bits),
        "codebook_entries": codebook.size,
        "rms_error": error,
        "relative_rms_error": error / scale,
        "weight_storage_bits_per_nonzero": float(bits),
    }
