"""The per-vector result of a functional (bit-exact) simulation.

The simulation itself is the ``"functional"`` engine
(:class:`~repro.engine.adapters.FunctionalEngine`); every
:class:`~repro.engine.base.EngineResult` it produces carries one
:class:`FunctionalResult` per input vector.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.pe import PEAccessCounters

__all__ = ["FunctionalResult"]


@dataclass
class FunctionalResult:
    """Output and statistics of one functional-simulation run.

    Attributes:
        output: the output activation vector ``b`` (after the non-linearity).
        pre_activation: the accumulated values before the non-linearity.
        broadcasts: number of non-zero activations broadcast.
        columns_total: length of the input vector.
        counters: merged access counters across all PEs.
        per_pe_entries: entries processed by each PE (load distribution).
    """

    output: np.ndarray
    pre_activation: np.ndarray
    broadcasts: int
    columns_total: int
    counters: PEAccessCounters
    per_pe_entries: np.ndarray

    @property
    def activation_density(self) -> float:
        """Density of the input activation vector that was processed."""
        if self.columns_total == 0:
            return 0.0
        return self.broadcasts / self.columns_total

    @property
    def total_entries_processed(self) -> int:
        """Entries (weights plus padding zeros) processed across all PEs."""
        return int(self.counters.entries_processed)

    @property
    def output_density(self) -> float:
        """Density of the output vector (after ReLU, feeds the next layer)."""
        if self.output.size == 0:
            return 0.0
        return float(np.count_nonzero(self.output)) / self.output.size
