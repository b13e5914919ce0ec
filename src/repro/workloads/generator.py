"""Workload construction for the cycle-level simulator.

A :class:`LayerWorkload` packages everything the timing model needs for one
benchmark layer at full Table III scale: the per-(PE, column) entry counts of
the interleaved CSC encoding (including padding zeros), the broadcast order
of the non-zero input activations, and the bookkeeping totals used by the
energy model and the figures.

:class:`WorkloadBuilder` caches patterns, activation vectors and workloads in
memory, so the design-space sweeps (varying FIFO depth, PE count or SRAM
width over the same layer) build each one once.  Given an
:class:`~repro.store.artifacts.ArtifactStore` it also publishes every built
workload under a content key (the ``workloads`` kind), so every builder that
shares the store — later experiments, CLI invocations, process-pool workers
— loads it instead of regenerating the pattern and recounting its entries.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from repro.compression.csc import DEFAULT_MAX_RUN, interleaved_entry_counts
from repro.core.config import EIEConfig
from repro.core.cycle_model import CycleStats
from repro.errors import WorkloadError
from repro.utils.rng import make_rng
from repro.workloads.benchmarks import LayerSpec
from repro.workloads.synthetic import SparsePattern, generate_activations, generate_sparse_pattern

if TYPE_CHECKING:
    from repro.store.artifacts import ArtifactStore

__all__ = ["LayerWorkload", "WorkloadBuilder"]

#: Version of the stored workload content, folded into every store key.  Bump
#: it whenever ``generate_sparse_pattern``, ``generate_activations`` or
#: ``interleaved_entry_counts`` change their output, so stale entries become
#: misses instead of being served; ``tests/test_workloads.py`` pins that
#: output in ``TestGoldenWorkloads``.
WORKLOAD_FORMAT = 1


#: The spec fields a workload depends on; every cache and store key covers them.
_SPEC_FIELDS = ("name", "rows", "cols", "weight_density", "activation_density", "seed")


def _spec_key(spec: LayerSpec) -> tuple:
    return tuple(getattr(spec, field) for field in _SPEC_FIELDS)


@dataclass
class LayerWorkload:
    """One benchmark layer prepared for the cycle-level simulator.

    Attributes:
        spec: the benchmark description.
        num_pes: number of PEs the matrix is interleaved over.
        work: shape ``(num_pes, broadcasts)`` — encoded entries each PE must
            process for each broadcast non-zero activation, in broadcast order.
        padding_work: same shape — padding-zero entries among ``work``.
        nonzero_columns: the input-vector indices that are broadcast.
        total_entries: stored entries of the whole matrix (all columns).
        total_padding: padding-zero entries of the whole matrix.
        true_nonzeros: genuine non-zero weights of the whole matrix.
    """

    spec: LayerSpec
    num_pes: int
    work: np.ndarray
    padding_work: np.ndarray
    nonzero_columns: np.ndarray
    total_entries: int
    total_padding: int
    true_nonzeros: int

    @property
    def broadcasts(self) -> int:
        """Number of non-zero activations broadcast."""
        return int(self.nonzero_columns.shape[0])

    @property
    def touched_entries(self) -> int:
        """Entries processed for this input (columns with non-zero activation)."""
        return int(self.work.sum())

    @property
    def real_work_fraction(self) -> float:
        """Useful entries / stored entries for the whole matrix (Figure 12)."""
        if self.total_entries == 0:
            return 1.0
        return 1.0 - self.total_padding / self.total_entries

    @property
    def dense_macs(self) -> int:
        """MACs of the equivalent dense computation."""
        return self.spec.dense_macs

    def per_pe_entries(self) -> np.ndarray:
        """Stored entries per PE for the touched columns."""
        return self.work.sum(axis=1)

    def simulate(self, config: EIEConfig) -> CycleStats:
        """Run the cycle-level timing model for this workload.

        Delegates to the ``"cycle"`` engine of :mod:`repro.engine` (imported
        lazily — the engine adapters accept workloads, so a module-level
        import would be circular).
        """
        from repro.engine import EngineRegistry

        if config.num_pes != self.num_pes:
            raise WorkloadError(
                f"workload was built for {self.num_pes} PEs, configuration has {config.num_pes}"
            )
        engine = EngineRegistry.create("cycle", config)
        return engine.run(engine.prepare(self)).stats


class WorkloadBuilder:
    """Builds (and caches) full-scale benchmark workloads.

    Patterns, activation vectors and workloads are cached in memory, keyed
    by every spec field they depend on (seed included).  With a ``store``,
    :meth:`build` also loads and publishes workloads under a content key, so
    each (layer, PE count) pair is built once per store rather than once per
    builder.

    Args:
        max_run: largest zero run representable by the relative index.
        store: optional :class:`~repro.store.artifacts.ArtifactStore` shared
            with other builders; ``None`` keeps everything in memory.
    """

    def __init__(
        self, max_run: int = DEFAULT_MAX_RUN, store: "ArtifactStore | None" = None
    ) -> None:
        self.max_run = int(max_run)
        self.store = store
        self._pattern_cache: dict[tuple, SparsePattern] = {}
        self._activation_cache: dict[tuple, np.ndarray] = {}
        self._workload_cache: dict[tuple, LayerWorkload] = {}

    # -- cached primitives ---------------------------------------------------------

    def pattern(self, spec: LayerSpec) -> SparsePattern:
        """The (cached) weight sparsity pattern for ``spec``."""
        key = _spec_key(spec)
        if key not in self._pattern_cache:
            rng = make_rng(spec.weight_seed)
            self._pattern_cache[key] = generate_sparse_pattern(
                spec.rows, spec.cols, spec.weight_density, rng
            )
        return self._pattern_cache[key]

    def activations(self, spec: LayerSpec) -> np.ndarray:
        """The (cached) input activation vector for ``spec``."""
        key = _spec_key(spec)
        if key not in self._activation_cache:
            rng = make_rng(spec.activation_seed)
            self._activation_cache[key] = generate_activations(
                spec.cols, spec.activation_density, rng
            )
        return self._activation_cache[key]

    def clear_cache(self) -> None:
        """Drop all in-memory patterns, activation vectors and workloads."""
        self._pattern_cache.clear()
        self._activation_cache.clear()
        self._workload_cache.clear()

    # -- workload assembly ------------------------------------------------------------

    def build(self, spec: LayerSpec, num_pes: int) -> LayerWorkload:
        """Assemble the cycle-model workload for ``spec`` on ``num_pes`` PEs.

        Results are cached per (layer, PE count) pair: the design-space sweeps
        revisit the same combination many times (e.g. Figures 11 and 13 share
        every point of the PE sweep).  With a store, an in-memory miss first
        tries the stored workload and a fresh build is published to it.
        """
        if num_pes < 1:
            raise WorkloadError(f"num_pes must be >= 1, got {num_pes}")
        num_pes = int(num_pes)
        cache_key = (*_spec_key(spec), num_pes)
        if cache_key in self._workload_cache:
            return self._workload_cache[cache_key]
        store_key = self._store_key(spec, num_pes) if self.store is not None else None
        workload = self._load(store_key, spec, num_pes) if store_key else None
        if workload is None:
            workload = self._assemble(spec, num_pes)
            if store_key:
                self._publish(store_key, workload)
        self._workload_cache[cache_key] = workload
        return workload

    def _assemble(self, spec: LayerSpec, num_pes: int) -> LayerWorkload:
        pattern = self.pattern(spec)
        activations = self.activations(spec)
        counts, padding = interleaved_entry_counts(
            pattern.row_indices,
            pattern.col_ptr,
            num_rows=spec.rows,
            num_pes=num_pes,
            max_run=self.max_run,
        )
        nonzero_columns = np.nonzero(activations)[0]
        total_entries = int(counts.sum())
        total_padding = int(padding.sum())
        return LayerWorkload(
            spec=spec,
            num_pes=num_pes,
            work=counts[:, nonzero_columns],
            padding_work=padding[:, nonzero_columns],
            nonzero_columns=nonzero_columns,
            total_entries=total_entries,
            total_padding=total_padding,
            true_nonzeros=total_entries - total_padding,
        )

    # -- artifact store ---------------------------------------------------------------

    def _store_key(self, spec: LayerSpec, num_pes: int) -> str:
        return self.store.content_key({
            "spec": dict(zip(_SPEC_FIELDS, _spec_key(spec))),
            "num_pes": num_pes,
            "max_run": self.max_run,
            "workload_format": WORKLOAD_FORMAT,
        })

    def _publish(self, key: str, workload: LayerWorkload) -> None:
        # The entry counts fit int32 in every real layer, which halves the
        # entry's size; loading widens them back, so a load equals a fresh build.
        arrays = {"nonzero_columns": workload.nonzero_columns}
        for name in ("work", "padding_work"):
            values = getattr(workload, name)
            fits = values.size == 0 or values.max() < 2**31
            arrays[name] = values.astype(np.int32) if fits else values
        meta = {"total_entries": workload.total_entries, "total_padding": workload.total_padding}
        self.store.store_arrays("workloads", key, meta, arrays)

    def _load(self, key: str, spec: LayerSpec, num_pes: int) -> LayerWorkload | None:
        def check(meta: dict, arrays: dict[str, np.ndarray]) -> None:
            shape = (num_pes, arrays["nonzero_columns"].shape[0])
            if arrays["work"].shape != shape or arrays["padding_work"].shape != shape:
                raise ValueError("workload arrays do not match their PE count")

        loaded = self.store.load_arrays("workloads", key, check=check)
        if loaded is None:
            return None
        meta, arrays = loaded
        return LayerWorkload(
            spec=spec,
            num_pes=num_pes,
            work=arrays["work"].astype(np.int64),
            padding_work=arrays["padding_work"].astype(np.int64),
            nonzero_columns=arrays["nonzero_columns"],
            total_entries=int(meta["total_entries"]),
            total_padding=int(meta["total_padding"]),
            true_nonzeros=int(meta["total_entries"]) - int(meta["total_padding"]),
        )
