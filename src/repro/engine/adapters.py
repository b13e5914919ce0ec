"""The built-in backends: each engine is the simulator it names.

* :class:`FunctionalEngine` — bit-exact value simulation of the PE array.
  ``prepare`` wires a :class:`~repro.core.ccu.CentralControlUnit` and one
  :class:`~repro.core.pe.ProcessingElement` per PE together (capacity
  checks included) once; ``run`` broadcasts each vector's non-zero
  activations through them.
* :class:`CycleEngine` — the broadcast/FIFO timing model.  ``prepare``
  extracts the per-(PE, column) work/padding matrices once per layer; a
  batched ``run`` gathers the work columns of *all* batch items with a
  single NumPy fancy-index into those matrices (one CSC column-gather per
  layer) instead of re-deriving them per vector.
* :class:`RTLEngine` — drives :func:`~repro.core.rtl.pe_rtl.run_pe_rtl`,
  one two-phase RTL PE model per array slot, through the broadcast
  schedule and reassembles the interleaved outputs.

``CycleEngine.prepare`` also accepts a
:class:`~repro.workloads.generator.LayerWorkload` (the synthetic full-size
Table III layers), whose work matrices are pre-sliced to its own broadcast
schedule; such prepared layers are run with ``activations=None``.
"""

from __future__ import annotations

import numpy as np

from repro.compression.pipeline import CompressedLayer
from repro.core.activation_queue import QueueEntry
from repro.core.ccu import CentralControlUnit
from repro.core.config import EIEConfig
from repro.core.cycle_model import (
    layer_work_matrices,
    simulate_layer_cycles,
    simulate_layer_cycles_batch,
)
from repro.core.functional import FunctionalResult
from repro.core.pe import PEAccessCounters, ProcessingElement
from repro.core.rtl.pe_rtl import run_pe_rtl
from repro.engine.base import EngineResult, PreparedLayer, SimulationEngine
from repro.engine.registry import register_engine
from repro.errors import SimulationError
from repro.nn.fixed_point import FixedPointFormat
from repro.nn.layers import ACTIVATIONS

__all__ = ["FunctionalEngine", "CycleEngine", "RTLEngine"]


def _require_compressed_layer(engine_name: str, layer: object) -> CompressedLayer:
    if not isinstance(layer, CompressedLayer):
        raise SimulationError(
            f"engine {engine_name!r} prepares CompressedLayer objects, "
            f"got {type(layer).__name__}"
        )
    return layer


def _require_matching_pes(layer: CompressedLayer, config: EIEConfig) -> None:
    if layer.num_pes != config.num_pes:
        raise SimulationError(
            f"layer is interleaved over {layer.num_pes} PEs but the configuration "
            f"has {config.num_pes}"
        )


@register_engine
class FunctionalEngine(SimulationEngine):
    """Bit-exact value simulation: Equation (3) of the paper on the PE array.

    ``b_i = f( sum_{j in X_i ∩ Y} S[I_ij] * a_j )``, where ``X_i`` is the
    static sparsity of the weights, ``Y`` the dynamic sparsity of the
    activations, ``I`` the 4-bit weight indices and ``S`` the shared-weight
    codebook.  In float mode the result is bit-identical to accumulating the
    decoded weight columns in broadcast order — the parity suite checks it
    against that golden model, mirroring the paper's use of Caffe.

    ``prepare`` builds the CCU and the PE array once; every ``run`` reuses
    it, so multi-vector and multi-call workloads do not pay the array
    construction per inference.

    Args:
        config: accelerator configuration.
        fixed_point: optional fixed-point format for activations, weights,
            products and sums; ``None`` computes in float64 so results match
            the dense reference exactly.
    """

    name = "functional"

    def __init__(
        self,
        config: EIEConfig | None = None,
        fixed_point: FixedPointFormat | None = None,
    ) -> None:
        super().__init__(config)
        self.fixed_point = fixed_point

    def prepare_token(self) -> tuple:
        return (self.name, self.config, self.fixed_point)

    def prepare(self, layer: CompressedLayer) -> PreparedLayer:
        layer = _require_compressed_layer(self.name, layer)
        _require_matching_pes(layer, self.config)
        pes = [
            ProcessingElement(
                pe_id=pe,
                slice_matrix=layer.storage.per_pe[pe],
                codebook=layer.codebook,
                num_pes=self.config.num_pes,
                config=self.config,
                fixed_point=self.fixed_point,
            )
            for pe in range(self.config.num_pes)
        ]
        for pe in pes:
            pe.check_capacity()
        return PreparedLayer(
            engine=self.name,
            num_pes=layer.num_pes,
            rows=layer.rows,
            cols=layer.cols,
            activation_name=layer.activation_name,
            payload=(CentralControlUnit(self.config.num_pes), pes),
            source=layer,
            cache_token=self.prepare_token(),
        )

    def run(self, prepared: PreparedLayer, activations: np.ndarray | None = None) -> EngineResult:
        self._check_prepared(prepared)
        if activations is None:
            raise SimulationError(f"engine {self.name!r} requires an activation vector or batch")
        matrix, batched = self._as_batch(prepared, activations)
        results = tuple(self._run_vector(prepared, row) for row in matrix)
        outputs = np.stack([result.output for result in results])
        return EngineResult(
            engine=self.name,
            batch_size=matrix.shape[0],
            batched=batched,
            outputs=outputs,
            functional=results,
        )

    def _run_vector(self, prepared: PreparedLayer, activations: np.ndarray) -> FunctionalResult:
        """One M x V: broadcast, accumulate in every PE, apply the non-linearity."""
        ccu, pes = prepared.payload
        if self.fixed_point is not None:
            activations = self.fixed_point.quantize(activations)
        for pe in pes:
            pe.reset()
        ccu.enter_computing_mode()
        schedule = ccu.broadcast_schedule(activations)
        for entry in schedule:
            for pe in pes:
                pe.process_activation(entry.column, entry.value)
        ccu.finish_layer()
        pre_activation = np.zeros(prepared.rows, dtype=np.float64)
        counters = PEAccessCounters()
        for pe in pes:
            pre_activation[pe.global_output_indices()] = pe.read_outputs()
            counters = counters.merge(pe.counters)
        return FunctionalResult(
            output=ACTIVATIONS[prepared.activation_name](pre_activation),
            pre_activation=pre_activation,
            broadcasts=len(schedule),
            columns_total=activations.shape[0],
            counters=counters,
            per_pe_entries=np.asarray(
                [pe.counters.entries_processed for pe in pes], dtype=np.int64
            ),
        )


@register_engine
class CycleEngine(SimulationEngine):
    """Broadcast/FIFO timing model behind the engine seam.

    The expensive, layer-dependent half of a timing run — extracting the
    per-(PE, column) entry and padding counts from the interleaved CSC
    storage (:func:`~repro.core.cycle_model.layer_work_matrices`) — happens
    once in ``prepare``.  ``run`` then only gathers the broadcast columns and runs
    the timing recurrence: for a batch, the columns of every item are
    gathered with one fancy-index into the prepared matrices.
    """

    name = "cycle"

    def prepare_token(self) -> tuple:
        # Work matrices depend on the interleaving (PE count) only, so one
        # prepared layer serves a whole FIFO-depth / clock sweep.
        return (self.name, self.config.num_pes)

    def prepare(self, layer) -> PreparedLayer:
        work = getattr(layer, "work", None)
        if work is not None and hasattr(layer, "padding_work"):
            # A LayerWorkload: matrices are pre-sliced to its own schedule.
            if layer.num_pes != self.config.num_pes:
                raise SimulationError(
                    f"workload was built for {layer.num_pes} PEs but the engine "
                    f"configuration has {self.config.num_pes}"
                )
            return PreparedLayer(
                engine=self.name,
                num_pes=layer.num_pes,
                rows=layer.spec.rows,
                cols=layer.spec.cols,
                activation_name="relu",
                # Normalised to int64 here, once: every run call then takes
                # the simulator's assume_valid fast path.
                payload=(
                    "schedule",
                    np.asarray(work, dtype=np.int64),
                    np.asarray(layer.padding_work, dtype=np.int64),
                ),
                source=layer,
                cache_token=self.prepare_token(),
            )
        layer = _require_compressed_layer(self.name, layer)
        _require_matching_pes(layer, self.config)
        counts, padding = layer_work_matrices(layer)
        return PreparedLayer(
            engine=self.name,
            num_pes=layer.num_pes,
            rows=layer.rows,
            cols=layer.cols,
            activation_name=layer.activation_name,
            payload=("columns", counts, padding, padding.sum(axis=0)),
            source=layer,
            cache_token=self.prepare_token(),
        )

    def run(self, prepared: PreparedLayer, activations: np.ndarray | None = None) -> EngineResult:
        self._check_prepared(prepared)
        kind, counts, padding = prepared.payload[:3]
        if activations is None:
            if kind != "schedule":
                raise SimulationError(
                    f"engine {self.name!r} needs activations unless the prepared layer "
                    "carries its own broadcast schedule (a LayerWorkload)"
                )
            stats = simulate_layer_cycles(
                work=counts,
                fifo_depth=self.config.fifo_depth,
                padding_work=padding,
                clock_mhz=self.config.clock_mhz,
                assume_valid=True,
            )
            return EngineResult(engine=self.name, batch_size=1, batched=False, cycles=(stats,))
        if kind == "schedule":
            raise SimulationError(
                "this prepared layer is pre-sliced to its workload's schedule and "
                "cannot run arbitrary activations; prepare a CompressedLayer instead"
            )
        matrix, batched = self._as_batch(prepared, activations)
        # One column-gather for the whole batch: concatenate every item's
        # non-zero columns, fancy-index the prepared matrices once, then cut
        # the gathered block back into per-item spans.
        item_ids, column_ids = np.nonzero(matrix)
        gathered_work = counts[:, column_ids]
        boundaries = np.searchsorted(item_ids, np.arange(matrix.shape[0] + 1))
        if matrix.shape[0] == 1:
            stats = (
                simulate_layer_cycles(
                    work=gathered_work,
                    fifo_depth=self.config.fifo_depth,
                    padding_work=padding[:, column_ids],
                    clock_mhz=self.config.clock_mhz,
                    assume_valid=True,
                ),
            )
        else:
            # Per-item padding totals from the prepared per-column padding
            # sums: a cumulative sum over the gathered columns, differenced
            # at the item boundaries, avoids gathering full padding matrices.
            padding_per_column = prepared.payload[3]
            padding_cumsum = np.concatenate(
                [[0], np.cumsum(padding_per_column[column_ids])]
            )
            padding_totals = padding_cumsum[boundaries[1:]] - padding_cumsum[boundaries[:-1]]
            # The batched recurrence advances every item per broadcast step
            # (bit-identical to a loop of single runs; see the parity tests).
            stats = tuple(
                simulate_layer_cycles_batch(
                    works=[
                        gathered_work[:, start:end]
                        for start, end in zip(boundaries[:-1], boundaries[1:])
                    ],
                    fifo_depth=self.config.fifo_depth,
                    padding_totals=padding_totals.tolist(),
                    clock_mhz=self.config.clock_mhz,
                    assume_valid=True,
                )
            )
        return EngineResult(
            engine=self.name, batch_size=matrix.shape[0], batched=batched, cycles=stats
        )


@register_engine
class RTLEngine(SimulationEngine):
    """Two-phase RTL micro-simulation behind the engine seam.

    Each PE of the array is modelled by
    :class:`~repro.core.rtl.pe_rtl.RTLProcessingElement` driven through the
    layer's broadcast schedule; the interleaved per-PE accumulators are
    reassembled into the dense output and the layer non-linearity applied.
    Cycle counts are reported per PE in ``extra["rtl"]`` (the PEs run
    independently, so the array-level latency is their maximum).
    """

    name = "rtl"

    def prepare_token(self) -> tuple:
        # The payload is the layer itself; the FIFO depth is applied at run
        # time, so one preparation serves every depth at the same PE count.
        return (self.name, self.config.num_pes)

    def prepare(self, layer: CompressedLayer) -> PreparedLayer:
        layer = _require_compressed_layer(self.name, layer)
        _require_matching_pes(layer, self.config)
        return PreparedLayer(
            engine=self.name,
            num_pes=layer.num_pes,
            rows=layer.rows,
            cols=layer.cols,
            activation_name=layer.activation_name,
            payload=layer,
            source=layer,
            cache_token=self.prepare_token(),
        )

    def run(self, prepared: PreparedLayer, activations: np.ndarray | None = None) -> EngineResult:
        self._check_prepared(prepared)
        if activations is None:
            raise SimulationError(f"engine {self.name!r} requires an activation vector or batch")
        matrix, batched = self._as_batch(prepared, activations)
        layer: CompressedLayer = prepared.payload
        nonlinearity = ACTIVATIONS[prepared.activation_name]
        outputs = np.zeros((matrix.shape[0], prepared.rows), dtype=np.float64)
        runs = []
        for item, row in enumerate(matrix):
            schedule = [
                QueueEntry(column=int(column), value=float(row[column]))
                for column in np.nonzero(row)[0]
            ]
            pre_activation = np.zeros(prepared.rows, dtype=np.float64)
            per_pe = []
            for pe, slice_matrix in enumerate(layer.storage.per_pe):
                result = run_pe_rtl(
                    slice_matrix,
                    layer.codebook,
                    schedule,
                    queue_depth=self.config.fifo_depth,
                )
                local_rows = slice_matrix.num_rows
                global_rows = np.arange(local_rows, dtype=np.int64) * prepared.num_pes + pe
                pre_activation[global_rows] = result.accumulators
                per_pe.append(result)
            outputs[item] = nonlinearity(pre_activation)
            runs.append(tuple(per_pe))
        return EngineResult(
            engine=self.name,
            batch_size=matrix.shape[0],
            batched=batched,
            outputs=outputs,
            extra={"rtl": tuple(runs)},
        )
