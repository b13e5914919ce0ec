"""The canonical model IR: an ordered graph of matrix-vector nodes.

The paper evaluates EIE on nine *layers* (Table III), but every network it
draws them from — the FC tails of AlexNet/VGG-16, the NeuralTalk LSTM, and
the convolutions of Section VII-C — is ultimately a sequence of M x V
operations, which is exactly the unit the rest of this library understands
(:class:`~repro.compression.pipeline.CompressedLayer`, the engine seam, the
cycle model).  :class:`ModelIR` is the whole-network form of that unit: an
ordered list of :class:`MatVecNode` objects, each carrying a dense weight
matrix, an activation function, and edge wiring (which earlier node — or the
model input — feeds it, optionally through a slice).

Nodes are built directly (the built-in catalog in :mod:`repro.models.catalog`
emits its FC tails and LSTM gate nodes this way) or by the ``from_*``
constructors:

* ``from_conv`` — an im2col lowering: the ``(C_out, C_in, kh, kw)`` kernel
  bank becomes one ``(C_out, C_in*kh*kw)`` node and every output position's
  receptive field is one activation vector (use :func:`conv_activation_batch`
  to build the batch).  1x1 kernels degenerate to the per-pixel channel-wise
  M x V the paper describes.
* ``from_npz`` — state-dict import: a ``.npz`` archive with ``<name>.weight``
  (and optional ``<name>.bias`` / ``<name>.activation``) members becomes a
  chain of nodes in archive order.  ``to_npz`` writes the same convention.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Iterable, Iterator, Mapping

import numpy as np

from repro.errors import ConfigurationError
from repro.nn.convolution import im2col
from repro.nn.layers import ACTIVATIONS
from repro.utils.validation import require_matrix, require_vector

__all__ = ["INPUT", "MatVecNode", "ModelTrace", "ModelIR", "conv_activation_batch"]

#: Reserved source name designating the model's external input vector.
INPUT = "input"


def _freeze_array(array: np.ndarray) -> None:
    """Make ``array`` — and the base arrays a view exposes — read-only.

    Freezing only a view is ineffective (writes through the still-writeable
    base bypass the view's flag), so the whole base chain is frozen too.
    """
    target: np.ndarray | None = array
    while isinstance(target, np.ndarray):
        try:
            target.setflags(write=False)
        except ValueError:  # pragma: no cover - foreign/read-only-base memory
            break
        target = target.base


@dataclass
class MatVecNode:
    """One matrix-vector operation of a lowered model.

    Attributes:
        name: unique node label (used in reports and as wiring target).
        weight: dense weight matrix of shape ``(rows, cols)``.
        activation: non-linearity applied after the M x V (a key of
            :data:`~repro.nn.layers.ACTIVATIONS`).
        bias: optional ``(rows,)`` bias added before the non-linearity.  EIE
            itself computes M x V only; biases are applied in software when
            the model is executed, exactly like the LSTM non-linearities.
        source: which vector feeds this node — :data:`INPUT` or the name of
            an earlier node.
        input_slice: optional ``(start, stop)`` half-open slice of the source
            vector; ``None`` consumes the whole vector.
        metadata: free-form lowering details (gate names, conv geometry, ...).
    """

    name: str
    weight: np.ndarray
    activation: str = "relu"
    bias: np.ndarray | None = None
    source: str = INPUT
    input_slice: tuple[int, int] | None = None
    metadata: dict = field(default_factory=dict)

    def __post_init__(self) -> None:
        if not self.name or self.name == INPUT:
            raise ConfigurationError(
                f"node name must be non-empty and not {INPUT!r}, got {self.name!r}"
            )
        self.weight = np.asarray(require_matrix(f"{self.name}.weight", self.weight),
                                 dtype=np.float64)
        if self.bias is not None:
            self.bias = np.asarray(require_vector(f"{self.name}.bias", self.bias),
                                   dtype=np.float64)
            if self.bias.shape[0] != self.weight.shape[0]:
                raise ConfigurationError(
                    f"node {self.name!r}: bias length {self.bias.shape[0]} does not "
                    f"match output size {self.weight.shape[0]}"
                )
        if self.activation not in ACTIVATIONS:
            raise ConfigurationError(
                f"node {self.name!r}: unknown activation {self.activation!r}; "
                f"expected one of {sorted(ACTIVATIONS)}"
            )
        if self.input_slice is not None:
            start, stop = (int(self.input_slice[0]), int(self.input_slice[1]))
            if start < 0 or stop <= start:
                raise ConfigurationError(
                    f"node {self.name!r}: input_slice must satisfy 0 <= start < stop, "
                    f"got ({start}, {stop})"
                )
            if stop - start != self.cols:
                raise ConfigurationError(
                    f"node {self.name!r}: input_slice spans {stop - start} elements "
                    f"but the weight matrix has {self.cols} columns"
                )
            self.input_slice = (start, stop)

    @property
    def rows(self) -> int:
        """Output size of the node (weight-matrix rows)."""
        return self.weight.shape[0]

    @property
    def cols(self) -> int:
        """Input size of the node (weight-matrix columns)."""
        return self.weight.shape[1]

    @property
    def num_weights(self) -> int:
        """Dense weight count of the node."""
        return self.weight.size

    @property
    def weight_density(self) -> float:
        """Fraction of non-zero weights."""
        return float(np.count_nonzero(self.weight)) / max(self.weight.size, 1)

    def forward(self, inputs: np.ndarray) -> np.ndarray:
        """``f(W a + bias)`` for one vector or a ``(batch, cols)`` matrix."""
        inputs = np.asarray(inputs, dtype=np.float64)
        pre = inputs @ self.weight.T if inputs.ndim == 2 else self.weight @ inputs
        if self.bias is not None:
            pre = pre + self.bias
        return ACTIVATIONS[self.activation](pre)


@dataclass
class ModelTrace:
    """Record of one (possibly batched) forward pass through a model.

    Attributes:
        inputs: the external input — ``(input_size,)`` or ``(batch, input_size)``.
        node_outputs: output of every node, keyed by node name, in node order.
    """

    inputs: np.ndarray
    node_outputs: dict[str, np.ndarray] = field(default_factory=dict)

    @property
    def output(self) -> np.ndarray:
        """The last node's output (the conventional network output)."""
        if not self.node_outputs:
            return self.inputs
        return next(reversed(list(self.node_outputs.values())))

    def node_output(self, name: str) -> np.ndarray:
        """Output of the named node."""
        return self.node_outputs[name]


class ModelIR:
    """A whole network lowered to an ordered graph of M x V nodes.

    Nodes execute in list order; each node reads the model input or an
    earlier node's output (optionally sliced), so the IR is a DAG with a
    deterministic schedule.  The IR carries the *dense float* weights — it is
    the form that flows into :meth:`~repro.engine.session.Session.compress_model`
    (per-node Deep Compression) and
    :meth:`~repro.engine.session.Session.run_model` (whole-model execution on
    any registered engine).

    Args:
        nodes: the M x V nodes in execution order.
        name: model label used in reports and cache keys.
        input_density: expected density of the external input vector (the
            Act% of the first layer — used by callers that synthesize inputs).
        metadata: free-form provenance (source builder, scale, ...).
    """

    def __init__(
        self,
        nodes: "Iterable[MatVecNode]",
        name: str = "model",
        input_density: float = 1.0,
        metadata: dict | None = None,
    ) -> None:
        self.nodes = list(nodes)
        if not self.nodes:
            raise ConfigurationError("a model needs at least one node")
        if not 0.0 < input_density <= 1.0:
            raise ConfigurationError(
                f"input_density must be in (0, 1], got {input_density}"
            )
        self.name = name
        self.input_density = float(input_density)
        self.metadata = dict(metadata or {})
        self._by_name: dict[str, MatVecNode] = {}
        sizes: dict[str, int] = {}
        # Full-input nodes fix the model input size; sliced input nodes only
        # demand a minimum.  Collected first, reconciled after the loop, so
        # validation does not depend on node order.
        full_input_cols: int | None = None
        sliced_input_need = 0
        for node in self.nodes:
            if node.name in self._by_name:
                raise ConfigurationError(f"duplicate node name {node.name!r}")
            if node.source == INPUT:
                span = node.input_slice
                if span is None:
                    if full_input_cols is not None and full_input_cols != node.cols:
                        raise ConfigurationError(
                            f"node {node.name!r} consumes the full model input of size "
                            f"{node.cols}, but another node fixed it to {full_input_cols}"
                        )
                    full_input_cols = node.cols
                else:
                    sliced_input_need = max(sliced_input_need, span[1])
            else:
                if node.source not in self._by_name:
                    raise ConfigurationError(
                        f"node {node.name!r} sources {node.source!r}, which is not "
                        f"{INPUT!r} or an earlier node"
                    )
                source_size = sizes[node.source]
                span = node.input_slice
                if span is None:
                    if node.cols != source_size:
                        raise ConfigurationError(
                            f"node {node.name!r} has {node.cols} columns but its source "
                            f"{node.source!r} produces {source_size} outputs"
                        )
                elif span[1] > source_size:
                    raise ConfigurationError(
                        f"node {node.name!r} slices [{span[0]}, {span[1]}) of source "
                        f"{node.source!r}, which only produces {source_size} outputs"
                    )
            self._by_name[node.name] = node
            sizes[node.name] = node.rows
        if full_input_cols is not None:
            if sliced_input_need > full_input_cols:
                raise ConfigurationError(
                    f"an input slice reaches element {sliced_input_need}, past the "
                    f"model input size {full_input_cols} fixed by a full-input node"
                )
            input_size = full_input_cols
        elif sliced_input_need:
            input_size = sliced_input_need
        else:
            raise ConfigurationError("no node consumes the model input")
        self._input_size = int(input_size)
        consumed = {node.source for node in self.nodes}
        self.output_names: tuple[str, ...] = tuple(
            node.name for node in self.nodes if node.name not in consumed
        )

    # -- structure ---------------------------------------------------------------

    @property
    def input_size(self) -> int:
        """Length of the external input vector the model expects."""
        return self._input_size

    @property
    def output_size(self) -> int:
        """Output length of the last node (the conventional network output)."""
        return self.nodes[-1].rows

    @property
    def num_nodes(self) -> int:
        """Number of M x V nodes."""
        return len(self.nodes)

    @property
    def num_parameters(self) -> int:
        """Total dense weights (plus biases) across all nodes."""
        total = 0
        for node in self.nodes:
            total += node.num_weights
            if node.bias is not None:
                total += node.bias.shape[0]
        return total

    @property
    def total_macs(self) -> int:
        """Multiply-accumulates of one dense forward pass."""
        return sum(node.num_weights for node in self.nodes)

    def node(self, name: str) -> MatVecNode:
        """Look up a node by name."""
        try:
            return self._by_name[name]
        except KeyError:
            raise ConfigurationError(
                f"model {self.name!r} has no node {name!r}; "
                f"nodes: {[n.name for n in self.nodes]}"
            ) from None

    def __iter__(self) -> Iterator[MatVecNode]:
        return iter(self.nodes)

    def __len__(self) -> int:
        return len(self.nodes)

    def describe(self) -> dict[str, Any]:
        """A JSON-friendly structural summary (no weights)."""
        return {
            "name": self.name,
            "input_size": self.input_size,
            "output_size": self.output_size,
            "num_nodes": self.num_nodes,
            "num_parameters": self.num_parameters,
            "input_density": self.input_density,
            "outputs": list(self.output_names),
            "nodes": [
                {
                    "name": node.name,
                    "shape": [node.rows, node.cols],
                    "activation": node.activation,
                    "bias": node.bias is not None,
                    "source": node.source,
                    "input_slice": list(node.input_slice) if node.input_slice else None,
                    "weight_density": node.weight_density,
                }
                for node in self.nodes
            ],
            "metadata": dict(self.metadata),
        }

    def fingerprint(self) -> str:
        """Content hash over every node's weights, wiring and activations.

        Mirrors :func:`~repro.compression.pipeline.weights_fingerprint` at the
        model level; :class:`~repro.engine.session.Session` keys its
        compressed-model cache on it.  Computed once and memoized — node
        weights are treated as immutable after construction (the same
        contract ``CompressedLayer.dense_weights`` caching relies on), and
        hashing every weight byte per lookup would dominate cached
        ``run_model`` loops.
        """
        cached = getattr(self, "_fingerprint", None)
        if cached is not None:
            return cached
        digest = hashlib.sha256()
        # Freeze what we hash: a later in-place weight edit would otherwise
        # serve stale cached fingerprints (and stale compressed models).
        for node in self.nodes:
            _freeze_array(node.weight)
            if node.bias is not None:
                _freeze_array(node.bias)
        for node in self.nodes:
            digest.update(
                f"{node.name}|{node.activation}|{node.source}|{node.input_slice}|"
                f"{node.weight.shape}".encode()
            )
            digest.update(np.ascontiguousarray(node.weight).tobytes())
            if node.bias is not None:
                digest.update(np.ascontiguousarray(node.bias).tobytes())
        self._fingerprint = digest.hexdigest()
        return self._fingerprint

    # -- execution (dense float reference) ----------------------------------------

    def node_input(
        self,
        node: MatVecNode,
        inputs: np.ndarray,
        node_outputs: Mapping[str, np.ndarray],
    ) -> np.ndarray:
        """The vector(s) feeding ``node`` given the model input and prior outputs.

        ``inputs`` and the entries of ``node_outputs`` may be single vectors
        or ``(batch, size)`` matrices; the slice (if any) is applied to the
        last axis.  This is the single wiring rule shared by the dense
        reference (:meth:`trace`) and the engine-backed execution
        (``Session.run_model``), so both see identical broadcast sets.
        """
        source = inputs if node.source == INPUT else node_outputs[node.source]
        if node.input_slice is None:
            return source
        start, stop = node.input_slice
        return source[..., start:stop]

    def trace(self, inputs: np.ndarray) -> ModelTrace:
        """Dense float forward pass recording every node's output."""
        inputs = np.asarray(inputs, dtype=np.float64)
        if inputs.ndim not in (1, 2) or inputs.shape[-1] != self.input_size:
            raise ConfigurationError(
                f"model input must be ({self.input_size},) or (batch, "
                f"{self.input_size}), got shape {inputs.shape}"
            )
        trace = ModelTrace(inputs=inputs)
        for node in self.nodes:
            trace.node_outputs[node.name] = node.forward(
                self.node_input(node, inputs, trace.node_outputs)
            )
        return trace

    def forward(self, inputs: np.ndarray) -> np.ndarray:
        """Dense float forward pass returning the last node's output."""
        return self.trace(inputs).output

    def __call__(self, inputs: np.ndarray) -> np.ndarray:
        return self.forward(inputs)

    # -- lowering constructors ------------------------------------------------------

    @classmethod
    def from_conv(cls, kernels: np.ndarray, height: int, width: int,
                  stride: int = 1, padding: int = 0, activation: str = "relu",
                  name: str = "conv", input_density: float = 1.0) -> "ModelIR":
        """Lower a convolution to one im2col M x V node.

        ``kernels`` is the ``(C_out, C_in, kh, kw)`` bank; ``height``/``width``
        describe the input feature map the layer will see.  The node's matrix
        is ``(C_out, C_in*kh*kw)`` and one forward pass of the model consumes
        one im2col column (one output position); ``out_h * out_w`` positions
        make one feature map — build them with :func:`conv_activation_batch`.
        For 1x1 kernels this is exactly the per-pixel channel-wise M x V of
        Section VII-C.
        """
        kernels = np.asarray(kernels, dtype=np.float64)
        if kernels.ndim != 4:
            raise ConfigurationError(
                f"kernels must be (out_channels, in_channels, kh, kw), got {kernels.shape}"
            )
        if stride < 1 or padding < 0:
            raise ConfigurationError("stride must be >= 1 and padding >= 0")
        out_channels, in_channels, kernel_h, kernel_w = kernels.shape
        out_h = (height + 2 * padding - kernel_h) // stride + 1
        out_w = (width + 2 * padding - kernel_w) // stride + 1
        if out_h < 1 or out_w < 1:
            raise ConfigurationError("kernel does not fit in the (padded) feature map")
        node = MatVecNode(
            name=name,
            weight=kernels.reshape(out_channels, in_channels * kernel_h * kernel_w),
            activation=activation,
            metadata={
                "kernel_shape": list(kernels.shape),
                "input_hw": [int(height), int(width)],
                "stride": int(stride),
                "padding": int(padding),
                "num_matvecs": int(out_h * out_w),
            },
        )
        return cls(
            [node],
            name=name,
            input_density=input_density,
            metadata={"lowered_from": "conv2d", "num_matvecs": int(out_h * out_w)},
        )

    # -- state-dict import/export ---------------------------------------------------

    @classmethod
    def from_npz(cls, path: "str | Path", name: str | None = None,
                 input_density: float = 1.0) -> "ModelIR":
        """Import a chain model from a ``.npz`` state dict.

        Convention: every member ``<node>.weight`` defines one node, in
        archive order, chained onto the previous node's output; optional
        ``<node>.bias`` and ``<node>.activation`` (a 0-d string array)
        members attach to it.  ``to_npz`` writes the same layout, so
        ``ModelIR.from_npz(path)`` round-trips anything ``to_npz`` saved.
        """
        path = Path(path)
        with np.load(path, allow_pickle=False) as archive:
            members = list(archive.files)
            weight_keys = [key for key in members if key.endswith(".weight")]
            if not weight_keys:
                raise ConfigurationError(
                    f"{path}: no '<node>.weight' members found; "
                    f"archive members: {members}"
                )
            nodes: list[MatVecNode] = []
            previous = INPUT
            for key in weight_keys:
                node_name = key[: -len(".weight")]
                bias_key = f"{node_name}.bias"
                bias = archive[bias_key] if bias_key in members else None
                activation_key = f"{node_name}.activation"
                activation = (
                    str(archive[activation_key][()]) if activation_key in members else "relu"
                )
                nodes.append(
                    MatVecNode(
                        name=node_name,
                        weight=archive[key],
                        activation=activation,
                        bias=bias,
                        source=previous,
                    )
                )
                previous = node_name
        return cls(
            nodes,
            name=name or path.stem,
            input_density=input_density,
            metadata={"lowered_from": "npz", "path": str(path)},
        )

    def to_npz(self, path: "str | Path") -> Path:
        """Export the model as a ``.npz`` state dict (see :meth:`from_npz`).

        Only chain models (every node sourcing the previous one, no slices)
        can be exported — the npz convention has no wiring syntax.
        """
        previous = INPUT
        for node in self.nodes:
            if node.source != previous or node.input_slice is not None:
                raise ConfigurationError(
                    f"to_npz supports chain models only; node {node.name!r} "
                    f"sources {node.source!r} (slice {node.input_slice})"
                )
            previous = node.name
        arrays: dict[str, np.ndarray] = {}
        for node in self.nodes:
            arrays[f"{node.name}.weight"] = node.weight
            if node.bias is not None:
                arrays[f"{node.name}.bias"] = node.bias
            arrays[f"{node.name}.activation"] = np.array(node.activation)
        path = Path(path)
        # np.savez appends the suffix itself; return the path it wrote.
        if path.suffix != ".npz":
            path = path.with_name(path.name + ".npz")
        np.savez(path, **arrays)
        return path


def conv_activation_batch(feature_map: np.ndarray, model: ModelIR) -> np.ndarray:
    """The im2col activation batch a ``from_conv`` model consumes.

    Returns a ``(out_h * out_w, C_in*kh*kw)`` matrix — one activation vector
    per output position, ready for ``Session.run_model``.  To recover the
    feature-map view from the resulting ``(positions, C_out)`` outputs,
    transpose first: ``outputs.T.reshape(C_out, out_h, out_w)`` (positions
    run row-major over the output grid).
    """
    node = model.nodes[0]
    geometry = node.metadata
    if "kernel_shape" not in geometry:
        raise ConfigurationError(
            f"model {model.name!r} was not lowered with ModelIR.from_conv"
        )
    _, _, kernel_h, kernel_w = geometry["kernel_shape"]
    columns = im2col(
        feature_map,
        int(kernel_h),
        int(kernel_w),
        stride=int(geometry["stride"]),
        padding=int(geometry["padding"]),
    )
    return columns.T
