"""The built-in model catalog: the paper's networks at Table III densities.

Three models are registered when :mod:`repro.models` is imported:

=================  ==========================================================
Key                Network
=================  ==========================================================
alexnet_fc         AlexNet FC6 -> FC7 -> FC8 tail (9% / 9% / 25% weights)
vgg_fc             VGG-16 FC6 -> FC7 -> FC8 tail (4% / 4% / 23% weights)
neuraltalk_lstm    NeuralTalk LSTM step, per-gate or stacked lowering (10%)
=================  ==========================================================

Every builder honours the spec's ``scale`` (each dimension divided by it, so
``scale=1`` is the paper's full size) and ``seed``; the LSTM additionally
takes ``params={"mode": "per_gate" | "stacked"}``.  The default scales keep
CLI runs interactive; the synthetic weights follow the Table III densities
so compression ratios, padding behaviour and load balance stay
representative.

The builders emit :class:`~repro.models.ir.MatVecNode` lists directly:

* **FC tails** — one node per layer spec, chained so each layer's input size
  is the previous layer's (rounded) output size.  Hidden layers use ReLU, the
  last layer the identity.
* **LSTM step** — one time step over the concatenated ``[x_t, h_{t-1}]``
  input.  ``mode="per_gate"`` emits one ``[W_gate | U_gate]`` node per gate
  (``W x + U h`` as a single M x V); ``mode="stacked"`` emits the single
  ``(4*hidden, input+hidden)`` node of the paper's NT-LSTM row.  EIE computes
  M x V only and software applies the sigmoids/tanh, so every LSTM node uses
  the identity activation.
"""

from __future__ import annotations

from dataclasses import replace

import numpy as np

from repro.errors import ConfigurationError
from repro.models.ir import INPUT, MatVecNode, ModelIR
from repro.models.registry import RegisteredModel, register_model
from repro.models.spec import ModelSpec
from repro.utils.rng import derive_seed, make_rng
from repro.workloads.benchmarks import ALL_BENCHMARKS, LayerSpec
from repro.workloads.synthetic import generate_dense_weights

__all__ = ["BUILTIN_MODELS", "LSTM_GATE_NAMES"]

#: The four LSTM gates, in the row order of the stacked NT-LSTM matrix.
LSTM_GATE_NAMES = ("input", "forget", "output", "cell")


def _chained_specs(names: list[str], scale: float) -> list[LayerSpec]:
    """Scaled specs for a layer chain, forcing adjacent sizes to match."""
    chained: list[LayerSpec] = []
    for name in names:
        spec = ALL_BENCHMARKS[name].scaled(scale)
        if chained:
            spec = replace(spec, input_size=chained[-1].output_size)
        chained.append(spec)
    return chained


def _fc_tail(spec: ModelSpec, names: list[str]) -> ModelIR:
    """Shared FC6 -> FC7 -> FC8 tail builder for AlexNet and VGG-16.

    ``seed=None`` keeps the benchmarks' canonical deterministic patterns;
    an explicit seed re-derives every layer's pattern from it (for variance
    studies across synthetic weight draws).
    """
    layer_specs = _chained_specs(names, float(spec.scale))
    if spec.seed is not None:
        layer_specs = [
            replace(layer, seed=derive_seed(spec.seed, layer.name)) for layer in layer_specs
        ]
    nodes: list[MatVecNode] = []
    previous = INPUT
    for index, layer in enumerate(layer_specs):
        nodes.append(
            MatVecNode(
                name=layer.name,
                weight=generate_dense_weights(layer),
                activation="relu" if index < len(layer_specs) - 1 else "identity",
                source=previous,
            )
        )
        previous = layer.name
    return ModelIR(
        nodes,
        name=spec.model,
        input_density=ALL_BENCHMARKS[names[0]].activation_density,
        metadata={"spec": spec.to_dict()},
    )


def _build_alexnet(spec: ModelSpec) -> ModelIR:
    return _fc_tail(spec, ["Alex-6", "Alex-7", "Alex-8"])


def _build_vgg(spec: ModelSpec) -> ModelIR:
    return _fc_tail(spec, ["VGG-6", "VGG-7", "VGG-8"])


def _sparse_gate_matrix(seed: int, kind: str, gate: str, shape: tuple[int, int],
                        density: float) -> np.ndarray:
    """One Gaussian gate matrix pruned to ``density`` (never all-zero)."""
    rng = make_rng(derive_seed(seed, kind, gate))
    matrix = rng.normal(0.0, 0.1, size=shape)
    matrix[rng.random(shape) >= density] = 0.0
    if not np.count_nonzero(matrix):
        matrix[0, 0] = 0.1
    return matrix


def _build_neuraltalk(spec: ModelSpec) -> ModelIR:
    """A NeuralTalk-style LSTM step with sparse gate matrices.

    The full NT-LSTM benchmark stacks the gate matrices into a 1201 x 2400
    layer; the hidden and input sizes are 600 at scale 1, and each gate's
    ``W`` (input) and ``U`` (recurrent) matrix is pruned to the NT-LSTM
    density.
    """
    mode = str(spec.params.get("mode", "per_gate"))
    if mode not in ("per_gate", "stacked"):
        raise ConfigurationError(
            f"unknown LSTM lowering mode {mode!r}; expected 'per_gate' or 'stacked'"
        )
    seed = int(spec.seed)
    hidden = max(8, int(round(600 / float(spec.scale))))
    inputs = max(8, int(round(600 / float(spec.scale))))
    density = ALL_BENCHMARKS["NT-LSTM"].weight_density
    gate_weights = {
        gate: np.concatenate(
            [
                _sparse_gate_matrix(seed, "W", gate, (hidden, inputs), density),
                _sparse_gate_matrix(seed, "U", gate, (hidden, hidden), density),
            ],
            axis=1,
        )
        for gate in LSTM_GATE_NAMES
    }
    # Zero biases rather than none: the bias bytes feed fingerprint(), which
    # keys compressed-model caches and stored artifacts.
    if mode == "per_gate":
        nodes = [
            MatVecNode(
                name=f"gate_{gate}",
                weight=gate_weights[gate],
                activation="identity",
                bias=np.zeros(hidden),
                metadata={"gate": gate},
            )
            for gate in LSTM_GATE_NAMES
        ]
    else:
        nodes = [
            MatVecNode(
                name="gates_stacked",
                weight=np.vstack([gate_weights[gate] for gate in LSTM_GATE_NAMES]),
                activation="identity",
                bias=np.zeros(len(LSTM_GATE_NAMES) * hidden),
                metadata={"gates": list(LSTM_GATE_NAMES)},
            )
        ]
    return ModelIR(
        nodes,
        name=spec.model,
        input_density=ALL_BENCHMARKS["NT-LSTM"].activation_density,
        metadata={
            "mode": mode,
            "input_size": inputs,
            "hidden_size": hidden,
            "spec": spec.to_dict(),
        },
    )


BUILTIN_MODELS: tuple[RegisteredModel, ...] = (
    RegisteredModel(
        name="alexnet_fc",
        description="AlexNet FC6-FC8 tail at Table III densities (9%/9%/25% weights)",
        # seed=None keeps the benchmarks' canonical patterns; an explicit
        # --seed re-derives every layer's synthetic weights from it.
        spec=ModelSpec(model="alexnet_fc", scale=32.0),
        build=_build_alexnet,
    ),
    RegisteredModel(
        name="vgg_fc",
        description="VGG-16 FC6-FC8 tail at Table III densities (4%/4%/23% weights)",
        spec=ModelSpec(model="vgg_fc", scale=32.0),
        build=_build_vgg,
    ),
    RegisteredModel(
        name="neuraltalk_lstm",
        description="NeuralTalk LSTM step (10% gate weights; per-gate or stacked lowering)",
        spec=ModelSpec(
            model="neuraltalk_lstm", scale=8.0, seed=7, params={"mode": "per_gate"}
        ),
        build=_build_neuraltalk,
    ),
)

for _model in BUILTIN_MODELS:
    register_model(_model)
