"""repro: a reproduction of EIE, the Efficient Inference Engine (ISCA 2016).

The library implements, in pure Python + numpy:

* the Deep Compression pipeline (pruning, 4-bit weight sharing,
  relative-indexed interleaved CSC encoding, Huffman storage accounting);
* the EIE accelerator itself — functional (bit-exact) simulation, a
  cycle-level performance model, and an RTL-style two-phase micro-simulator;
* hardware cost models (Table I energies, the Table II PE area/power
  breakdown, an SRAM read-energy model, technology scaling);
* analytic baseline platforms (CPU, GPU, mobile GPU, DaDianNao, ...);
* the nine Table III benchmark workloads and the analysis code that
  regenerates every table and figure of the paper's evaluation;
* an async serving layer (``repro.serve``): dynamic batching, admission
  control, a TCP daemon + client and an open-loop load generator, with
  responses bit-identical to the offline ``Session.run_model`` path —
  scaled out by a supervised worker fleet (``repro.serve.fleet``) with
  heartbeat health checks, restart backoff, per-worker circuit breakers,
  deadline propagation and a seeded chaos-acceptance harness;
* a reliability layer (``repro.reliability``): seeded SRAM bit-flip
  injection into packed compressed storage, ECC protection (parity,
  SECDED(72,64)) with storage/read-energy costs, and a degradation
  harness behind the ``reliability_pareto`` experiment.

Quick start::

    import numpy as np
    from repro import EIEConfig, Session

    config = EIEConfig(num_pes=8)
    session = Session(config=config)
    rng = np.random.default_rng(0)
    weights = rng.normal(size=(256, 512)) * (rng.random((256, 512)) < 0.1)
    layer = session.compress(weights, num_pes=config.num_pes, name="fc")
    activations = rng.random(512)
    result = session.run("functional", layer, activations)
    stats = session.run("cycle", layer, activations).stats
    print(result.output.shape, stats.performance(layer.dense_weight_count).time_us)
"""

from repro.compression import (
    CompressedLayer,
    CompressionConfig,
    CSCMatrix,
    DeepCompressor,
    HuffmanCode,
    InterleavedCSC,
    WeightCodebook,
    prune_to_density,
)
from repro.core import CycleStats, EIEConfig, FunctionalResult
from repro.engine import (
    EngineRegistry,
    EngineResult,
    PreparedLayer,
    Session,
    SimulationEngine,
    register_engine,
)
from repro.experiments import (
    Experiment,
    ExperimentRegistry,
    ExperimentResult,
    ExperimentRunner,
    ExperimentSpec,
    register_experiment,
    run_experiment,
)
from repro.hardware import ENERGY_TABLE_45NM, EnergyModel, PEAreaModel
from repro.models import (
    CompressedModel,
    MatVecNode,
    ModelIR,
    ModelRegistry,
    ModelRunResult,
    ModelSpec,
    build_model,
    register_model,
)
from repro.reliability import (
    FaultConfig,
    inject_layer_faults,
    inject_model_faults,
    run_degradation,
)
from repro.serve import BatchPolicy, Server, ServeResponse, run_open_loop
from repro.store import ArtifactStore
from repro.workloads import ALL_BENCHMARKS, BENCHMARK_NAMES, LayerSpec, WorkloadBuilder

__version__ = "1.5.0"

__all__ = [
    "ALL_BENCHMARKS",
    "ArtifactStore",
    "BENCHMARK_NAMES",
    "BatchPolicy",
    "CSCMatrix",
    "CompressedLayer",
    "CompressedModel",
    "CompressionConfig",
    "CycleStats",
    "DeepCompressor",
    "EIEConfig",
    "ENERGY_TABLE_45NM",
    "EnergyModel",
    "EngineRegistry",
    "EngineResult",
    "Experiment",
    "ExperimentRegistry",
    "ExperimentResult",
    "ExperimentRunner",
    "ExperimentSpec",
    "FaultConfig",
    "FunctionalResult",
    "HuffmanCode",
    "InterleavedCSC",
    "LayerSpec",
    "MatVecNode",
    "ModelIR",
    "ModelRegistry",
    "ModelRunResult",
    "ModelSpec",
    "PEAreaModel",
    "PreparedLayer",
    "ServeResponse",
    "Server",
    "Session",
    "SimulationEngine",
    "WeightCodebook",
    "WorkloadBuilder",
    "__version__",
    "build_model",
    "inject_layer_faults",
    "inject_model_faults",
    "prune_to_density",
    "register_engine",
    "register_experiment",
    "register_model",
    "run_degradation",
    "run_experiment",
    "run_open_loop",
]
