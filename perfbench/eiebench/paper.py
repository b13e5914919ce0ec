"""The ``paper`` workload: the 16 paper experiments at full Table III scale.

Each experiment runs through a fresh :class:`ExperimentRunner` (serial), as
16 ``repro experiment run NAME`` invocations would, and all of them share one
artifact store that starts empty.  The operations of this workload are the
experiments' grid points: their count over the wall time is ``ops_per_s``,
and each point's wall time is one latency sample.

Inputs come from the workload seed.  Seed ``s`` selects input set
``s mod INPUT_SETS``: set 0 is the library's own default (Table III seeds,
each experiment's default seed) and set ``i > 0`` re-seeds every Table III
layer with ``BASE_SEED + i`` and every experiment with ``i``.  Each set's
records are checked byte for byte against the digests recorded in
``paper_digests.json``.
"""

from __future__ import annotations

import contextlib
import hashlib
import json
import shutil
import subprocess
import sys
import time
from dataclasses import replace
from pathlib import Path
from typing import Callable

EXPERIMENTS = (
    "fig6_speedup",
    "fig7_energy_efficiency",
    "fig8_fifo_depth",
    "fig9_sram_width",
    "fig10_precision",
    "fig11_scalability",
    "fig12_padding_zeros",
    "fig13_load_balance",
    "table1_energy",
    "table2_area_power",
    "table3_benchmarks",
    "table4_wallclock",
    "table5_platforms",
    "ablation_codebook_bits",
    "ablation_index_width",
    "ablation_partitioning",
)

#: Number of distinct input sets with recorded digests.
INPUT_SETS = 10

DIGESTS = Path(__file__).resolve().parent.parent / "paper_digests.json"

_SETUP_SNIPPET = """
import sys, time
sys.path.insert(0, sys.argv[1])
from repro.experiments import ExperimentRunner
from repro.store import ArtifactStore
ExperimentRunner(executor="serial", store=ArtifactStore(sys.argv[2]))
print(time.monotonic())
"""


def input_set(seed: int) -> int:
    return seed % INPUT_SETS


def run_overrides(experiment: str, index: int, scale: float | None) -> dict:
    """``ExperimentRunner.run`` keyword arguments for one experiment and input set."""
    from repro.experiments import ExperimentRegistry
    from repro.workloads.benchmarks import BASE_SEED, get_benchmark

    spec = ExperimentRegistry.get(experiment).spec
    overrides: dict = {}
    if index:
        overrides["seed"] = index
    if spec.workloads is not None and (index or scale is not None):
        layers = []
        for name in spec.workloads:
            layer = get_benchmark(name)
            if scale is not None:
                layer = layer.scaled(scale)
            layers.append(replace(layer, seed=BASE_SEED + index))
        overrides["workloads"] = layers
    return overrides


def records_digest(result) -> str:
    records = result.to_dict()["records"]
    return hashlib.sha256(json.dumps(records).encode()).hexdigest()


def timed_registry(samples: list[float]):
    """An experiment registry whose grid points append their wall time to ``samples``."""
    from repro.experiments import ExperimentRegistry

    class TimedRegistry(ExperimentRegistry):
        @classmethod
        def get(cls, name):
            experiment = super().get(name)
            run_point = experiment.run_point

            def timed(context, point):
                started = time.perf_counter()
                try:
                    return run_point(context, point)
                finally:
                    samples.append(time.perf_counter() - started)

            return replace(experiment, run_point=timed)

    return TimedRegistry


def run_pass(
    seed: int,
    store_dir: Path,
    scale: float | None = None,
    experiments: tuple[str, ...] = EXPERIMENTS,
    registry=None,
    around: Callable | None = None,
) -> tuple[float, dict[str, str], "ArtifactStore"]:
    """Run every experiment once on an empty store: (wall s, digests, store)."""
    from repro.experiments import ExperimentRegistry, ExperimentRunner
    from repro.store import ArtifactStore

    shutil.rmtree(store_dir, ignore_errors=True)
    store = ArtifactStore(store_dir)
    index = input_set(seed)
    digests = {}
    started = time.perf_counter()
    for name in experiments:
        runner = ExperimentRunner(
            executor="serial", store=store, registry=registry or ExperimentRegistry
        )
        with around(name) if around else contextlib.nullcontext():
            result = runner.run(name, **run_overrides(name, index, scale))
        digests[name] = records_digest(result)
    wall = time.perf_counter() - started
    return wall, digests, store


def expected_digests(seed: int) -> dict[str, str]:
    """The recorded digests of this seed's input set."""
    recorded = json.loads(DIGESTS.read_text())
    return recorded["input_sets"][str(input_set(seed))]


def measure_setup(src: Path, scratch: Path, repeats: int) -> list[float]:
    """Time from spawning a fresh process until it has imported the runner and opened an
    empty store.

    The child prints the monotonic clock (shared by all processes) when it is
    ready, so neither interpreter shutdown nor the 50 ms polling of a
    ``subprocess`` wait with a timeout enters the sample.
    """
    samples = []
    for attempt in range(repeats):
        store_dir = scratch / f"setup-store-{attempt}"
        shutil.rmtree(store_dir, ignore_errors=True)
        started = time.monotonic()
        child = subprocess.run(
            [sys.executable, "-c", _SETUP_SNIPPET, str(src), str(store_dir)],
            check=True,
            timeout=120,
            capture_output=True,
            text=True,
        )
        samples.append(float(child.stdout.split()[-1]) - started)
        shutil.rmtree(store_dir, ignore_errors=True)
    return samples


def mismatched(digests: dict[str, str], expected: dict[str, str]) -> list[str]:
    """Experiments whose records differ from the recorded digests."""
    return [name for name, digest in digests.items() if expected.get(name) != digest]
