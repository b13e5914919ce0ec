"""Shared fixtures and reporting helpers for the benchmark harness.

Every module under ``benchmarks/`` regenerates one table or figure of the
paper at **full Table III scale** (no down-scaling) by running the
corresponding registered experiment of :mod:`repro.experiments`.  The
expensive part — generating the Bernoulli sparsity patterns of the nine
benchmark layers — is shared across all modules through a session-scoped
:class:`~repro.experiments.runner.ExperimentRunner` (one workload builder and
one engine session), and every benchmark writes the result it regenerates to
``results/<experiment>.txt`` **and** ``results/<experiment>.json`` through
:meth:`~repro.experiments.result.ExperimentResult.write` so they can be
compared against the paper's published values in
:mod:`repro.baselines.reference`.
"""

from __future__ import annotations

from pathlib import Path

import pytest

from repro.core.config import EIEConfig
from repro.experiments import ExperimentResult, ExperimentRunner
from repro.workloads.generator import WorkloadBuilder

#: Where the regenerated tables/figures are written.
RESULTS_DIR = Path(__file__).resolve().parent.parent / "results"


@pytest.fixture(scope="session")
def builder() -> WorkloadBuilder:
    """One workload builder (and its in-memory caches) for the whole benchmark run."""
    return WorkloadBuilder()


@pytest.fixture(scope="session")
def runner(builder: WorkloadBuilder) -> ExperimentRunner:
    """One experiment runner (builder + engine session) for all benchmarks."""
    return ExperimentRunner(builder=builder)


@pytest.fixture(scope="session")
def eie_config() -> EIEConfig:
    """The paper's 64-PE, 800 MHz, FIFO-depth-8 design point."""
    return EIEConfig()


@pytest.fixture(scope="session")
def results_dir() -> Path:
    """Directory the regenerated tables and figure series are written to."""
    RESULTS_DIR.mkdir(exist_ok=True)
    return RESULTS_DIR


def write_result(
    results_dir: Path, result: ExperimentResult, extra: str | None = None
) -> None:
    """Write one result to ``results/<experiment>.{txt,json}`` and echo it."""
    txt_path, _ = result.write(results_dir, extra=extra)
    print(f"\n===== {result.experiment} =====\n{txt_path.read_text()}")

