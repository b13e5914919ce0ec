"""String-keyed registry of declarative experiments.

The experiment registry mirrors the engine registry pattern
(:class:`~repro.engine.registry.EngineRegistry`): every reproduction entry
point — each figure, table and ablation of the paper — registers itself under
a short name (``"fig8_fifo_depth"``, ``"table4_wallclock"``, ...) together
with its default :class:`~repro.experiments.spec.ExperimentSpec`, a per-point
run function, and a renderer printing the paper-table text of its records.
Consumers select experiments by name:

    from repro.experiments import run_experiment
    result = run_experiment("fig8_fifo_depth", workloads=("Alex-7",))
    print(result.to_table())
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, Callable

from repro.errors import ConfigurationError
from repro.experiments.spec import ExperimentSpec

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.experiments.result import ExperimentResult
    from repro.experiments.runner import ExperimentContext

__all__ = ["Experiment", "ExperimentRegistry", "register_experiment"]


@dataclass(frozen=True)
class Experiment:
    """One registered experiment.

    Attributes:
        name: registry key (also the default ``results/<name>.*`` stem).
        description: one-line summary shown by ``repro experiment list``.
        spec: the default spec (grid axes, params, workload selection).
        run_point: ``(context, point) -> record(s)`` — executes one grid
            point and returns one record dictionary or a list of them.
        render: ``result -> str`` — the paper-table text of a result's
            records (what the CLI's ``table`` / ``figure`` commands print).
        finalize: optional ``(context, records) -> records`` post-processing
            over the assembled records (cross-point derivations such as
            speedup-versus-baseline or geometric means).
        uses_workloads: whether the grid gains an implicit leading
            ``benchmark`` axis from the spec's workload selection.
    """

    name: str
    description: str
    spec: ExperimentSpec
    run_point: "Callable[[ExperimentContext, dict], Any]"
    render: "Callable[[ExperimentResult], str] | None" = None
    finalize: "Callable[[ExperimentContext, list[dict]], list[dict]] | None" = None
    uses_workloads: bool = True

    def __post_init__(self) -> None:
        if not self.name:
            raise ConfigurationError("experiment name must be non-empty")
        if self.spec.experiment != self.name:
            raise ConfigurationError(
                f"experiment {self.name!r} has a default spec for {self.spec.experiment!r}"
            )


class ExperimentRegistry:
    """Maps experiment names to :class:`Experiment` definitions.

    The class itself is the default global registry (same pattern as
    :class:`~repro.engine.registry.EngineRegistry`); importing
    :mod:`repro.experiments` pre-populates it with every figure, table and
    ablation of the paper's evaluation.
    """

    _experiments: dict[str, Experiment] = {}

    @classmethod
    def register(cls, experiment: Experiment) -> Experiment:
        """Register ``experiment`` under its name."""
        existing = cls._experiments.get(experiment.name)
        if existing is not None and existing is not experiment:
            raise ConfigurationError(
                f"experiment name {experiment.name!r} is already registered"
            )
        cls._experiments[experiment.name] = experiment
        return experiment

    @classmethod
    def unregister(cls, name: str) -> None:
        """Remove an experiment (mainly for tests of custom experiments)."""
        cls._experiments.pop(name, None)

    @classmethod
    def get(cls, name: str) -> Experiment:
        """The experiment registered under ``name``."""
        try:
            return cls._experiments[name]
        except KeyError:
            known = ", ".join(sorted(cls._experiments)) or "<none>"
            raise ConfigurationError(
                f"unknown experiment {name!r}; registered experiments: {known}"
            ) from None

    @classmethod
    def get_optional(cls, name: str) -> Experiment | None:
        """Like :meth:`get` but ``None`` for unknown names (ad-hoc results)."""
        return cls._experiments.get(name)

    @classmethod
    def names(cls) -> tuple[str, ...]:
        """All registered experiment names, sorted."""
        return tuple(sorted(cls._experiments))

    @classmethod
    def describe(cls, name: str) -> dict[str, Any]:
        """A JSON-friendly description of one experiment (CLI ``describe``)."""
        experiment = cls.get(name)
        return {
            "name": experiment.name,
            "description": experiment.description,
            "uses_workloads": experiment.uses_workloads,
            "axes": list(experiment.spec.grid),
            "default_spec": experiment.spec.to_dict(),
        }


def register_experiment(experiment: Experiment) -> Experiment:
    """Register ``experiment`` with the global :class:`ExperimentRegistry`."""
    return ExperimentRegistry.register(experiment)
