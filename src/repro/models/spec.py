"""Declarative model specifications.

A :class:`ModelSpec` is the *data* form of one model build: which registered
model to construct, at which scale, with which seed and builder parameters.
It mirrors :class:`~repro.experiments.spec.ExperimentSpec` — frozen,
JSON-(de)serializable, validated eagerly, unknown keys rejected by name —
so the CLI, the experiment catalog and tests all describe models the same
way, and a stored ``model.json`` rebuilds the exact same network.
"""

from __future__ import annotations

import json
import numbers
from dataclasses import dataclass, field, fields, replace
from typing import Any, Mapping

from repro.errors import ConfigurationError
from repro.utils.serialization import jsonable as _jsonable

__all__ = ["ModelSpec"]


@dataclass(frozen=True)
class ModelSpec:
    """One declarative model build.

    Attributes:
        model: registry name of the model (``"alexnet_fc"``,
            ``"neuraltalk_lstm"``, ...).
        scale: down-scaling factor for the network dimensions; ``None`` (the
            default for every scalar field, so partial specs merge cleanly
            over registry defaults) resolves to the registered default.
        seed: RNG seed for synthetic weights; ``None`` = registered default.
        params: builder-specific parameters (e.g. ``{"mode": "stacked"}``
            for the LSTM lowering), overlaid onto the registered defaults.
    """

    model: str
    scale: float | None = None
    seed: int | None = None
    params: Mapping[str, Any] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if not self.model or not isinstance(self.model, str):
            raise ConfigurationError("ModelSpec.model must be a non-empty string")
        if self.seed is not None and (
            isinstance(self.seed, bool) or not isinstance(self.seed, numbers.Integral)
        ):
            raise ConfigurationError(f"seed must be an integer, got {self.seed!r}")
        if self.scale is not None and (
            isinstance(self.scale, bool) or not isinstance(self.scale, numbers.Real)
        ):
            raise ConfigurationError(f"scale must be a number, got {self.scale!r}")
        if self.scale is not None and self.scale <= 0:
            raise ConfigurationError(f"scale must be > 0, got {self.scale}")
        object.__setattr__(self, "params", _jsonable(dict(self.params)))

    def merged(self, override: "ModelSpec | None") -> "ModelSpec":
        """Overlay ``override`` onto this (default) spec.

        ``params`` merges key-wise; scalar fields take the override's value
        whenever it is set (non-``None``).
        """
        if override is None:
            return self
        if override.model != self.model:
            raise ConfigurationError(
                f"cannot merge spec for {override.model!r} into defaults of {self.model!r}"
            )
        changes: dict[str, Any] = {"params": {**self.params, **override.params}}
        for name in ("scale", "seed"):
            if getattr(override, name) is not None:
                changes[name] = getattr(override, name)
        return replace(self, **changes)

    # -- (de)serialization -------------------------------------------------------

    def to_dict(self) -> dict[str, Any]:
        """The spec as a plain JSON-serializable dictionary."""
        return {
            "model": self.model,
            "scale": self.scale,
            "seed": self.seed,
            "params": _jsonable(self.params),
        }

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "ModelSpec":
        """Build a spec from a mapping, rejecting unknown keys by name."""
        known = {spec.name for spec in fields(cls)}
        for key in data:
            if key not in known:
                raise ConfigurationError(
                    f"ModelSpec has no field {key!r}; "
                    f"valid fields: {', '.join(sorted(known))}"
                )
        return cls(**dict(data))

    def to_json(self, indent: int | None = 2) -> str:
        """The spec serialized as JSON text."""
        return json.dumps(self.to_dict(), indent=indent)

    @classmethod
    def from_json(cls, text: str) -> "ModelSpec":
        """Parse a spec from JSON text produced by :meth:`to_json`."""
        try:
            data = json.loads(text)
        except json.JSONDecodeError as error:
            raise ConfigurationError(f"model spec is not valid JSON: {error}") from error
        if not isinstance(data, dict):
            raise ConfigurationError("model spec JSON must be an object")
        return cls.from_dict(data)
