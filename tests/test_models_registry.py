"""Tests for the model registry and the built-in paper models."""

from __future__ import annotations

import numpy as np
import pytest

from repro.errors import ConfigurationError
from repro.models import (
    BUILTIN_MODELS,
    MatVecNode,
    ModelIR,
    ModelRegistry,
    ModelSpec,
    RegisteredModel,
    build_model,
    register_model,
)
from repro.workloads.benchmarks import ALL_BENCHMARKS


class TestRegistry:
    def test_paper_models_are_registered(self):
        names = ModelRegistry.names()
        for expected in ("alexnet_fc", "vgg_fc", "neuraltalk_lstm"):
            assert expected in names

    def test_unknown_model_lists_known_names(self):
        with pytest.raises(ConfigurationError, match="alexnet_fc"):
            ModelRegistry.get("resnet")

    def test_register_and_unregister_custom_model(self, rng):
        def build(spec: ModelSpec) -> ModelIR:
            return ModelIR(
                [MatVecNode(name="fc", weight=rng.normal(size=(4, 4)))], name="custom"
            )

        registered = RegisteredModel(
            name="custom-test",
            description="unit test model",
            spec=ModelSpec(model="custom-test"),
            build=build,
        )
        register_model(registered)
        try:
            assert build_model("custom-test").num_nodes == 1
            with pytest.raises(ConfigurationError, match="already registered"):
                register_model(
                    RegisteredModel(
                        name="custom-test", description="", spec=ModelSpec(model="custom-test"),
                        build=build,
                    )
                )
        finally:
            ModelRegistry.unregister("custom-test")
        with pytest.raises(ConfigurationError):
            ModelRegistry.get("custom-test")

    def test_spec_name_must_match_registration_name(self):
        with pytest.raises(ConfigurationError, match="default spec"):
            RegisteredModel(
                name="a", description="", spec=ModelSpec(model="b"), build=lambda s: None
            )

    def test_describe_includes_default_spec_and_nodes(self):
        info = ModelRegistry.describe("neuraltalk_lstm")
        assert info["default_spec"]["params"]["mode"] == "per_gate"
        assert info["default_build"]["num_nodes"] == 4

    def test_unknown_params_rejected_by_name(self):
        with pytest.raises(ConfigurationError, match="'Mode'"):
            build_model("neuraltalk_lstm", params={"Mode": "stacked"})
        with pytest.raises(ConfigurationError, match="no parameter"):
            build_model("alexnet_fc", params={"mode": "stacked"})

    def test_build_merges_partial_spec_over_defaults(self):
        default = build_model("neuraltalk_lstm")
        scaled = ModelRegistry.build(ModelSpec(model="neuraltalk_lstm", scale=16))
        assert scaled.input_size < default.input_size
        stacked = build_model("neuraltalk_lstm", params={"mode": "stacked"})
        assert stacked.num_nodes == 1


class TestBuiltinModels:
    def test_catalog_tuple_matches_registry(self):
        for registered in BUILTIN_MODELS:
            assert ModelRegistry.get(registered.name) is registered

    @pytest.mark.parametrize(
        "name, bench_name", [("alexnet_fc", "Alex-6"), ("vgg_fc", "VGG-6"),
                             ("neuraltalk_lstm", "NT-LSTM")]
    )
    def test_input_density_matches_table3(self, name, bench_name):
        model = build_model(name)
        assert model.input_density == ALL_BENCHMARKS[bench_name].activation_density

    def test_fc_models_have_table3_densities(self):
        model = build_model("alexnet_fc", scale=16)
        densities = [node.weight_density for node in model]
        # Alex-6/7 prune to 9%, Alex-8 to 25% (up to sampling noise).
        assert densities[0] == pytest.approx(0.09, abs=0.02)
        assert densities[1] == pytest.approx(0.09, abs=0.02)
        assert densities[2] == pytest.approx(0.25, abs=0.04)

    def test_builds_are_deterministic(self):
        first = build_model("vgg_fc", scale=64)
        second = build_model("vgg_fc", scale=64)
        assert first.fingerprint() == second.fingerprint()

    def test_lstm_scale_and_seed_change_the_build(self):
        base = build_model("neuraltalk_lstm")
        rescaled = build_model("neuraltalk_lstm", scale=16)
        reseeded = build_model("neuraltalk_lstm", seed=11)
        assert rescaled.input_size != base.input_size
        assert reseeded.fingerprint() != base.fingerprint()

    @pytest.mark.parametrize("name", ["alexnet_fc", "vgg_fc"])
    def test_fc_seed_changes_the_weights(self, name):
        base = build_model(name, scale=64)
        reseeded = build_model(name, seed=11, scale=64)
        again = build_model(name, seed=11, scale=64)
        assert reseeded.fingerprint() != base.fingerprint()
        assert reseeded.fingerprint() == again.fingerprint()
        # The default (no seed) keeps the benchmarks' canonical patterns.
        assert base.fingerprint() == build_model(name, scale=64).fingerprint()


class TestGoldenFingerprints:
    """Every built-in model's full content hash, pinned.

    Weights, biases, node names, wiring and activations all feed
    ``fingerprint()``, so these strings pin the catalog builds bit for bit.
    """

    @pytest.mark.parametrize(
        "name, overrides, expected",
        [
            ("alexnet_fc", {},
             "20a951c6d4ae4326570f2724869cf32f0529249141616e131a1a36420456d95a"),
            ("alexnet_fc", {"scale": 1},
             "144deaea7f722e78a25516a4101de9735241bf827f816a1ecc9a9403909a75bc"),
            ("alexnet_fc", {"scale": 16, "seed": 3},
             "41c13750c9069639e96102c1b2e810d84eff5dd44458c4808efea7fa43b67f90"),
            ("vgg_fc", {},
             "869163fdea7b152388ca6b9270b3305845070f4901570dc83a942d19f11826ec"),
            ("vgg_fc", {"scale": 64, "seed": 5},
             "62e675fa330f067061004b9de1096ac4cc7f3e492995192d334fadb8ead254e0"),
            ("neuraltalk_lstm", {},
             "efc0b9cb4b8258aa3d8c33344f8f3fdf2b0bc5e69a2b478f9c203a3df37f26cd"),
            ("neuraltalk_lstm", {"params": {"mode": "stacked"}},
             "b98091fcfddc04b85333c843bc3dd05324518e40d34e1849251d667d71b41363"),
            ("neuraltalk_lstm", {"scale": 1, "seed": 2},
             "0ef10f3bc24500bb8436bd0bbe0cfd8f04bed8fdc4986fe2abc0645be1736203"),
        ],
    )
    def test_fingerprint_is_pinned(self, name, overrides, expected):
        assert build_model(name, **overrides).fingerprint() == expected

    def test_stacked_lstm_is_the_per_gate_weights_in_gate_order(self):
        per_gate = build_model("neuraltalk_lstm")
        stacked = build_model("neuraltalk_lstm", params={"mode": "stacked"})
        assert [node.name for node in per_gate] == [
            "gate_input", "gate_forget", "gate_output", "gate_cell"
        ]
        assert np.array_equal(
            stacked.node("gates_stacked").weight,
            np.vstack([node.weight for node in per_gate]),
        )
