"""Tests for the design-choice ablations (index width, codebook size, partitioning)."""

from __future__ import annotations

import pytest

from repro.experiments import run_experiment
from repro.workloads.benchmarks import get_benchmark
from repro.workloads.generator import WorkloadBuilder


@pytest.fixture(scope="module")
def builder():
    return WorkloadBuilder()


@pytest.fixture(scope="module")
def spec():
    # Keep the paper densities but shrink the layer so the ablations are fast.
    return get_benchmark("Alex-7").scaled(16)


class TestIndexWidthAblation:
    @pytest.fixture(scope="class")
    def points(self, builder, spec):
        return run_experiment(
            "ablation_index_width", builder=builder, workloads=[spec],
            grid={"index_bits": (2, 3, 4, 6, 8)}, config={"num_pes": 8},
        ).records

    def test_padding_decreases_with_wider_indices(self, points):
        paddings = [point["padding_zeros"] for point in points]
        assert all(b <= a for a, b in zip(paddings, paddings[1:]))

    def test_true_nonzeros_independent_of_index_width(self, points):
        assert len({point["true_nonzeros"] for point in points}) == 1

    def test_four_bits_is_a_good_storage_point(self, points):
        by_bits = {point["index_bits"]: point for point in points}
        # 4 bits stores the layer no worse than 2 bits (padding explosion) and
        # no worse than 8 bits (index overhead) for this density/PE count.
        assert by_bits[4]["storage_bits"] <= by_bits[2]["storage_bits"]
        assert by_bits[4]["storage_bits"] <= by_bits[8]["storage_bits"]

    def test_padding_fraction_and_bits_per_nonzero(self, points):
        for point in points:
            assert 0.0 <= point["padding_fraction"] < 1.0
            assert point["bits_per_nonzero"] > point["index_bits"]


class TestCodebookBitsAblation:
    @pytest.fixture(scope="class")
    def points(self):
        return run_experiment(
            "ablation_codebook_bits", grid={"weight_bits": (2, 3, 4, 6)},
            params={"num_weights": 5000},
        ).records

    def test_error_decreases_with_more_bits(self, points):
        errors = [point["rms_error"] for point in points]
        assert all(b <= a + 1e-12 for a, b in zip(errors, errors[1:]))

    def test_four_bit_error_is_small(self, points):
        by_bits = {point["weight_bits"]: point for point in points}
        # The paper's 4-bit codebook loses no accuracy; the relative RMS error
        # on a Gaussian weight population is already ~10% of one standard
        # deviation and keeps halving with every extra bit.
        assert by_bits[4]["relative_rms_error"] < 0.15
        assert by_bits[2]["relative_rms_error"] > by_bits[4]["relative_rms_error"]

    def test_entries_match_bits(self, points):
        for point in points:
            assert point["codebook_entries"] == 2**point["weight_bits"]


class TestPartitioningAblation:
    def test_row_interleaving_is_preferred(self, builder, spec):
        records = run_experiment(
            "ablation_partitioning", builder=builder, workloads=[spec], config={"num_pes": 8}
        ).records
        results = {record["strategy"]: record for record in records}
        assert set(results) == {"column", "row-interleaved", "block-2d"}
        row = results["row-interleaved"]
        assert row["total_cycles"] <= results["column"]["total_cycles"]
        assert row["load_balance_efficiency"] >= results["column"]["load_balance_efficiency"]
