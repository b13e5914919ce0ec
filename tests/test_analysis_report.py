"""Tests for the report rendering helpers."""

from __future__ import annotations

import pytest

from repro.analysis.report import (
    format_number,
    format_table,
    geometric_mean,
    record_series,
    render_series,
)


class TestGeometricMean:
    def test_known_value(self):
        assert geometric_mean([1.0, 4.0, 16.0]) == pytest.approx(4.0)

    def test_single_value(self):
        assert geometric_mean([7.5]) == pytest.approx(7.5)

    def test_empty(self):
        assert geometric_mean([]) == 0.0

    def test_non_positive_rejected(self):
        with pytest.raises(ValueError):
            geometric_mean([1.0, 0.0])

    def test_below_arithmetic_mean(self):
        values = [1.0, 2.0, 30.0]
        assert geometric_mean(values) < sum(values) / len(values)


class TestFormatNumber:
    def test_integers_grouped(self):
        assert format_number(1234567) == "1,234,567"

    def test_small_floats(self):
        assert format_number(0.5) == "0.5"

    def test_scientific_for_extremes(self):
        assert "e" in format_number(1.5e9)
        assert "e" in format_number(1.5e-6)

    def test_none_is_dash(self):
        assert format_number(None) == "-"

    def test_zero(self):
        assert format_number(0.0) == "0"


class TestFormatTable:
    def test_contains_headers_and_rows(self):
        text = format_table(["name", "value"], [["a", 1], ["bb", 22]])
        lines = text.splitlines()
        assert "name" in lines[0] and "value" in lines[0]
        assert len(lines) == 4  # header + separator + 2 rows

    def test_alignment_widths(self):
        text = format_table(["x"], [["longer-cell"]])
        header, separator, row = text.splitlines()
        assert len(separator) >= len("longer-cell")


class TestRenderSeries:
    def test_one_row_per_x(self):
        series = {"A": {1: 0.5, 2: 0.75}, "B": {1: 0.25, 2: 0.5}}
        text = render_series(series, x_label="depth")
        lines = text.splitlines()
        assert lines[0].startswith("depth")
        assert len(lines) == 4

    def test_missing_points_rendered_as_dash(self):
        series = {"A": {1: 0.5}, "B": {2: 0.25}}
        text = render_series(series)
        assert "-" in text


class TestRecordSeries:
    def test_groups_records_by_benchmark_in_record_order(self):
        records = [
            {"benchmark": "A", "num_pes": 4, "speedup": 3.5},
            {"benchmark": "A", "num_pes": 1, "speedup": 1.0},
            {"benchmark": "B", "num_pes": 1, "speedup": 1.0},
        ]
        series = record_series(records, "num_pes", "speedup")
        assert series == {"A": {4: 3.5, 1: 1.0}, "B": {1: 1.0}}
        assert list(series["A"]) == [4, 1]
