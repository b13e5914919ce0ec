"""Tests for the density helper."""

from __future__ import annotations

import numpy as np
import pytest

from repro.nn.reference import sparse_density


class TestSparseDensity:
    def test_density_values(self):
        assert sparse_density(np.array([0.0, 1.0, 0.0, 2.0])) == pytest.approx(0.5)
        assert sparse_density(np.zeros(4)) == 0.0
        assert sparse_density(np.array([])) == 0.0

