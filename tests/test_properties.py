"""Property-based tests (hypothesis) on the core data structures and invariants.

These cover the invariants the paper's correctness rests on:

* the relative-indexed CSC encoding is lossless for any matrix and any
  PE-interleaving;
* the functional EIE computation equals the dense reference for any sparse
  matrix / sparse activation pair;
* the cycle-level timing model respects its structural bounds (critical-PE
  lower bound, serial upper bound, monotonicity in FIFO depth);
* Huffman codes are prefix-free and lossless;
* fixed-point quantisation error is bounded by half an LSB inside the range.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as npst

from repro.compression.csc import CSCMatrix, InterleavedCSC, decode_column, encode_column
from repro.compression.huffman import HuffmanCode
from repro.compression.pipeline import DeepCompressor
from repro.compression.quantization import WeightCodebook
from repro.core.config import EIEConfig
from repro.core.cycle_model import simulate_layer_cycles
from repro.engine import EngineRegistry
from repro.nn.fixed_point import FixedPointFormat

# Keep hypothesis runs quick but meaningful.
SETTINGS = settings(max_examples=25, deadline=None)


def sparse_matrix_strategy(max_rows: int = 40, max_cols: int = 24):
    """Random small sparse matrices with a guaranteed non-zero."""

    @st.composite
    def build(draw):
        rows = draw(st.integers(2, max_rows))
        cols = draw(st.integers(1, max_cols))
        density = draw(st.floats(0.02, 0.5))
        seed = draw(st.integers(0, 2**31 - 1))
        rng = np.random.default_rng(seed)
        matrix = rng.normal(size=(rows, cols))
        matrix[rng.random((rows, cols)) >= density] = 0.0
        matrix[rng.integers(0, rows), rng.integers(0, cols)] = 1.0
        return matrix

    return build()


class TestCSCProperties:
    @SETTINGS
    @given(
        column=npst.arrays(
            dtype=np.float64,
            shape=st.integers(1, 200),
            elements=st.floats(-10, 10).map(lambda x: 0.0 if abs(x) < 5 else x),
        )
    )
    def test_column_roundtrip(self, column):
        values, runs = encode_column(column)
        assert np.allclose(decode_column(values, runs, column.shape[0]), column)
        assert runs.size == 0 or runs.max() <= 15

    @SETTINGS
    @given(matrix=sparse_matrix_strategy(), num_pes=st.integers(1, 8))
    def test_interleaved_roundtrip_and_conservation(self, matrix, num_pes):
        interleaved = InterleavedCSC.from_dense(matrix, num_pes=num_pes)
        assert np.allclose(interleaved.to_dense(), matrix)
        assert interleaved.num_true_nonzeros == np.count_nonzero(matrix)
        counts = interleaved.entries_per_pe_column()
        assert counts.sum() == interleaved.num_entries

    @SETTINGS
    @given(matrix=sparse_matrix_strategy())
    def test_padding_zeros_decode_to_zero(self, matrix):
        encoded = CSCMatrix.from_dense(matrix)
        decoded = encoded.to_dense()
        # Padding never introduces spurious non-zeros.
        assert np.count_nonzero(decoded) == np.count_nonzero(matrix)


class TestFunctionalEquivalenceProperties:
    @SETTINGS
    @given(
        matrix=sparse_matrix_strategy(max_rows=32, max_cols=20),
        num_pes=st.sampled_from([1, 2, 4]),
        activation_seed=st.integers(0, 2**31 - 1),
        activation_density=st.floats(0.1, 1.0),
    )
    def test_functional_matches_dense_reference(
        self, matrix, num_pes, activation_seed, activation_density
    ):
        layer = DeepCompressor().compress(matrix, num_pes=num_pes, name="prop")
        rng = np.random.default_rng(activation_seed)
        activations = rng.uniform(0.1, 1.0, size=matrix.shape[1])
        activations[rng.random(matrix.shape[1]) >= activation_density] = 0.0
        engine = EngineRegistry.create("functional", EIEConfig(num_pes=num_pes))
        result = engine.run(engine.prepare(layer), activations).functional[0]
        expected = layer.dense_weights() @ activations
        assert np.allclose(result.pre_activation, expected, atol=1e-9)

    @SETTINGS
    @given(
        matrix=sparse_matrix_strategy(max_rows=24, max_cols=16),
        pe_counts=st.lists(st.sampled_from([1, 2, 3, 4, 6]), min_size=2, max_size=3, unique=True),
    )
    def test_output_independent_of_pe_count(self, matrix, pe_counts):
        rng = np.random.default_rng(0)
        activations = rng.uniform(0.1, 1.0, size=matrix.shape[1])
        outputs = []
        for num_pes in pe_counts:
            layer = DeepCompressor().compress(matrix, num_pes=num_pes, name="prop")
            engine = EngineRegistry.create("functional", EIEConfig(num_pes=num_pes))
            outputs.append(engine.run(engine.prepare(layer), activations).output)
        for other in outputs[1:]:
            assert np.allclose(outputs[0], other)


class TestCycleModelProperties:
    @SETTINGS
    @given(
        num_pes=st.integers(1, 16),
        broadcasts=st.integers(1, 60),
        seed=st.integers(0, 2**31 - 1),
        fifo_depth=st.sampled_from([1, 2, 8, 64]),
    )
    def test_structural_bounds(self, num_pes, broadcasts, seed, fifo_depth):
        rng = np.random.default_rng(seed)
        work = rng.integers(0, 8, size=(num_pes, broadcasts))
        stats = simulate_layer_cycles(work, fifo_depth=fifo_depth)
        critical_pe = work.sum(axis=1).max()
        serial_upper_bound = work.sum() + broadcasts
        assert critical_pe <= stats.total_cycles <= serial_upper_bound
        assert 0.0 <= stats.load_balance_efficiency <= 1.0
        assert stats.entries_processed == work.sum()

    @SETTINGS
    @given(
        num_pes=st.integers(2, 12),
        broadcasts=st.integers(2, 50),
        seed=st.integers(0, 2**31 - 1),
    )
    def test_monotone_in_fifo_depth(self, num_pes, broadcasts, seed):
        rng = np.random.default_rng(seed)
        work = rng.integers(0, 6, size=(num_pes, broadcasts))
        cycles = [
            simulate_layer_cycles(work, fifo_depth=depth).total_cycles for depth in (1, 4, 16, 256)
        ]
        assert all(later <= earlier for earlier, later in zip(cycles, cycles[1:]))


class TestHuffmanProperties:
    @SETTINGS
    @given(symbols=st.lists(st.integers(0, 15), min_size=1, max_size=300))
    def test_roundtrip_and_prefix_free(self, symbols):
        code = HuffmanCode.from_symbols(symbols)
        assert code.decode(code.encode(symbols)) == symbols
        codes = list(code.codebook.values())
        for index, first in enumerate(codes):
            for second in codes[index + 1:]:
                assert not first.startswith(second) and not second.startswith(first)

    @SETTINGS
    @given(symbols=st.lists(st.integers(0, 15), min_size=2, max_size=300))
    def test_never_longer_than_fixed_width_plus_one_bit(self, symbols):
        assume(len(set(symbols)) > 1)
        code = HuffmanCode.from_symbols(symbols)
        # For a 16-symbol alphabet no code exceeds 15 bits, and the average
        # cannot exceed the fixed-width 4 bits by more than the worst case.
        assert max(len(bits) for bits in code.codebook.values()) <= 15


class TestQuantizationProperties:
    @SETTINGS
    @given(
        values=npst.arrays(
            dtype=np.float64,
            shape=st.integers(1, 200),
            elements=st.floats(-100.0, 100.0),
        )
    )
    def test_fixed_point_error_bounded_inside_range(self, values):
        fmt = FixedPointFormat(total_bits=16, fraction_bits=8)
        in_range = values[(values <= fmt.max_value) & (values >= fmt.min_value)]
        errors = fmt.quantization_error(in_range)
        assert errors.size == 0 or np.max(np.abs(errors)) <= fmt.scale / 2 + 1e-12

    @SETTINGS
    @given(seed=st.integers(0, 2**31 - 1), count=st.integers(2, 400))
    def test_codebook_reconstruction_never_increases_range(self, seed, count):
        rng = np.random.default_rng(seed)
        values = rng.normal(size=count)
        values[0] = 1.0  # ensure a non-zero
        codebook = WeightCodebook.fit(values, rng=rng)
        reconstructed = codebook.dequantize(codebook.quantize(values))
        assert reconstructed.max() <= values.max() + 1e-9
        assert reconstructed.min() >= values.min() - 1e-9
