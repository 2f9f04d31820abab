"""Unit tests for orthogonal initialization."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.initializers import Orthogonal, ParameterShape
from repro.initializers.orthogonal import haar_orthogonal_matrix


class TestHaarMatrix:
    def test_square_is_orthogonal(self):
        rng = np.random.default_rng(0)
        q = haar_orthogonal_matrix(6, 6, rng)
        assert np.allclose(q @ q.T, np.eye(6), atol=1e-10)

    def test_tall_has_orthonormal_columns(self):
        rng = np.random.default_rng(1)
        q = haar_orthogonal_matrix(8, 3, rng)
        assert q.shape == (8, 3)
        assert np.allclose(q.T @ q, np.eye(3), atol=1e-10)

    def test_wide_has_orthonormal_rows(self):
        rng = np.random.default_rng(2)
        q = haar_orthogonal_matrix(2, 7, rng)
        assert q.shape == (2, 7)
        assert np.allclose(q @ q.T, np.eye(2), atol=1e-10)

    def test_sign_correction_gives_zero_mean(self):
        """Without the sign fix the QR convention biases entries positive."""
        rng = np.random.default_rng(3)
        entries = np.concatenate(
            [haar_orthogonal_matrix(8, 8, rng).reshape(-1) for _ in range(200)]
        )
        # Mean should be statistically indistinguishable from zero.
        assert abs(entries.mean()) < 4 * entries.std() / np.sqrt(entries.size)


    @pytest.mark.parametrize("rows, cols", [(6, 2), (2, 5), (7, 1)])
    def test_stacked_draw_equals_per_layer_loop(self, rows, cols):
        looped_rng = np.random.default_rng(11)
        looped = np.stack(
            [haar_orthogonal_matrix(rows, cols, looped_rng) for _ in range(9)]
        )
        stacked_rng = np.random.default_rng(11)
        stacked = haar_orthogonal_matrix(rows, cols, stacked_rng, layers=9)
        assert stacked.shape == (9, rows, cols)
        assert np.array_equal(stacked, looped)
        assert (
            stacked_rng.bit_generator.state == looped_rng.bit_generator.state
        )

    @pytest.mark.parametrize("qubits, ppq", [(6, 2), (2, 5), (7, 1)])
    def test_sample_equals_sample_layer_loop(self, qubits, ppq):
        shape = ParameterShape(num_layers=5, num_qubits=qubits, params_per_qubit=ppq)
        init = Orthogonal(gain=1.7)
        looped_rng = np.random.default_rng(12)
        looped = np.concatenate(
            [init.sample_layer(shape, looped_rng) for _ in range(5)]
        )
        stacked_rng = np.random.default_rng(12)
        assert np.array_equal(init.sample_layers(shape, stacked_rng), looped)
        assert np.array_equal(init.sample(shape, seed=12), looped)
        assert (
            stacked_rng.bit_generator.state == looped_rng.bit_generator.state
        )


class TestOrthogonalInitializer:
    def test_sample_size(self):
        shape = ParameterShape(num_layers=3, num_qubits=5, params_per_qubit=2)
        params = Orthogonal().sample(shape, seed=0)
        assert params.shape == (30,)

    def test_per_layer_semi_orthogonality(self):
        """Each layer reshaped to (qubits, ppq) must have orthonormal columns."""
        shape = ParameterShape(num_layers=4, num_qubits=6, params_per_qubit=2)
        params = Orthogonal().sample(shape, seed=1)
        for layer in params.reshape(4, 6, 2):
            assert np.allclose(layer.T @ layer, np.eye(2), atol=1e-10)

    def test_single_param_per_qubit_gives_unit_columns(self):
        shape = ParameterShape(num_layers=2, num_qubits=8, params_per_qubit=1)
        params = Orthogonal().sample(shape, seed=2)
        for layer in params.reshape(2, 8):
            assert np.linalg.norm(layer) == pytest.approx(1.0)

    def test_gain_scales_entries(self):
        shape = ParameterShape(num_layers=1, num_qubits=4, params_per_qubit=1)
        base = Orthogonal(gain=1.0).sample(shape, seed=3)
        scaled = Orthogonal(gain=2.5).sample(shape, seed=3)
        assert np.allclose(scaled, 2.5 * base)

    def test_entry_scale_shrinks_with_width(self):
        """Entries of a Haar column scale like 1/sqrt(qubits)."""
        wide = ParameterShape(num_layers=200, num_qubits=25, params_per_qubit=1)
        params = Orthogonal().sample(wide, seed=4)
        assert params.var() == pytest.approx(1.0 / 25.0, rel=0.1)

    def test_reproducible(self):
        shape = ParameterShape(num_layers=2, num_qubits=3, params_per_qubit=2)
        a = Orthogonal().sample(shape, seed=5)
        b = Orthogonal().sample(shape, seed=5)
        assert np.array_equal(a, b)


@settings(max_examples=25, deadline=None)
@given(
    rows=st.integers(1, 10),
    cols=st.integers(1, 10),
    seed=st.integers(0, 1000),
)
def test_haar_matrix_is_semi_orthogonal_property(rows, cols, seed):
    rng = np.random.default_rng(seed)
    q = haar_orthogonal_matrix(rows, cols, rng)
    if rows >= cols:
        assert np.allclose(q.T @ q, np.eye(cols), atol=1e-9)
    else:
        assert np.allclose(q @ q.T, np.eye(rows), atol=1e-9)
