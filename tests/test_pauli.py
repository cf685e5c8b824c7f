"""Tensor-core tests: Pauli decomposition and reconstruction."""

import itertools

import numpy as np
import pytest

from bell3q import (CorrelationDecomposition, PhysicalityError, ThreeQubitState,
                    decompose, decomposition_from_t, reconstruct)
from bell3q.smallmat import singular_values_3x9

SX = np.array([[0, 1], [1, 0]], dtype=complex)
SY = np.array([[0, -1j], [1j, 0]], dtype=complex)
SZ = np.array([[1, 0], [0, -1]], dtype=complex)
SI = np.eye(2, dtype=complex)
SIGMA = [SI, SX, SY, SZ]


def kron3(a, b, c):
    return np.kron(np.kron(a, b), c)


def trace_oracle(rho):
    """Independent 64-trace evaluation by direct matrix multiplication."""
    lam = np.zeros((4, 4, 4))
    for mu, nu, ga in itertools.product(range(4), repeat=3):
        lam[mu, nu, ga] = np.real(np.trace(kron3(SIGMA[mu], SIGMA[nu], SIGMA[ga]) @ rho))
    return lam


def ghz_matrix():
    v = np.zeros(8, dtype=complex)
    v[0] = v[7] = 1 / np.sqrt(2)
    return np.outer(v, v.conj())


def random_density(rng):
    g = rng.normal(size=(8, 8)) + 1j * rng.normal(size=(8, 8))
    rho = g @ g.conj().T
    return rho / rho.trace().real


class TestDecompose:
    def test_maximally_mixed(self):
        d = decompose(ThreeQubitState(np.eye(8) / 8))
        expected = np.zeros((4, 4, 4))
        expected[0, 0, 0] = 1.0
        np.testing.assert_allclose(d.lam, expected, atol=1e-12)

    def test_ghz_against_trace_oracle(self):
        rho = ghz_matrix()
        d = decompose(ThreeQubitState(rho))
        np.testing.assert_allclose(d.lam, trace_oracle(rho), atol=1e-12)

        t = d.t_tensor
        expected_t = np.zeros((3, 3, 3))
        expected_t[0, 0, 0] = 1.0
        expected_t[0, 1, 1] = expected_t[1, 0, 1] = expected_t[1, 1, 0] = -1.0
        np.testing.assert_allclose(t, expected_t, atol=1e-12)
        for block in (d.theta_mat, d.phi_mat, d.omega_mat):
            expected = np.zeros((3, 3))
            expected[2, 2] = 1.0
            np.testing.assert_allclose(block, expected, atol=1e-12)
        for bloch in (d.bloch_a, d.bloch_b, d.bloch_c):
            np.testing.assert_allclose(bloch, 0.0, atol=1e-12)

    def test_product_state(self):
        v = np.zeros(8, dtype=complex)
        v[0] = 1.0
        d = decompose(ThreeQubitState(np.outer(v, v.conj())))
        np.testing.assert_allclose(d.lam, trace_oracle(np.outer(v, v.conj())), atol=1e-12)
        for bloch in (d.bloch_a, d.bloch_b, d.bloch_c):
            np.testing.assert_allclose(bloch, [0, 0, 1], atol=1e-12)
        expected_t = np.zeros((3, 3, 3))
        expected_t[2, 2, 2] = 1.0
        np.testing.assert_allclose(d.t_tensor, expected_t, atol=1e-12)

    def test_rejects_non_hermitian(self):
        bad = np.eye(8, dtype=complex) / 8
        bad[0, 1] = 0.1
        with pytest.raises(PhysicalityError, match="Hermitian"):
            decompose(bad)

    def test_rejects_wrong_trace(self):
        with pytest.raises(PhysicalityError, match="trace"):
            decompose(np.eye(8, dtype=complex))

    def test_rejects_negative_operator(self):
        bad = np.eye(8, dtype=complex) / 8
        bad[0, 0], bad[1, 1] = -0.125, 0.375
        with pytest.raises(PhysicalityError, match="positive"):
            decompose(bad)

    def test_coefficients_bounded(self):
        rng = np.random.default_rng(11)
        for _ in range(20):
            d = decompose(ThreeQubitState(random_density(rng)))
            assert np.max(np.abs(d.lam)) <= 1.0 + 1e-12


class TestCoefficientChecks:
    """``CorrelationDecomposition`` checks every coefficient set it is built from."""

    def test_t_entry_above_one_is_rejected(self):
        t = np.zeros((3, 3, 3))
        t[1, 2, 0] = 1.5
        with pytest.raises(PhysicalityError, match="exceeds 1"):
            decomposition_from_t(t)

    def test_normalization_other_than_one_is_rejected(self):
        lam = np.zeros((4, 4, 4))
        lam[0, 0, 0] = 0.9
        with pytest.raises(PhysicalityError, match="normalization"):
            CorrelationDecomposition(lam)


class TestReconstruct:
    def test_identity_coefficients(self):
        lam = np.zeros((4, 4, 4))
        lam[0, 0, 0] = 1.0
        state = reconstruct(CorrelationDecomposition(lam))
        np.testing.assert_allclose(state.matrix, np.eye(8) / 8, atol=1e-12)

    def test_ghz_round_trip(self):
        rho = ghz_matrix()
        rebuilt = reconstruct(decompose(ThreeQubitState(rho)))
        np.testing.assert_allclose(rebuilt.matrix, rho, atol=1e-12)
        assert rebuilt.is_physical

    def test_unphysical_tensor_is_flagged_not_rejected(self):
        t = np.zeros((3, 3, 3))
        t[0, 0, 0] = t[1, 1, 1] = t[2, 2, 2] = 1.0
        state = reconstruct(decomposition_from_t(t))
        assert abs(state.matrix.trace() - 1.0) < 1e-12
        np.testing.assert_allclose(state.matrix, state.matrix.conj().T, atol=1e-12)
        assert not state.is_physical
        # eigen-solver oracle on the 8x8 matrix
        oracle_min = np.linalg.eigvalsh(state.matrix)[0]
        assert abs(state.min_eigenvalue - oracle_min) < 1e-12
        assert state.min_eigenvalue < -1e-10

    def test_round_trip_100_random_states(self):
        rng = np.random.default_rng(7)
        for _ in range(100):
            rho = random_density(rng)
            rebuilt = reconstruct(decompose(ThreeQubitState(rho)))
            np.testing.assert_allclose(rebuilt.matrix, rho, atol=1e-12)


def random_su2(rng):
    g = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
    q, r = np.linalg.qr(g)
    return q * (np.diag(r) / np.abs(np.diag(r)))


class TestLocalUnitaryInvariance:
    def test_t_singular_values_invariant(self):
        rng = np.random.default_rng(23)
        for _ in range(20):
            rho = random_density(rng)
            u = kron3(random_su2(rng), random_su2(rng), random_su2(rng))
            rotated = u @ rho @ u.conj().T
            sv_a = singular_values_3x9(decompose(ThreeQubitState(rho)).t_matrix)
            sv_b = singular_values_3x9(decompose(ThreeQubitState(rotated)).t_matrix)
            np.testing.assert_allclose(sv_a, sv_b, atol=1e-9)
