import numpy as np
import pytest

from enaqt import linalg
from enaqt.errors import DimensionMismatchError, NotHermitianError


def random_hermitian(d, rng):
    m = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    return 0.5 * (m + m.conj().T)


class TestEigh:
    def test_identity(self):
        w, v = linalg.eigh(np.eye(3))
        assert np.allclose(w, 1.0)
        assert np.allclose(v.conj().T @ v, np.eye(3), atol=1e-12)

    def test_diagonal_sorted(self):
        w, v = linalg.eigh(np.diag([1.0, 5.0, 2.0]))
        assert np.allclose(w, [1.0, 2.0, 5.0])
        # permuted standard basis: one unit entry per column
        assert np.allclose(np.abs(v).max(axis=0), 1.0)
        assert np.allclose(np.abs(v).sum(axis=0), 1.0)

    def test_reconstruction_7x7(self, rng):
        m = random_hermitian(7, rng)
        w, v = linalg.eigh(m)
        assert np.max(np.abs((v * w) @ v.conj().T - m)) <= 1e-10 * np.linalg.norm(m)

    def test_eigenpairs(self, rng):
        m = random_hermitian(5, rng)
        w, v = linalg.eigh(m)
        for k in range(5):
            assert np.max(np.abs(m @ v[:, k] - w[k] * v[:, k])) <= 1e-10 * np.linalg.norm(m)

    def test_orthonormal_columns(self, rng):
        m = random_hermitian(9, rng)
        _, v = linalg.eigh(m)
        assert np.max(np.abs(v.conj().T @ v - np.eye(9))) <= 1e-12

    @pytest.mark.parametrize("d", [2, 4, 8, 16, 32])
    def test_reconstruction_scaling(self, rng, d):
        m = random_hermitian(d, rng)
        w, v = linalg.eigh(m)
        err = np.linalg.norm((v * w) @ v.conj().T - m)
        assert err <= 1e-9 * (1.0 + np.linalg.norm(m))

    def test_rejects_non_hermitian(self):
        m = np.array([[0.0, 1.0], [0.0, 0.0]])
        with pytest.raises(NotHermitianError):
            linalg.eigh(m)

    def test_rejects_non_square(self):
        with pytest.raises(DimensionMismatchError):
            linalg.eigh(np.zeros((2, 3)))


class TestEvolutionUnitary:
    def test_zero_hamiltonian(self):
        u = linalg.evolution_unitary(np.zeros((3, 3)), 7.0)
        assert np.allclose(u, np.eye(3), atol=1e-15)

    def test_diagonal_phases(self):
        w1, w2 = 120.0, -40.0
        dt = 3.0
        u = linalg.evolution_unitary(np.diag([w1, w2]), dt)
        expected = np.diag(
            np.exp(-1j * np.array([w1, w2]) * dt / linalg.HBAR_CM1_FS)
        )
        assert np.allclose(u, expected, atol=1e-14)

    def test_matches_taylor_series(self):
        # independent oracle: 20-term Taylor expansion of exp(-i h dt / hbar)
        h = np.array([[50.0, 30.0], [30.0, -10.0]], dtype=complex)
        dt = 8.0
        x = -1j * h * dt / linalg.HBAR_CM1_FS
        series = np.eye(2, dtype=complex)
        term = np.eye(2, dtype=complex)
        for k in range(1, 21):
            term = term @ x / k
            series = series + term
        u = linalg.evolution_unitary(h, dt)
        assert np.max(np.abs(u - series)) <= 1e-10

    def test_unitarity(self, rng):
        h = random_hermitian(6, rng) * 200.0
        u = linalg.evolution_unitary(h, 10.0)
        assert np.max(np.abs(u @ u.conj().T - np.eye(6))) <= 1e-10

    def test_group_property(self, rng):
        h = random_hermitian(4, rng) * 150.0
        u1 = linalg.evolution_unitary(h, 3.0)
        u2 = linalg.evolution_unitary(h, 5.0)
        u12 = linalg.evolution_unitary(h, 8.0)
        assert np.max(np.abs(u1 @ u2 - u12)) <= 1e-9


class TestFrobDist:
    def test_self_distance_zero(self, rng):
        m = random_hermitian(4, rng)
        assert linalg.frob_dist(m, m) == 0.0

    def test_zero_vs_identity(self):
        assert linalg.frob_dist(np.zeros((2, 2)), np.eye(2)) == pytest.approx(np.sqrt(2.0))

    def test_against_elementwise_sum(self, rng):
        a = rng.normal(size=(5, 5)) + 1j * rng.normal(size=(5, 5))
        b = rng.normal(size=(5, 5)) + 1j * rng.normal(size=(5, 5))
        expected = np.sqrt(sum(abs(a[i, j] - b[i, j]) ** 2 for i in range(5) for j in range(5)))
        assert linalg.frob_dist(a, b) == pytest.approx(expected, rel=1e-12)

    def test_shape_mismatch(self):
        with pytest.raises(DimensionMismatchError):
            linalg.frob_dist(np.eye(2), np.eye(3))


class TestSuperoperator:
    @pytest.mark.parametrize("d", [2, 3, 7])
    def test_two_sided_product_is_the_kron(self, rng, d):
        # row-major vec: vec(a rho b) = (a (x) b^T) vec(rho). Each entry is one product
        # a[i, k] b[l, j], which a matmul may round differently from kron (BLAS FMA)
        a, b = (rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d)) for _ in range(2))
        kron = np.kron(a, b.T)
        error = np.abs(linalg.superoperator(lambda s: a @ s @ b, d) - kron)
        assert np.all(error <= 2.0 * np.finfo(float).eps * np.abs(kron))


class TestChoiFromTransfer:
    def test_entries_are_the_map_on_the_basis(self, rng):
        # choi[a*d + i, b*d + j] = E(|a><b|)[i, j], for the map rho -> A rho B
        d = 3
        a, b = rng.normal(size=(2, d, d)) + 1j * rng.normal(size=(2, d, d))
        choi = linalg.choi_from_transfer(linalg.superoperator(lambda s: a @ s @ b, d))
        for p, q in np.ndindex(d, d):
            e = np.zeros((d, d))
            e[p, q] = 1.0
            np.testing.assert_allclose(choi[p * d:(p + 1) * d, q * d:(q + 1) * d], a @ e @ b, rtol=1e-14)
