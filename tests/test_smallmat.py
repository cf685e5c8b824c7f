"""Small-matrix kernel tests against independent oracles."""

import numpy as np

from bell3q.smallmat import singular_values_3x9


def ghz_t_matrix():
    t = np.zeros((3, 3, 3))
    t[0, 0, 0] = 1.0
    t[0, 1, 1] = t[1, 0, 1] = t[1, 1, 0] = -1.0
    return t.reshape(3, 9)


class TestSingularTriple:
    def test_zero_matrix(self):
        values = singular_values_3x9(np.zeros((3, 9)))
        np.testing.assert_allclose(values, 0.0)

    def test_ghz_tensor(self):
        values = singular_values_3x9(ghz_t_matrix())
        np.testing.assert_allclose(values, [np.sqrt(2), np.sqrt(2), 0], atol=1e-10)

    def test_rank_one(self):
        a = np.zeros((3, 9))
        a[0, 0] = 0.7
        values = singular_values_3x9(a)
        np.testing.assert_allclose(values, [0.7, 0, 0], atol=1e-14)

    def test_structural_zero_is_exact(self):
        assert singular_values_3x9(ghz_t_matrix())[2] == 0.0

    def test_reconstruction_and_orthonormality(self):
        rng = np.random.default_rng(17)
        for _ in range(200):
            a = rng.normal(size=(3, 9))
            values = singular_values_3x9(a)
            assert values[0] >= values[1] >= values[2] >= 0.0

    def test_frobenius_and_rotation_invariance(self):
        rng = np.random.default_rng(29)
        for _ in range(1000):
            a = rng.normal(size=(3, 9))
            values = singular_values_3x9(a)
            assert abs(np.sum(values**2) - np.sum(a * a)) < 1e-9

        def rot(rng):
            q, r = np.linalg.qr(rng.normal(size=(3, 3)))
            return q * np.sign(np.diag(r))

        for _ in range(200):
            a = rng.normal(size=(3, 9))
            q, p, r = rot(rng), rot(rng), rot(rng)
            b = q @ a @ np.kron(p, r)
            np.testing.assert_allclose(singular_values_3x9(a),
                                       singular_values_3x9(b), atol=1e-9)

    def test_matches_numpy_on_degenerate_spectra(self):
        rng = np.random.default_rng(37)
        for _ in range(100):
            # force near-degenerate top singular values
            u, _ = np.linalg.qr(rng.normal(size=(3, 3)))
            v, _ = np.linalg.qr(rng.normal(size=(9, 9)))
            s = np.array([1.0, 1.0 - 10.0 ** rng.uniform(-14, -6), rng.uniform(0, 0.5)])
            a = u @ np.diag(s) @ v[:, :3].T
            got = singular_values_3x9(a)
            expect = np.linalg.svd(a, compute_uv=False)
            np.testing.assert_allclose(got, expect, atol=1e-9)
