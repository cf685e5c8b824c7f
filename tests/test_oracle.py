"""Oracle tests: see-saw, bias optimization, attainability of the pairing bound."""

import numpy as np
import pytest

from bell3q import (SeeSawConfig, Strengths, ThreeQubitState, bias_optimize, decompose,
                    decomposition_from_t, ghz_state, mermin_biased_window,
                    mermin_bound_equal_strengths, mermin_bound_unbiased,
                    mermin_expectation, see_saw_maximize, svetlichny_bound_unbiased,
                    svetlichny_expectation)
from bell3q.mermin import build_v_matrix, equal_strength_angles
from bell3q.oracle import _update_pair
from bell3q.svetlichny import equal_strength_angles_svetlichny
from bell3q.suites import saturable_tensor

from test_observables import dense_triple, random_density

ORTH = (np.pi / 2, np.pi / 2, np.pi / 2)
ROOT2 = np.sqrt(2.0)


def ghz_t3():
    t = np.zeros((3, 3, 3))
    t[0, 0, 0] = 1.0
    t[0, 1, 1] = t[1, 0, 1] = t[1, 1, 0] = -1.0
    return t


def mixed_decomp():
    return decomposition_from_t(np.zeros((3, 3, 3)))


# (X slot, Y slot, Z slot, sign) over (X, X', Y, Y', Z, Z'), written term by term
DENSE_TERMS = {"mermin": [(0, 2, 5, 1), (0, 3, 4, 1), (1, 2, 4, 1), (1, 3, 5, -1)]}
DENSE_TERMS["svetlichny"] = DENSE_TERMS["mermin"] + [
    (1, 3, 4, -1), (1, 2, 5, -1), (0, 3, 5, -1), (0, 2, 4, 1)]


def dense_value(rho, setting, kind):
    """Tr(rho * operator), summed term by term over dense 8x8 triple products."""
    obs = setting.observables
    return sum(sign * dense_triple(rho, obs[a], obs[b], obs[c])
               for a, b, c, sign in DENSE_TERMS[kind])


class TestSeeSaw:
    def test_maximally_mixed_is_zero(self):
        result = see_saw_maximize(mixed_decomp(), Strengths.uniform(0.7), np.zeros(6),
                                  "mermin", SeeSawConfig(restarts=3, seed=0))
        assert abs(result.value) < 1e-12

    def test_ghz_sharp_mermin(self):
        d = decompose(ghz_state())
        result = see_saw_maximize(d, Strengths.uniform(1.0), np.zeros(6), "mermin",
                                  SeeSawConfig(restarts=20, seed=1))
        assert abs(result.value - 4.0) < 1e-6
        assert abs(abs(mermin_expectation(d, result.setting)) - result.value) < 1e-10

    def test_ghz_sharp_svetlichny(self):
        d = decompose(ghz_state())
        result = see_saw_maximize(d, Strengths.uniform(1.0), np.zeros(6), "svetlichny",
                                  SeeSawConfig(restarts=20, seed=2))
        assert abs(result.value - 4.0 * ROOT2) < 1e-6
        assert abs(abs(svetlichny_expectation(d, result.setting)) - result.value) < 1e-10

    def test_deterministic(self):
        d = decompose(ghz_state())
        cfg = SeeSawConfig(restarts=5, seed=77)
        a = see_saw_maximize(d, Strengths.uniform(0.8), np.zeros(6), "mermin", cfg)
        b = see_saw_maximize(d, Strengths.uniform(0.8), np.zeros(6), "mermin", cfg)
        assert a.value == b.value
        for oa, ob in zip(a.setting.observables, b.setting.observables):
            assert np.array_equal(oa.direction, ob.direction)

    def test_monotone_ascent(self):
        d = decompose(ghz_state())
        cfg = SeeSawConfig(restarts=4, seed=5, record_trace=True)
        result = see_saw_maximize(d, Strengths.uniform(0.9), np.zeros(6),
                                  "svetlichny", cfg)
        trace = result.trace
        assert trace is not None and trace.shape[0] >= 2
        assert np.min(np.diff(trace, axis=0)) >= -1e-12

    def test_soundness_against_closed_form(self):
        rng = np.random.default_rng(6)
        for i in range(10):
            t = rng.normal(size=(3, 9))
            t /= np.linalg.svd(t, compute_uv=False)[0]
            d = decomposition_from_t(t.reshape(3, 3, 3))
            st = Strengths.from_iterable(rng.uniform(0, 1, 6))
            result = see_saw_maximize(d, st, np.zeros(6), "mermin",
                                      SeeSawConfig(restarts=6, seed=100 + i))
            tx, ty, tz = result.setting.relative_angles
            bound = mermin_bound_unbiased(t, st, (tx, ty, tz)).bound_value
            assert result.value <= bound + 1e-9

    def test_bias_validation(self):
        with pytest.raises(ValueError, match="bias"):
            see_saw_maximize(mixed_decomp(), Strengths.uniform(0.9),
                             np.full(6, 0.5), "mermin", SeeSawConfig(restarts=1))

    def test_config_validation(self):
        with pytest.raises(ValueError):
            SeeSawConfig(restarts=0)
        with pytest.raises(ValueError):
            SeeSawConfig(convergence_tol=1e-16)

    def test_nan_convergence_tol_is_rejected(self):
        with pytest.raises(ValueError, match="convergence_tol"):
            SeeSawConfig(convergence_tol=float("nan"))

    @pytest.mark.parametrize("angles", [(1.0, 1.0), (1.0, 1.0, 1.0, 1.0), (np.nan, 1.0, 1.0),
                                        (1.0, None, np.inf), ("1", None, None)])
    def test_bad_angle_constraints_are_rejected(self, angles):
        with pytest.raises(ValueError, match="angle_constraints"):
            SeeSawConfig(angle_constraints=angles)

    @pytest.mark.parametrize("angles", [None, (None, None, None),
                                        (0, np.float64(1.5), np.pi)])
    def test_good_angle_constraints_are_kept(self, angles):
        assert SeeSawConfig(angle_constraints=angles).angle_constraints == angles

    def test_angle_constrained_tightness_one_case(self):
        rng = np.random.default_rng(7)
        r = (0.9, 0.8, 0.7)
        st = Strengths.equal(*r)
        s1, s2, s3 = 0.9, 0.6, 0.2
        angles = equal_strength_angles(s1, s2)
        t = saturable_tensor(rng, build_v_matrix(st, angles), s1, s2, s3)
        d = decomposition_from_t(t.reshape(3, 3, 3))
        bound = 2 * r[0] * r[1] * r[2] * np.hypot(s1, s2)
        result = see_saw_maximize(d, st, np.zeros(6), "mermin",
                                  SeeSawConfig(restarts=10, seed=8,
                                               angle_constraints=angles))
        assert abs(result.value - bound) < 1e-8
        got = result.setting.relative_angles
        np.testing.assert_allclose(got, angles, atol=1e-9)


    @pytest.mark.parametrize("kind", ["mermin", "svetlichny"])
    def test_zero_gradient_pairs_sit_at_their_angles(self, kind):
        angles = (0.0, np.pi, 1.0)
        result = see_saw_maximize(mixed_decomp(), Strengths.uniform(0.6), np.zeros(6),
                                  kind, SeeSawConfig(restarts=3, angle_constraints=angles))
        np.testing.assert_allclose(result.setting.relative_angles, angles,
                                   rtol=0, atol=1e-12)

    @pytest.mark.parametrize("kind", ["mermin", "svetlichny"])
    def test_pairs_held_at_zero_and_pi(self, kind):
        angles = (0.0, np.pi / 2, np.pi)
        for seed in range(6):
            result = see_saw_maximize(decompose(ghz_state()), Strengths.uniform(0.8),
                                      np.zeros(6), kind,
                                      SeeSawConfig(restarts=4, seed=seed,
                                                   angle_constraints=angles))
            np.testing.assert_allclose(result.setting.relative_angles, angles,
                                       rtol=0, atol=1e-12)


def mixed_pair_batch():
    """(g, generic): gradients (batch, 2, 3) with rows whose 3x2 matrix M is
    rank-deficient between random ones (a zero gradient, g1 = 2.5 g2,
    g1 = -g2, g1 = g2), and the indices of the random rows."""
    g = np.random.default_rng(17).normal(size=(11, 2, 3))
    g[2] = 0.0
    g[4, 0] = 2.5 * g[4, 1]
    g[6, 0] = -g[6, 1]
    g[8, 0] = g[8, 1]
    return g, [0, 1, 3, 5, 7, 9, 10]


class TestUpdatePair:
    """The closed-form polar factor against LAPACK's SVD on mixed batches."""

    THETAS = [0.0, 0.4, np.pi / 2, 2.0, np.pi]

    def run(self, theta):
        g, generic = mixed_pair_batch()
        d = np.random.default_rng(3).normal(size=(len(g), 6, 3))
        before = d.copy()
        _update_pair(d, 2, theta, g)
        np.testing.assert_array_equal(np.delete(d, [2, 3], axis=1),
                                      np.delete(before, [2, 3], axis=1))
        ch, sh = np.cos(theta / 2.0), np.sin(theta / 2.0)
        mat = np.stack([ch * (g[:, 0] + g[:, 1]), sh * (g[:, 0] - g[:, 1])], axis=-1)
        return g, generic, d[:, 2], d[:, 3], mat

    @pytest.mark.parametrize("theta", THETAS)
    def test_unit_directions_at_the_relative_angle(self, theta):
        _, _, d1, d2, _ = self.run(theta)
        for direction in (d1, d2):
            np.testing.assert_allclose(np.linalg.norm(direction, axis=1), 1.0,
                                       rtol=0, atol=1e-14)
        np.testing.assert_allclose(np.einsum("bi,bi->b", d1, d2), np.cos(theta),
                                   rtol=0, atol=1e-14)

    @pytest.mark.parametrize("theta", THETAS)
    def test_objective_is_the_nuclear_norm(self, theta):
        g, _, d1, d2, mat = self.run(theta)
        objective = np.einsum("bi,bi->b", g[:, 0], d1) + np.einsum("bi,bi->b", g[:, 1], d2)
        nuclear = np.linalg.svd(mat, compute_uv=False).sum(axis=1)
        np.testing.assert_allclose(objective, nuclear, rtol=1e-12, atol=1e-15)

    @pytest.mark.parametrize("theta", THETAS)
    def test_random_rows_match_the_svd_frame(self, theta):
        _, generic, d1, d2, mat = self.run(theta)
        uu, _, vt = np.linalg.svd(mat[generic], full_matrices=False)
        frame = uu @ vt
        ch, sh = np.cos(theta / 2.0), np.sin(theta / 2.0)
        e1, e2 = frame[..., 0], frame[..., 1]
        np.testing.assert_allclose(d1[generic], ch * e1 + sh * e2, rtol=0, atol=1e-12)
        np.testing.assert_allclose(d2[generic], ch * e1 - sh * e2, rtol=0, atol=1e-12)


class TestSeeSawAgainstDenseTrace:
    @pytest.mark.parametrize("kind", ["mermin", "svetlichny"])
    def test_value_is_the_trace_at_the_returned_setting(self, kind):
        rng = np.random.default_rng(41)
        rho = random_density(rng)
        d = decompose(ThreeQubitState(rho))
        blocks = (d.bloch_a, d.bloch_b, d.bloch_c, d.theta_mat, d.phi_mat, d.omega_mat,
                  d.t_tensor)
        assert min(np.max(np.abs(block)) for block in blocks) > 1e-2
        st = Strengths.from_iterable(rng.uniform(0.3, 0.9, 6))
        biases = (1.0 - st.as_array()) * rng.uniform(-1.0, 1.0, 6)
        result = see_saw_maximize(d, st, biases, kind, SeeSawConfig(restarts=4, seed=3))
        np.testing.assert_array_equal(result.setting.biases_array, biases)
        assert abs(result.value - abs(dense_value(rho, result.setting, kind))) < 1e-12


class TestBiasOptimize:
    def test_requires_tstate(self):
        with pytest.raises(ValueError, match="T-state"):
            bias_optimize(decompose(ghz_state()), Strengths.uniform(0.5), "mermin",
                          SeeSawConfig(restarts=1))

    def test_unit_strengths_match_plain_seesaw(self):
        d = decomposition_from_t(ghz_t3())
        cfg = SeeSawConfig(restarts=8, seed=9)
        plain = see_saw_maximize(d, Strengths.uniform(1.0), np.zeros(6), "mermin", cfg)
        biased = bias_optimize(d, Strengths.uniform(1.0), "mermin", cfg)
        assert abs(plain.value - biased.value) < 1e-9

    def test_zero_strengths_reach_bias_maximum(self):
        d = mixed_decomp()
        result = bias_optimize(d, Strengths.uniform(0.0), "mermin",
                               SeeSawConfig(restarts=2, seed=10))
        assert abs(result.value - 2.0) < 1e-12
        result = bias_optimize(d, Strengths.uniform(0.0), "svetlichny",
                               SeeSawConfig(restarts=2, seed=11))
        assert abs(result.value - 4.0) < 1e-12

    def test_biased_only_window(self):
        # inside the window, biased observables violate while unbiased cannot
        d = decomposition_from_t(ghz_t3())
        ru, rb = mermin_biased_window(2.0)
        mid = 0.5 * (ru + rb)
        st = Strengths.uniform(mid)
        cfg = SeeSawConfig(restarts=12, seed=12)
        unbiased = see_saw_maximize(d, st, np.zeros(6), "mermin", cfg)
        biased = bias_optimize(d, st, "mermin", cfg)
        assert unbiased.value <= 2.0 + 1e-9
        assert biased.value > 2.0
        assert abs(biased.value - (2 * mid**3 * 2 + 2 * (1 - mid) ** 3)) < 1e-6


PAIRING_BOUNDS = {"mermin": mermin_bound_unbiased, "svetlichny": svetlichny_bound_unbiased}


def pairing_residual(t, strengths, angles, kind):
    """(residual, setting): the unbiased pairing bound at ``angles`` minus the
    angle-constrained see-saw's value, relative to max(1, bound).

    Near-degenerate spectra climb slowly, hence the 1000-sweep cap.
    """
    target = PAIRING_BOUNDS[kind](t, strengths, angles).bound_value
    config = SeeSawConfig(max_sweeps=1000, seed=0x5EED, angle_constraints=tuple(angles))
    result = see_saw_maximize(decomposition_from_t(t, check=False), strengths,
                              np.zeros(6), kind, config)
    return (target - result.value) / max(1.0, target), result.setting


def saturating_setting(t, strengths, angles, kind):
    """The see-saw's setting, asserted to attain the pairing bound to 1e-6."""
    residual, setting = pairing_residual(t, strengths, angles, kind)
    assert residual <= 1e-6
    return setting


class TestConstructSaturating:
    def test_ghz_mermin(self):
        d = decomposition_from_t(ghz_t3())
        setting = saturating_setting(ghz_t3(), Strengths.uniform(1.0), ORTH, "mermin")
        assert abs(mermin_expectation(d, setting) - 4.0) < 1e-8

    def test_ghz_svetlichny(self):
        d = decomposition_from_t(ghz_t3())
        angles = equal_strength_angles_svetlichny(ROOT2, ROOT2)
        setting = saturating_setting(ghz_t3(), Strengths.uniform(1.0), angles, "svetlichny")
        assert abs(svetlichny_expectation(d, setting) - 4.0 * ROOT2) < 1e-8

    def test_zero_tensor(self):
        setting = saturating_setting(np.zeros((3, 9)), Strengths.uniform(0.6), ORTH, "mermin")
        assert abs(mermin_expectation(mixed_decomp(), setting)) < 1e-12

    def test_saturable_random_tensor(self):
        rng = np.random.default_rng(13)
        r = (0.8, 0.9, 0.7)
        st = Strengths.equal(*r)
        s1, s2 = 0.9, 0.5
        angles = equal_strength_angles(s1, s2)
        t = saturable_tensor(rng, build_v_matrix(st, angles), s1, s2, 0.2)
        setting = saturating_setting(t, st, angles, "mermin")
        d = decomposition_from_t(t.reshape(3, 3, 3))
        target = 2 * r[0] * r[1] * r[2] * np.hypot(s1, s2)
        assert abs(mermin_expectation(d, setting) - target) < 1e-8

    @pytest.mark.parametrize("seed", [5, 9, 10])
    def test_near_degenerate_mermin_is_constructed(self, seed):
        st = Strengths.equal(0.95, 0.7, 0.55)
        s1, s2, s3 = 0.77, 0.74, 0.72
        angles = equal_strength_angles(s1, s2)
        t = saturable_tensor(np.random.default_rng(seed), build_v_matrix(st, angles),
                             s1, s2, s3)
        setting = saturating_setting(t, st, angles, "mermin")
        d = decomposition_from_t(t.reshape(3, 3, 3))
        bound = mermin_bound_equal_strengths(t, 0.95, 0.7, 0.55).bound_value
        assert abs(mermin_expectation(d, setting) - bound) < 1e-6

    @pytest.mark.parametrize("kind", ["mermin", "svetlichny"])
    def test_zero_tensor_sits_at_the_requested_angles(self, kind):
        angles = (0.0, np.pi, 1.0)
        setting = saturating_setting(np.zeros((3, 9)), Strengths.uniform(0.6), angles, kind)
        np.testing.assert_allclose(setting.relative_angles, angles, rtol=0, atol=1e-12)

    def test_generic_tensor_reports_non_constructible(self):
        rng = np.random.default_rng(1234)
        t = rng.normal(size=(3, 9))
        t /= np.linalg.svd(t, compute_uv=False)[0]
        residual, _ = pairing_residual(t, Strengths.uniform(0.8), ORTH, "mermin")
        assert residual > 1e-6

