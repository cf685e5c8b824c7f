"""Oracle tests: see-saw, bias optimization, saturation construction, grid scan."""

import numpy as np
import pytest

from bell3q import (NonConstructibleError, SeeSawConfig, Strengths, ThreeQubitState,
                    bias_optimize, construct_saturating_setting, decompose,
                    decomposition_from_t, ghz_state, grid_scan, mermin_biased_window,
                    mermin_bound_equal_strengths, mermin_bound_unbiased,
                    mermin_expectation, see_saw_maximize,
                    svetlichny_expectation)
from bell3q.mermin import build_v_matrix, equal_strength_angles
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


class TestConstructSaturating:
    def test_ghz_mermin(self):
        d = decomposition_from_t(ghz_t3())
        setting = construct_saturating_setting(ghz_t3(), Strengths.uniform(1.0),
                                               ORTH, "mermin")
        assert abs(mermin_expectation(d, setting) - 4.0) < 1e-8

    def test_ghz_svetlichny(self):
        d = decomposition_from_t(ghz_t3())
        angles = equal_strength_angles_svetlichny(ROOT2, ROOT2)
        setting = construct_saturating_setting(ghz_t3(), Strengths.uniform(1.0),
                                               angles, "svetlichny")
        assert abs(svetlichny_expectation(d, setting) - 4.0 * ROOT2) < 1e-8

    def test_zero_tensor(self):
        setting = construct_saturating_setting(np.zeros((3, 9)), Strengths.uniform(0.6),
                                               ORTH, "mermin")
        assert abs(mermin_expectation(mixed_decomp(), setting)) < 1e-12

    def test_saturable_random_tensor(self):
        rng = np.random.default_rng(13)
        r = (0.8, 0.9, 0.7)
        st = Strengths.equal(*r)
        s1, s2 = 0.9, 0.5
        angles = equal_strength_angles(s1, s2)
        t = saturable_tensor(rng, build_v_matrix(st, angles), s1, s2, 0.2)
        setting = construct_saturating_setting(t, st, angles, "mermin")
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
        setting = construct_saturating_setting(t, st, angles, "mermin")
        d = decomposition_from_t(t.reshape(3, 3, 3))
        bound = mermin_bound_equal_strengths(t, 0.95, 0.7, 0.55).bound_value
        assert abs(mermin_expectation(d, setting) - bound) < 1e-6

    @pytest.mark.parametrize("kind", ["mermin", "svetlichny"])
    def test_zero_tensor_sits_at_the_requested_angles(self, kind):
        angles = (0.0, np.pi, 1.0)
        setting = construct_saturating_setting(np.zeros((3, 9)), Strengths.uniform(0.6),
                                               angles, kind)
        np.testing.assert_allclose(setting.relative_angles, angles, rtol=0, atol=1e-12)

    def test_generic_tensor_reports_non_constructible(self):
        rng = np.random.default_rng(1234)
        t = rng.normal(size=(3, 9))
        t /= np.linalg.svd(t, compute_uv=False)[0]
        with pytest.raises(NonConstructibleError) as info:
            construct_saturating_setting(t, Strengths.uniform(0.8), ORTH, "mermin")
        assert info.value.residual > 1e-6


class TestGridScan:
    def test_maximally_mixed(self):
        assert grid_scan(mixed_decomp(), Strengths.uniform(1.0), "mermin", 6) == 0.0

    def test_ghz_sharp_mermin_resolution_8(self):
        d = decompose(ghz_state())
        assert grid_scan(d, Strengths.uniform(1.0), "mermin", 8) >= 3.9

    def test_never_exceeds_seesaw(self):
        rng = np.random.default_rng(14)
        for i in range(5):
            t = rng.normal(size=(3, 9))
            t /= np.linalg.svd(t, compute_uv=False)[0]
            d = decomposition_from_t(t.reshape(3, 3, 3))
            st = Strengths.from_iterable(rng.uniform(0.2, 1, 6))
            lower = grid_scan(d, st, "svetlichny", 8)
            upper = see_saw_maximize(d, st, np.zeros(6), "svetlichny",
                                     SeeSawConfig(restarts=10, seed=200 + i))
            assert lower <= upper.value + 1e-9

    def test_resolution_guard(self):
        with pytest.raises(ValueError):
            grid_scan(mixed_decomp(), Strengths.uniform(1.0), "mermin", 13)
