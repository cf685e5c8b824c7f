"""Mermin bound and criterion tests."""

import itertools

import numpy as np
import pytest

from bell3q import (SeeSawConfig, Strengths, bias_optimize, build_v_matrix, decompose,
                    decomposition_from_t, ghz_state, i_plus_minus, k_max,
                    mermin_bound_degenerate_smax, mermin_bound_equal_strengths,
                    mermin_bound_unbiased, mermin_bound_x_asymmetric,
                    mermin_sufficient_orthogonal)
from bell3q.mermin import _i_coefficients, _t_svals
from bell3q.observables import OPERATORS

MERMIN = OPERATORS["mermin"]
ORTH = (np.pi / 2, np.pi / 2, np.pi / 2)


def ghz_t():
    t = np.zeros((3, 3, 3))
    t[0, 0, 0] = 1.0
    t[0, 1, 1] = t[1, 0, 1] = t[1, 1, 0] = -1.0
    return t.reshape(3, 9)


def random_strengths(rng):
    return Strengths.from_iterable(rng.uniform(0, 1, 6))


def random_t(rng, top=1.0):
    t = rng.normal(size=(3, 9))
    return t * (top / np.linalg.svd(t, compute_uv=False)[0])


def bound_at(t, strengths, angles):
    return mermin_bound_unbiased(t, strengths, angles).bound_value


class TestVMatrix:
    def test_unit_strengths_orthogonal_angles(self):
        v = build_v_matrix(Strengths.uniform(1.0), ORTH)
        h = 2.0 / (2.0 * np.sqrt(2.0))  # A..D = 2 times the half-angle product
        expected = np.zeros((3, 9))
        expected[0, 0], expected[0, 1], expected[0, 3], expected[0, 4] = h, h, h, -h
        expected[1, 0], expected[1, 1], expected[1, 3], expected[1, 4] = h, -h, -h, -h
        np.testing.assert_allclose(v, expected, atol=1e-14)

    def test_zero_strengths(self):
        rng = np.random.default_rng(0)
        v = build_v_matrix(Strengths.uniform(0.0), rng.uniform(0, np.pi, 3))
        np.testing.assert_allclose(v, 0.0)

    def test_third_singular_value_structurally_zero(self):
        rng = np.random.default_rng(1)
        for _ in range(50):
            v = build_v_matrix(random_strengths(rng), rng.uniform(0, np.pi, 3))
            assert np.all(v[2] == 0.0)
            assert np.linalg.svd(v, compute_uv=False)[2] < 1e-14


class TestIPlusMinus:
    def test_unit_strengths_orthogonal(self):
        ip, im = i_plus_minus(Strengths.uniform(1.0), ORTH)
        assert abs(ip - 2.0 * np.sqrt(2.0)) < 1e-12
        assert abs(im) < 1e-12

    def test_zero_strengths(self):
        assert i_plus_minus(Strengths.uniform(0.0), ORTH) == (0.0, 0.0)

    def test_one_vanishing_partner_strength(self):
        # with R_X' = 0 the swing term vanishes, so I+ = I- at every angle;
        # both equal sqrt(2) wherever the remaining cross term cos(ty)cos(tz)
        # is zero (the X-side cross terms carry a factor R_X R_X' = 0)
        st = Strengths(1.0, 0.0, 1.0, 1.0, 1.0, 1.0)
        rng = np.random.default_rng(2)
        for _ in range(10):
            ang = rng.uniform(0, np.pi, 3)
            ip, im = i_plus_minus(st, ang)
            assert abs(ip - im) < 1e-12
            expected = np.sqrt(2.0 + 2.0 * np.cos(ang[1]) * np.cos(ang[2]))
            assert abs(ip - expected) < 1e-12
        ip, im = i_plus_minus(st, (0.3, np.pi / 2, 0.8))
        assert abs(ip - np.sqrt(2)) < 1e-12
        assert abs(im - np.sqrt(2)) < 1e-12

    def test_matches_svd_of_v(self):
        rng = np.random.default_rng(3)
        for _ in range(1000):
            st = random_strengths(rng)
            ang = tuple(rng.uniform(0, np.pi, 3))
            sv = np.linalg.svd(build_v_matrix(st, ang), compute_uv=False)
            ip, im = i_plus_minus(st, ang)
            assert abs(ip - (sv[0] + sv[1])) < 1e-10
            assert abs(im - (sv[0] - sv[1])) < 1e-10

    def test_vectorized_angles(self):
        st = Strengths.from_iterable([0.9, 0.4, 0.8, 0.6, 1.0, 0.3])
        grid = np.linspace(0, np.pi, 7)
        tx, ty, tz = np.meshgrid(grid, grid, grid, indexing="ij")
        ip, im = i_plus_minus(st, (tx, ty, tz))
        for i, j, k in itertools.product(range(0, 7, 3), repeat=3):
            sip, sim = i_plus_minus(st, (grid[i], grid[j], grid[k]))
            assert abs(ip[i, j, k] - sip) < 1e-14
            assert abs(im[i, j, k] - sim) < 1e-14


class TestUnbiasedBound:
    def test_ghz_sharp_orthogonal(self):
        report = mermin_bound_unbiased(ghz_t(), Strengths.uniform(1.0), ORTH)
        assert abs(report.bound_value - 4.0) < 1e-9

    def test_zero_cases(self):
        rng = np.random.default_rng(4)
        ang = tuple(rng.uniform(0, np.pi, 3))
        assert bound_at(random_t(rng), Strengths.uniform(0.0), ang) == 0.0
        assert bound_at(np.zeros((3, 9)), random_strengths(rng), ang) == 0.0

    def test_equals_singular_value_pairing(self):
        rng = np.random.default_rng(5)
        for _ in range(100):
            t = random_t(rng)
            st = random_strengths(rng)
            ang = tuple(rng.uniform(0, np.pi, 3))
            sv_t = np.linalg.svd(t, compute_uv=False)
            sv_v = np.linalg.svd(build_v_matrix(st, ang), compute_uv=False)
            assert abs(bound_at(t, st, ang) - (sv_t[:2] @ sv_v[:2])) < 1e-10

    def test_party_scaling_monotonicity(self):
        # scaling one party's pair of strengths scales V linearly, so the
        # bound is non-decreasing in each party's common strength factor
        rng = np.random.default_rng(6)
        for _ in range(100):
            st = random_strengths(rng).as_array()
            ang = tuple(rng.uniform(0, np.pi, 3))
            t = random_t(rng)
            base = bound_at(t, Strengths.from_iterable(st), ang)
            party = rng.integers(0, 3)
            c = rng.uniform(0, 1)
            scaled = st.copy()
            scaled[2 * party:2 * party + 2] *= c
            value = bound_at(t, Strengths.from_iterable(scaled), ang)
            assert value <= base + 1e-12
            assert abs(value - c * base) < 1e-10


class TestEqualStrengths:
    def test_ghz_unit(self):
        report = mermin_bound_equal_strengths(ghz_t(), 1.0, 1.0, 1.0)
        assert abs(report.bound_value - 4.0) < 1e-12
        np.testing.assert_allclose(report.achieving_angles, ORTH, atol=1e-12)

    def test_zero(self):
        assert mermin_bound_equal_strengths(ghz_t(), 0, 0, 0).bound_value == 0.0

    def test_rank_one_tensor(self):
        t = np.zeros((3, 9))
        t[0, 0] = 0.9
        report = mermin_bound_equal_strengths(t, 1.0, 1.0, 1.0)
        assert abs(report.bound_value - 1.8) < 1e-12
        assert report.achieving_angles[0] == 0.0  # tx = 0 admissible when s2 = 0

    def test_achieved_by_general_bound_at_family_angles(self):
        rng = np.random.default_rng(7)
        for _ in range(50):
            t = random_t(rng)
            r = rng.uniform(0.1, 1, 3)
            report = mermin_bound_equal_strengths(t, *r)
            st = Strengths.equal(*r)
            assert abs(bound_at(t, st, report.achieving_angles)
                       - report.bound_value) < 1e-10


class TestSufficientOrthogonal:
    def test_ghz_unit(self):
        r = mermin_sufficient_orthogonal(*_t_svals(ghz_t()), Strengths.uniform(1.0))
        value, violated = r.bound_value, r.bound_value > MERMIN.classical_limit
        assert abs(value - 4.0) < 1e-12
        assert violated

    def test_zero(self):
        r = mermin_sufficient_orthogonal(*_t_svals(ghz_t()), Strengths.uniform(0.0))
        value, violated = r.bound_value, r.bound_value > MERMIN.classical_limit
        assert value == 0.0 and not violated

    def test_never_exceeds_general_bound_at_orthogonal_angles(self):
        rng = np.random.default_rng(8)
        for _ in range(100):
            t = random_t(rng)
            st = random_strengths(rng)
            value = mermin_sufficient_orthogonal(*_t_svals(t), st).bound_value
            general = bound_at(t, st, ORTH)
            assert value <= general + 1e-10
            # equality whenever the s1 pairing dominates the s2 pairing
            a = st.rx * np.sqrt(st.ry**2 * st.rzp**2 + st.ryp**2 * st.rz**2)
            b = st.rxp * np.sqrt(st.ry**2 * st.rz**2 + st.ryp**2 * st.rzp**2)
            if a >= b:
                assert abs(value - general) < 1e-10


class TestSixVariant:
    def test_equal_strengths_reduce_exactly(self):
        rng = np.random.default_rng(9)
        for _ in range(50):
            t = random_t(rng)
            st = Strengths.equal(*rng.uniform(0, 1, 3))
            ang = tuple(rng.uniform(0, np.pi, 3))
            tilde = MERMIN.six_variant(*_t_svals(t), st, ang).bound_value
            assert abs(tilde - bound_at(t, st, ang)) < 1e-12

    def test_zero(self):
        r = MERMIN.six_variant(*_t_svals(ghz_t()), Strengths.uniform(0.0), ORTH)
        value, violated = r.bound_value, r.bound_value > MERMIN.classical_limit
        assert value == 0.0 and not violated

    def test_dominates_base_bound(self):
        rng = np.random.default_rng(10)
        for _ in range(100):
            t = random_t(rng)
            st = random_strengths(rng)
            ang = tuple(rng.uniform(0, np.pi, 3))
            tilde = MERMIN.six_variant(*_t_svals(t), st, ang).bound_value
            assert tilde >= bound_at(t, st, ang) - 1e-12

    def test_dominates_exchanged_operator_values(self, held_variant_values):
        # unequal strengths on every party: each exchanged operator's value at
        # random settings, and at the settings a see-saw held at their angles
        # reaches, stays below the criterion at those angles
        from bell3q import (ThreeQubitState, decompose, random_state, variant_expectations)
        from bell3q.observables import GeneralObservable, MeasurementSetting

        rng = np.random.default_rng(11)
        for trial in range(30):
            g = rng.normal(size=(8, 8)) + 1j * rng.normal(size=(8, 8))
            rho = g @ g.conj().T
            d = decompose(ThreeQubitState(rho / rho.trace().real))
            r = rng.uniform(0.1, 1, 6)
            obs = []
            for strength in r:
                direction = rng.normal(size=3)
                direction /= np.linalg.norm(direction)
                obs.append(GeneralObservable(0.0, strength, direction))
            setting = MeasurementSetting(*obs)
            st, angles = Strengths.from_iterable(r), setting.relative_angles
            tilde = MERMIN.six_variant(*_t_svals(d.t_matrix), st, angles).bound_value
            values = [abs(v) for v in variant_expectations(d, setting, "mermin")]
            if trial < 3:
                values += held_variant_values(d, st, "mermin", angles)
            assert max(values) <= tilde + 1e-9
        # with the angle-cosine cross terms at absolute value the criterion was
        # 0.0712 here, below the 0.0906 that the held see-saw reaches
        d = decompose(random_state(79))
        st, angles = Strengths(0.7, 0.21, 0.37, 0.16, 0.64, 0.17), (0.72, 1.41, 1.42)
        tilde = MERMIN.six_variant(*_t_svals(d.t_matrix), st, angles).bound_value
        assert max(held_variant_values(d, st, "mermin", angles)) <= tilde + 1e-9


class TestKMax:
    def brute(self, st):
        bars = st.bars
        best = 0.0
        for signs in itertools.product((1, -1), repeat=6):
            bx, bxp, by, byp, bz, bzp = (s * b for s, b in zip(signs, bars))
            best = max(best, abs(bx * (by * bzp + byp * bz)
                                 + bxp * (by * bz - byp * bzp)))
        return best

    def test_unit_strengths(self):
        assert k_max(Strengths.uniform(1.0)) == 0.0

    def test_zero_strengths(self):
        assert k_max(Strengths.uniform(0.0)) == 2.0

    def test_equal_strengths_closed_form(self):
        for r in (0.0, 0.3, 0.9, 1.0):
            assert abs(k_max(Strengths.uniform(r)) - 2 * (1 - r) ** 3) < 1e-14

    def test_matches_brute_force_on_500_draws(self):
        rng = np.random.default_rng(11)
        for _ in range(500):
            st = random_strengths(rng)
            assert abs(k_max(st) - self.brute(st)) <= 1e-12

    def test_range(self):
        rng = np.random.default_rng(12)
        for _ in range(200):
            v = k_max(random_strengths(rng))
            assert 0.0 <= v <= 2.0 + 1e-12


class TestTstateBound:
    def test_unit_strengths_reduce_to_unbiased(self):
        st = Strengths.uniform(1.0)
        a = MERMIN.tstate(*_t_svals(ghz_t()), st, ORTH).bound_value
        b = bound_at(ghz_t(), st, ORTH)
        assert a == b

    def test_zero_strengths_exactly_two(self):
        st = Strengths.uniform(0.0)
        assert MERMIN.tstate(*_t_svals(ghz_t()), st, ORTH).bound_value == 2.0

    def test_equal_strength_value(self):
        # tensor with s1 = s2 = sqrt(2): optimum 2 r^3 * 2 + 2 (1-r)^3
        r = 0.9
        st = Strengths.uniform(r)
        value = MERMIN.tstate(*_t_svals(ghz_t()), st, ORTH).bound_value
        assert abs(value - (2 * r**3 * 2 + 2 * (1 - r) ** 3)) < 1e-12
        assert abs(value - 2.918) < 1e-12

    def test_rejects_non_tstate_decomposition(self):
        d = decompose(ghz_state())
        with pytest.raises(ValueError, match="T-state"):
            MERMIN.tstate(*_t_svals(ghz_t()), Strengths.uniform(0.5), ORTH, decomp=d)


class TestBiasedWindow:
    def test_ghz_values(self):
        ru, rb = MERMIN.biased_window(2.0)
        assert abs(ru - 2.0 ** (-1.0 / 3.0)) < 1e-12
        assert abs(rb - (-3.0 + np.sqrt(21.0)) / 2.0) < 1e-12
        assert rb < ru

    def test_boundary_rejected(self):
        with pytest.raises(ValueError):
            MERMIN.biased_window(1.0)

    def test_nan_rejected(self):
        with pytest.raises(ValueError, match="window requires"):
            MERMIN.biased_window(float("nan"))

    def test_sqrt2(self):
        ru, rb = MERMIN.biased_window(np.sqrt(2.0))
        assert abs(ru - 2.0 ** (-1.0 / 6.0)) < 1e-12
        assert rb < ru

    def test_thresholds_are_exact_roots(self):
        for p in (1.3, 2.0, 2.5):
            ru, rb = MERMIN.biased_window(p)
            assert abs(2 * p * ru**3 - 2.0) < 1e-10
            assert abs(2 * p * rb**3 + 2 * (1 - rb) ** 3 - 2.0) < 1e-10

    def test_window_property(self):
        for p in (1.5, 2.0):
            ru, rb = MERMIN.biased_window(p)
            for r in np.linspace(rb + 1e-6, ru, 7):
                assert 2 * r**3 * p <= 2.0 + 1e-9
                assert 2 * r**3 * p + 2 * (1 - r) ** 3 > 2.0


class TestXAsymmetric:
    def test_reduces_to_equal_strengths(self):
        rng = np.random.default_rng(13)
        t = random_t(rng)
        r = 0.8
        a = mermin_bound_x_asymmetric(*_t_svals(t), r, r, 0.7, 0.6).bound_value
        b = mermin_bound_equal_strengths(t, r, 0.7, 0.6).bound_value
        assert abs(a - b) < 1e-12

    def test_vanishing_partner(self):
        rng = np.random.default_rng(14)
        t = random_t(rng)
        s1 = np.linalg.svd(t, compute_uv=False)[0]
        report = mermin_bound_x_asymmetric(*_t_svals(t), 0.9, 0.0, 0.7, 0.6)
        assert abs(report.bound_value - 2 * 0.7 * 0.6 * 0.9 * s1) < 1e-12
        assert report.achieving_angles[1] == 0.0  # angle condition trivial

    def test_ghz_value_by_substitution(self):
        report = mermin_bound_x_asymmetric(*_t_svals(ghz_t()), 1.0, 0.5, 1.0, 1.0)
        assert abs(report.bound_value - np.sqrt(10.0)) < 1e-12

    def test_is_an_upper_bound_over_all_angles(self):
        rng = np.random.default_rng(15)
        for _ in range(50):
            rx, rxp = sorted(rng.uniform(0, 1, 2), reverse=True)
            ry, rz = rng.uniform(0, 1, 2)
            t = random_t(rng, top=rng.uniform(0.5, 1.5))
            value = mermin_bound_x_asymmetric(*_t_svals(t), rx, rxp, ry, rz).bound_value
            st = Strengths(rx, rxp, ry, ry, rz, rz)
            for _ in range(40):
                ang = tuple(rng.uniform(0, np.pi, 3))
                assert bound_at(t, st, ang) <= value + 1e-9

    def test_rejects_wrong_order(self):
        with pytest.raises(ValueError, match="rx >= rxp"):
            mermin_bound_x_asymmetric(*_t_svals(ghz_t()), 0.2, 0.8, 1.0, 1.0)

    def test_tstate_bound_covers_biased_optimum(self):
        # with R_X > R_X' the bias-only maximum uses the larger slack 1 - R_X'
        t = np.zeros((3, 3, 3))
        t[0, 0, 0], t[1, 1, 1] = 0.3, 0.2
        st = Strengths(0.9, 0.3, 0.5, 0.5, 0.5, 0.5)
        bound = MERMIN.plus_bias_max(mermin_bound_x_asymmetric(
            *_t_svals(t.reshape(3, 9)), 0.9, 0.3, 0.5, 0.5), st).bound_value
        best = bias_optimize(decomposition_from_t(t), st, "mermin",
                             SeeSawConfig(restarts=8)).value
        assert best <= bound + 1e-12


def degenerate_smax_reference(st, s_max, tstate):
    """The replaced value, kept as a reference: Gamma0 written out term by
    term rather than taken from the I+- radical at orthogonal angles."""
    i0, *_ = _i_coefficients(st)
    gamma0 = st.rx * st.rxp * np.sqrt(
        st.ry**2 * st.ryp**2 * (st.rz**4 + st.rzp**4)
        + st.rz**2 * st.rzp**2 * (st.ry**4 + st.ryp**4))
    value = s_max * np.sqrt(i0 + 2.0 * gamma0)
    return float(value + k_max(st) if tstate else value)


class TestDegenerateSmax:
    @pytest.mark.parametrize("tstate", [False, True])
    def test_matches_the_written_out_gamma0(self, tstate):
        rng = np.random.default_rng(20)
        draws = [(random_strengths(rng), rng.uniform(0.0, 1.0)) for _ in range(2000)]
        draws += [(Strengths.uniform(0.0), 1.0), (Strengths.uniform(1.0), 0.7)]
        for st, s_max in draws:
            report = mermin_bound_degenerate_smax(st, s_max)
            value = (MERMIN.plus_bias_max(report, st) if tstate else report).bound_value
            assert value == degenerate_smax_reference(st, s_max, tstate), (st, s_max)

    def test_unit_strengths(self):
        value = mermin_bound_degenerate_smax(Strengths.uniform(1.0), 1.3).bound_value
        assert abs(value - 2 * np.sqrt(2) * 1.3) < 1e-12

    def test_zero_strengths(self):
        assert mermin_bound_degenerate_smax(Strengths.uniform(0.0), 1.0).bound_value == 0.0
        v = MERMIN.plus_bias_max(mermin_bound_degenerate_smax(Strengths.uniform(0.0), 1.0),
                                 Strengths.uniform(0.0))
        assert v.bound_value == 2.0

    def test_dominates_bound_on_its_slices(self):
        # the optimization fixes one of ty, tz at pi/2; on those slices the
        # value dominates the general bound for degenerate tensors
        rng = np.random.default_rng(16)
        for _ in range(100):
            st = random_strengths(rng)
            value = mermin_bound_degenerate_smax(st, 1.0).bound_value
            for _ in range(20):
                a, b = rng.uniform(0, np.pi, 2)
                for ang in ((a, b, np.pi / 2), (a, np.pi / 2, b)):
                    ip, im = i_plus_minus(st, ang)
                    assert ip <= value + 1e-9  # s1 = s2 = 1: bound is I+
