"""Mermin bound and criterion tests; the shared properties are in test_operators.py."""

import itertools

import numpy as np
import pytest

from bell3q import (SeeSawConfig, Strengths, bias_optimize, build_v_matrix,
                    decomposition_from_t, i_plus_minus, k_max,
                    mermin_bound_degenerate_smax, mermin_bound_equal_strengths,
                    mermin_bound_x_asymmetric, mermin_sufficient_orthogonal)
from bell3q.mermin import _i_coefficients, _t_svals
from bell3q.observables import OPERATORS

from references import ORTH, bound_at, ghz_t, random_strengths, random_t
from test_operators import (BiasedWindow, BiasMax, CoefficientMatrix, EqualStrengths,
                            PlusMinus, SixVariant, SufficientOrthogonal, TstateBound,
                            UnbiasedBound)

MERMIN = OPERATORS["mermin"]


class TestVMatrix(CoefficientMatrix):
    kind = "mermin"

    def test_unit_strengths_orthogonal_angles(self):
        v = build_v_matrix(Strengths.uniform(1.0), ORTH)
        h = 2.0 / (2.0 * np.sqrt(2.0))  # A..D = 2 times the half-angle product
        expected = np.zeros((3, 9))
        expected[0, 0], expected[0, 1], expected[0, 3], expected[0, 4] = h, h, h, -h
        expected[1, 0], expected[1, 1], expected[1, 3], expected[1, 4] = h, -h, -h, -h
        np.testing.assert_allclose(v, expected, atol=1e-14)


class TestIPlusMinus(PlusMinus):
    kind = "mermin"
    test_matches_svd_of_v = PlusMinus.check_matches_svd

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

    def test_vectorized_angles(self):
        st = Strengths.from_iterable([0.9, 0.4, 0.8, 0.6, 1.0, 0.3])
        grid = np.linspace(0, np.pi, 7)
        tx, ty, tz = np.meshgrid(grid, grid, grid, indexing="ij")
        ip, im = i_plus_minus(st, (tx, ty, tz))
        for i, j, k in itertools.product(range(0, 7, 3), repeat=3):
            sip, sim = i_plus_minus(st, (grid[i], grid[j], grid[k]))
            assert abs(ip[i, j, k] - sip) < 1e-14
            assert abs(im[i, j, k] - sim) < 1e-14


class TestUnbiasedBound(UnbiasedBound):
    kind = "mermin"
    test_ghz_sharp_orthogonal = UnbiasedBound.check_ghz_sharp

    def test_party_scaling_monotonicity(self):
        # scaling one party's pair of strengths scales V linearly, so the
        # bound is non-decreasing in each party's common strength factor
        rng = np.random.default_rng(6)
        for _ in range(100):
            st = random_strengths(rng).as_array()
            ang = tuple(rng.uniform(0, np.pi, 3))
            t = random_t(rng)
            base = bound_at("mermin", t, Strengths.from_iterable(st), ang)
            party = rng.integers(0, 3)
            c = rng.uniform(0, 1)
            scaled = st.copy()
            scaled[2 * party:2 * party + 2] *= c
            value = bound_at("mermin", t, Strengths.from_iterable(scaled), ang)
            assert value <= base + 1e-12
            assert abs(value - c * base) < 1e-10


class TestEqualStrengths(EqualStrengths):
    kind = "mermin"

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
            assert abs(bound_at("mermin", t, st, report.achieving_angles)
                       - report.bound_value) < 1e-10


class TestSufficientOrthogonal(SufficientOrthogonal):
    kind = "mermin"

    def test_never_exceeds_general_bound_at_orthogonal_angles(self):
        rng = np.random.default_rng(8)
        for _ in range(100):
            t = random_t(rng)
            st = random_strengths(rng)
            value = mermin_sufficient_orthogonal(*_t_svals(t), st).bound_value
            general = bound_at("mermin", t, st, ORTH)
            assert value <= general + 1e-10
            # equality whenever the s1 pairing dominates the s2 pairing
            a = st.rx * np.sqrt(st.ry**2 * st.rzp**2 + st.ryp**2 * st.rz**2)
            b = st.rxp * np.sqrt(st.ry**2 * st.rz**2 + st.ryp**2 * st.rzp**2)
            if a >= b:
                assert abs(value - general) < 1e-10


class TestSixVariant(SixVariant):
    kind = "mermin"


class TestKMax(BiasMax):
    kind = "mermin"


class TestTstateBound(TstateBound):
    kind = "mermin"
    test_zero_strengths_exactly_two = TstateBound.check_zero_strengths_exact


class TestBiasedWindow(BiasedWindow):
    kind = "mermin"

    def test_sqrt2(self):
        ru, rb = MERMIN.biased_window(np.sqrt(2.0))
        assert abs(ru - 2.0 ** (-1.0 / 6.0)) < 1e-12
        assert rb < ru


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
                assert bound_at("mermin", t, st, ang) <= value + 1e-9

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
