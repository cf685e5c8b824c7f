"""Svetlichny bound and criterion tests; the shared properties are in test_operators.py."""

import numpy as np
import pytest

from bell3q import (Strengths, build_w_matrix, j_plus_minus, l_max,
                    svetlichny_bound_degenerate_smax, svetlichny_bound_equal_strengths,
                    svetlichny_bound_x_asymmetric, svetlichny_sufficient_orthogonal)
from bell3q.mermin import _degenerate, _t_svals
from bell3q.observables import OPERATORS
from bell3q.svetlichny import (equal_strength_angles_svetlichny,
                               svetlichny_bound_x_asymmetric_best)

from references import ORTH, ROOT2, bound_at, ghz_t, random_strengths, random_t
from test_operators import (BiasedWindow, BiasMax, CoefficientMatrix, EqualStrengths,
                            PlusMinus, SixVariant, SufficientOrthogonal, TstateBound,
                            UnbiasedBound)

SVETLICHNY = OPERATORS["svetlichny"]


class TestWMatrix(CoefficientMatrix):
    kind = "svetlichny"

    def test_unit_strengths_orthogonal_angles(self):
        # A+- = D+- = 0, B+- = C+- = 4 and half-angle products 1/(2 sqrt 2)
        w = build_w_matrix(Strengths.uniform(1.0), ORTH)
        h = 4.0 / (2.0 * ROOT2)
        expected = np.zeros((3, 9))
        expected[0, 1] = h   # B+ block
        expected[1, 0] = h   # C+ block
        expected[0, 3] = h   # C- block
        expected[1, 4] = -h  # -B- block
        np.testing.assert_allclose(w, expected, atol=1e-14)

    def test_equal_z_strengths_collapse_pm(self):
        # with R_Z = R_Z' the plus and minus coefficient families coincide,
        # which shows up as a symmetry of the two 2x2 blocks at orthogonal angles
        rng = np.random.default_rng(1)
        for _ in range(20):
            vals = rng.uniform(0, 1, 5)
            st = Strengths(vals[0], vals[1], vals[2], vals[3], vals[4], vals[4])
            w = np.abs(build_w_matrix(st, ORTH))
            for first, second in (((0, 0), (1, 3)), ((0, 1), (1, 4)),
                                  ((1, 0), (0, 3)), ((1, 1), (0, 4))):
                assert abs(w[first] - w[second]) < 1e-14


class TestJPlusMinus(PlusMinus):
    kind = "svetlichny"
    test_matches_svd_of_w = PlusMinus.check_matches_svd

    def test_equal_strength_eigenvalue_forms(self):
        # w_pm = 8 (R_X R_Y R_Z)^2 (1 +- cos ty cos tz) (sin/cos)^2(tx/2)
        rng = np.random.default_rng(4)
        for _ in range(200):
            r = rng.uniform(0, 1, 3)
            st = Strengths.equal(*r)
            tx, ty, tz = rng.uniform(0, np.pi, 3)
            prod = 8.0 * (r[0] * r[1] * r[2]) ** 2
            w_p = prod * (1 + np.cos(ty) * np.cos(tz)) * np.sin(tx / 2) ** 2
            w_m = prod * (1 - np.cos(ty) * np.cos(tz)) * np.cos(tx / 2) ** 2
            hi, lo = max(w_p, w_m), min(w_p, w_m)
            jp, jm = j_plus_minus(st, (tx, ty, tz))
            assert abs(jp - (np.sqrt(hi) + np.sqrt(lo))) < 1e-10
            assert abs(jm - (np.sqrt(hi) - np.sqrt(lo))) < 1e-10


class TestUnbiasedBound(UnbiasedBound):
    kind = "svetlichny"
    test_ghz_sharp_at_optimal_angles = UnbiasedBound.check_ghz_sharp


class TestEqualStrengths(EqualStrengths):
    kind = "svetlichny"

    def test_sharp_limit_formula(self):
        rng = np.random.default_rng(7)
        for _ in range(50):
            t = random_t(rng, top=rng.uniform(0.5, 1.5))
            s = np.linalg.svd(t, compute_uv=False)
            value = svetlichny_bound_equal_strengths(t, 1, 1, 1).bound_value
            assert abs(value - 2 * ROOT2 * np.hypot(s[0], s[1])) < 1e-10

    def test_achieved_by_general_bound_on_both_angle_families(self):
        rng = np.random.default_rng(8)
        for _ in range(50):
            t = random_t(rng)
            s1, s2 = np.linalg.svd(t, compute_uv=False)[:2]
            r = rng.uniform(0.1, 1, 3)
            st = Strengths.equal(*r)
            value = svetlichny_bound_equal_strengths(t, *r).bound_value
            # family 1: cos ty cos tz = (s1^2-s2^2)/(s1^2+s2^2), tx = pi/2
            ang1 = equal_strength_angles_svetlichny(s1, s2)
            assert abs(bound_at("svetlichny", t, st, ang1) - value) < 1e-10
            # family 2: sin tx = 2 s1 s2/(s1^2+s2^2), cos ty cos tz = 0
            tx = np.arcsin(np.clip(2 * s1 * s2 / (s1**2 + s2**2), 0, 1))
            ang2 = (tx, np.pi / 2, rng.uniform(0, np.pi))
            assert abs(bound_at("svetlichny", t, st, ang2) - value) < 1e-10


class TestSufficientOrthogonal(SufficientOrthogonal):
    kind = "svetlichny"

    def test_equals_general_bound_at_orthogonal_angles(self):
        rng = np.random.default_rng(9)
        for _ in range(100):
            t = random_t(rng)
            st = random_strengths(rng)
            value = svetlichny_sufficient_orthogonal(*_t_svals(t), st).bound_value
            assert abs(value - bound_at("svetlichny", t, st, ORTH)) < 1e-10


class TestSixVariant(SixVariant):
    kind = "svetlichny"


class TestLMax(BiasMax):
    kind = "svetlichny"


class TestTstateBound(TstateBound):
    kind = "svetlichny"
    test_zero_strengths_exactly_four = TstateBound.check_zero_strengths_exact


class TestBiasedWindow(BiasedWindow):
    kind = "svetlichny"

    def test_p_one_point_five(self):
        ru, rb = SVETLICHNY.biased_window(1.5)
        assert rb < ru


def per_branch_tstate_reference(s1, s2, rx, rxp, ry, rz):
    """The replaced T-state sum, kept as a reference: l_max added to every
    branch value, and the best branch chosen, ties included, on the sums.
    Returns (value, criterion, angles)."""
    extra = l_max(Strengths(rx, rxp, ry, ry, rz, rz))
    branches = ["mixed", "orthogonal"] + (["parallel"] if _degenerate(s1, s2) else [])
    reports = [svetlichny_bound_x_asymmetric(s1, s2, rx, rxp, ry, rz, b) for b in branches]
    values = [float(r.bound_value + extra) for r in reports]
    top = max(values)
    best = next(i for i, v in enumerate(values) if v >= top - 1e-12 * abs(top))
    return (top, reports[best].criterion + "_tstate_best", reports[best].achieving_angles)


class TestXAsymmetric:
    def test_tstate_term_added_once_matches_per_branch_sums(self):
        # includes s1 = s2 (where the parallel branch ties the mixed one) and R_X = R_X'
        rng = np.random.default_rng(21)
        for i in range(2000):
            s1 = rng.uniform(0.0, 1.0)
            s2 = s1 if i % 4 == 0 else rng.uniform(0.0, s1)
            rx, rxp = sorted(rng.uniform(0.0, 1.0, 2), reverse=True)
            if i % 3 == 0:
                rxp = rx
            ry, rz = rng.uniform(0.0, 1.0, 2)
            report = SVETLICHNY.plus_bias_max(svetlichny_bound_x_asymmetric_best(
                s1, s2, rx, rxp, ry, rz), Strengths(rx, rxp, ry, ry, rz, rz))
            value, criterion, angles = per_branch_tstate_reference(s1, s2, rx, rxp, ry, rz)
            assert report.bound_value == value, i
            assert (report.criterion, report.achieving_angles) == (criterion, angles), i

    def test_mixed_branch_reduces_to_equal_strengths(self):
        rng = np.random.default_rng(14)
        t = random_t(rng)
        r = 0.8
        a = svetlichny_bound_x_asymmetric(*_t_svals(t), r, r, 0.7, 0.6, "mixed").bound_value
        b = svetlichny_bound_equal_strengths(t, r, 0.7, 0.6).bound_value
        assert abs(a - b) < 1e-12

    def test_orthogonal_branch_ghz(self):
        value = svetlichny_bound_x_asymmetric(*_t_svals(ghz_t()), 1.0, 0.0, 1.0, 1.0,
                                              "orthogonal").bound_value
        assert abs(value - 2.0 * ROOT2) < 1e-12

    def test_parallel_branch_ghz(self):
        report = svetlichny_bound_x_asymmetric(*_t_svals(ghz_t()), 1.0, 1.0, 1.0, 1.0, "parallel")
        assert abs(report.bound_value - 4.0 * ROOT2) < 1e-12
        assert report.achieving_angles[0] == 0.0
        assert report.achieving_angles[1] == 0.0  # sin ty sin tz = 0 here

    def test_parallel_requires_degeneracy(self):
        t = np.zeros((3, 9))
        t[0, 0], t[1, 4] = 1.0, 0.4
        with pytest.raises(ValueError, match="degenerate"):
            svetlichny_bound_x_asymmetric(*_t_svals(t), 0.9, 0.5, 1.0, 1.0, "parallel")

    def test_branch_values_dominate_bound_at_branch_angles(self):
        rng = np.random.default_rng(15)
        for _ in range(50):
            rx, rxp = sorted(rng.uniform(0.1, 1, 2), reverse=True)
            ry, rz = rng.uniform(0.1, 1, 2)
            st = Strengths(rx, rxp, ry, ry, rz, rz)
            t = random_t(rng)
            for branch in ("orthogonal", "mixed"):
                report = svetlichny_bound_x_asymmetric(*_t_svals(t), rx, rxp, ry, rz, branch)
                value_at = bound_at("svetlichny", t, st, report.achieving_angles)
                assert value_at <= report.bound_value + 1e-9

    def test_best_aggregator(self):
        rng = np.random.default_rng(16)
        t = random_t(rng)
        best = svetlichny_bound_x_asymmetric_best(*_t_svals(t), 0.9, 0.4, 0.8, 0.7)
        values = [svetlichny_bound_x_asymmetric(*_t_svals(t), 0.9, 0.4, 0.8, 0.7, b).bound_value
                  for b in ("orthogonal", "mixed")]
        assert best.bound_value == max(values)


class TestDegenerateSmax:
    def test_unit_strengths(self):
        value = svetlichny_bound_degenerate_smax(Strengths.uniform(1.0), 0.8).bound_value
        assert abs(value - 4.0 * 0.8) < 1e-12

    def test_zero_strengths(self):
        assert svetlichny_bound_degenerate_smax(Strengths.uniform(0.0), 1.0).bound_value == 0.0
        v = SVETLICHNY.plus_bias_max(svetlichny_bound_degenerate_smax(Strengths.uniform(0.0), 1.0),
                                     Strengths.uniform(0.0))
        assert v.bound_value == 4.0

    def test_dominates_bound_in_fixed_x_scope(self):
        # the optimization fixes sin(tx) = 0; within that scope the value
        # dominates the general bound for degenerate tensors
        rng = np.random.default_rng(17)
        for _ in range(100):
            st = random_strengths(rng)
            value = svetlichny_bound_degenerate_smax(st, 1.0).bound_value
            for tx in (0.0, np.pi):
                for _ in range(10):
                    ang = (tx, rng.uniform(0, np.pi), rng.uniform(0, np.pi))
                    jp, jm = j_plus_minus(st, ang)
                    assert jp <= value + 1e-9
