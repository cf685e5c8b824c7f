"""Svetlichny bound and criterion tests."""

import itertools

import numpy as np
import pytest

from bell3q import (Strengths, build_w_matrix, j_plus_minus, l_max,
                    svetlichny_bound_degenerate_smax, svetlichny_bound_equal_strengths,
                    svetlichny_bound_x_asymmetric, svetlichny_sufficient_orthogonal)
from bell3q.mermin import _degenerate, _t_svals
from bell3q.observables import OPERATORS
from bell3q.svetlichny import (equal_strength_angles_svetlichny,
                               svetlichny_bound_x_asymmetric_best)

SVETLICHNY = OPERATORS["svetlichny"]
ORTH = (np.pi / 2, np.pi / 2, np.pi / 2)
ROOT2 = np.sqrt(2.0)


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
    return SVETLICHNY.unbiased(*_t_svals(t), strengths, angles).bound_value


class TestWMatrix:
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

    def test_zero_strengths(self):
        rng = np.random.default_rng(0)
        w = build_w_matrix(Strengths.uniform(0.0), rng.uniform(0, np.pi, 3))
        np.testing.assert_allclose(w, 0.0)

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

    def test_third_singular_value_structurally_zero(self):
        rng = np.random.default_rng(2)
        for _ in range(50):
            w = build_w_matrix(random_strengths(rng), rng.uniform(0, np.pi, 3))
            assert np.all(w[2] == 0.0)
            assert np.linalg.svd(w, compute_uv=False)[2] < 1e-14


class TestJPlusMinus:
    def test_unit_strengths_orthogonal(self):
        jp, jm = j_plus_minus(Strengths.uniform(1.0), ORTH)
        assert abs(jp - 4.0) < 1e-12
        assert abs(jm) < 1e-12

    def test_zero_strengths(self):
        assert j_plus_minus(Strengths.uniform(0.0), ORTH) == (0.0, 0.0)

    def test_matches_svd_of_w(self):
        rng = np.random.default_rng(3)
        for _ in range(1000):
            st = random_strengths(rng)
            ang = tuple(rng.uniform(0, np.pi, 3))
            sv = np.linalg.svd(build_w_matrix(st, ang), compute_uv=False)
            jp, jm = j_plus_minus(st, ang)
            assert abs(jp - (sv[0] + sv[1])) < 1e-10
            assert abs(jm - (sv[0] - sv[1])) < 1e-10

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


class TestUnbiasedBound:
    def test_ghz_sharp_at_optimal_angles(self):
        angles = equal_strength_angles_svetlichny(ROOT2, ROOT2)
        assert abs(bound_at(ghz_t(), Strengths.uniform(1.0), angles)
                   - 4.0 * ROOT2) < 1e-9

    def test_zero_cases(self):
        rng = np.random.default_rng(5)
        ang = tuple(rng.uniform(0, np.pi, 3))
        assert bound_at(random_t(rng), Strengths.uniform(0.0), ang) == 0.0
        assert bound_at(np.zeros((3, 9)), random_strengths(rng), ang) == 0.0

    def test_equals_singular_value_pairing(self):
        rng = np.random.default_rng(6)
        for _ in range(100):
            t = random_t(rng)
            st = random_strengths(rng)
            ang = tuple(rng.uniform(0, np.pi, 3))
            sv_t = np.linalg.svd(t, compute_uv=False)
            sv_w = np.linalg.svd(build_w_matrix(st, ang), compute_uv=False)
            assert abs(bound_at(t, st, ang) - (sv_t[:2] @ sv_w[:2])) < 1e-10


class TestEqualStrengths:
    def test_ghz_unit(self):
        report = svetlichny_bound_equal_strengths(ghz_t(), 1.0, 1.0, 1.0)
        assert abs(report.bound_value - 4.0 * ROOT2) < 1e-12
        np.testing.assert_allclose(report.achieving_angles, ORTH, atol=1e-12)

    def test_zero(self):
        assert svetlichny_bound_equal_strengths(ghz_t(), 0, 0, 0).bound_value == 0.0

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
            assert abs(bound_at(t, st, ang1) - value) < 1e-10
            # family 2: sin tx = 2 s1 s2/(s1^2+s2^2), cos ty cos tz = 0
            tx = np.arcsin(np.clip(2 * s1 * s2 / (s1**2 + s2**2), 0, 1))
            ang2 = (tx, np.pi / 2, rng.uniform(0, np.pi))
            assert abs(bound_at(t, st, ang2) - value) < 1e-10


class TestSufficientOrthogonal:
    def test_ghz_unit(self):
        r = svetlichny_sufficient_orthogonal(*_t_svals(ghz_t()), Strengths.uniform(1.0))
        value, violated = r.bound_value, r.bound_value > SVETLICHNY.classical_limit
        assert abs(value - 4.0 * ROOT2) < 1e-12
        assert violated

    def test_zero(self):
        r = svetlichny_sufficient_orthogonal(*_t_svals(ghz_t()), Strengths.uniform(0.0))
        value, violated = r.bound_value, r.bound_value > SVETLICHNY.classical_limit
        assert value == 0.0 and not violated

    def test_equals_general_bound_at_orthogonal_angles(self):
        rng = np.random.default_rng(9)
        for _ in range(100):
            t = random_t(rng)
            st = random_strengths(rng)
            value = svetlichny_sufficient_orthogonal(*_t_svals(t), st).bound_value
            assert abs(value - bound_at(t, st, ORTH)) < 1e-10


class TestSixVariant:
    def test_equal_strengths_reduce_exactly(self):
        rng = np.random.default_rng(10)
        for _ in range(50):
            t = random_t(rng)
            st = Strengths.equal(*rng.uniform(0, 1, 3))
            ang = tuple(rng.uniform(0, np.pi, 3))
            tilde = SVETLICHNY.six_variant(*_t_svals(t), st, ang).bound_value
            assert abs(tilde - bound_at(t, st, ang)) < 1e-12

    def test_zero(self):
        r = SVETLICHNY.six_variant(*_t_svals(ghz_t()), Strengths.uniform(0.0), ORTH)
        value, violated = r.bound_value, r.bound_value > SVETLICHNY.classical_limit
        assert value == 0.0 and not violated

    def test_dominates_base_bound(self):
        rng = np.random.default_rng(11)
        for _ in range(100):
            t = random_t(rng)
            st = random_strengths(rng)
            ang = tuple(rng.uniform(0, np.pi, 3))
            tilde = SVETLICHNY.six_variant(*_t_svals(t), st, ang).bound_value
            assert tilde >= bound_at(t, st, ang) - 1e-12


    def test_dominates_exchanged_operator_values(self, held_variant_values):
        # unequal strengths on every party: each exchanged operator's value at
        # random settings, and at the settings a see-saw held at their angles
        # reaches, stays below the criterion at those angles
        from bell3q import (ThreeQubitState, decompose, random_state, variant_expectations)
        from bell3q.observables import GeneralObservable, MeasurementSetting

        rng = np.random.default_rng(12)
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
            tilde = SVETLICHNY.six_variant(*_t_svals(d.t_matrix), st, angles).bound_value
            values = [abs(v) for v in variant_expectations(d, setting, "svetlichny")]
            if trial < 3:
                values += held_variant_values(d, st, "svetlichny", angles)
            assert max(values) <= tilde + 1e-9
        d = decompose(random_state(79))
        st, angles = Strengths(0.7, 0.21, 0.37, 0.16, 0.64, 0.17), (0.72, 1.41, 1.42)
        tilde = SVETLICHNY.six_variant(*_t_svals(d.t_matrix), st, angles).bound_value
        assert max(held_variant_values(d, st, "svetlichny", angles)) <= tilde + 1e-9


class TestLMax:
    def brute(self, st):
        bars = st.bars
        best = 0.0
        for signs in itertools.product((1, -1), repeat=6):
            bx, bxp, by, byp, bz, bzp = (s * b for s, b in zip(signs, bars))
            best = max(best, abs((bx * by - bxp * byp) * (bz + bzp)
                                 + (bx * byp + bxp * by) * (bz - bzp)))
        return best

    def test_unit_strengths(self):
        assert l_max(Strengths.uniform(1.0)) == 0.0

    def test_zero_strengths(self):
        assert l_max(Strengths.uniform(0.0)) == 4.0

    def test_equal_strengths_closed_form(self):
        for r in (0.0, 0.25, 0.8, 1.0):
            assert abs(l_max(Strengths.uniform(r)) - 4 * (1 - r) ** 3) < 1e-14

    def test_matches_brute_force_on_500_draws(self):
        rng = np.random.default_rng(12)
        for _ in range(500):
            st = random_strengths(rng)
            assert abs(l_max(st) - self.brute(st)) <= 1e-12

    def test_range(self):
        rng = np.random.default_rng(13)
        for _ in range(200):
            v = l_max(random_strengths(rng))
            assert 0.0 <= v <= 4.0 + 1e-12


class TestTstateBound:
    def test_unit_strengths_reduce_to_unbiased(self):
        st = Strengths.uniform(1.0)
        assert (SVETLICHNY.tstate(*_t_svals(ghz_t()), st, ORTH).bound_value
                == bound_at(ghz_t(), st, ORTH))

    def test_zero_strengths_exactly_four(self):
        st = Strengths.uniform(0.0)
        assert SVETLICHNY.tstate(*_t_svals(ghz_t()), st, ORTH).bound_value == 4.0

    def test_equal_strength_value(self):
        r = 0.95
        st = Strengths.uniform(r)
        value = SVETLICHNY.tstate(*_t_svals(ghz_t()), st, ORTH).bound_value
        assert abs(value - (2 * ROOT2 * r**3 * 2 + 4 * (1 - r) ** 3)) < 1e-12

    def test_rejects_non_tstate_decomposition(self):
        from bell3q import decompose, ghz_state
        with pytest.raises(ValueError, match="T-state"):
            SVETLICHNY.tstate(*_t_svals(ghz_t()), Strengths.uniform(0.5), ORTH,
                      decomp=decompose(ghz_state()))


class TestBiasedWindow:
    def test_ghz_values(self):
        ru, rb = SVETLICHNY.biased_window(2.0)
        assert abs(ru - 2.0 ** (-1.0 / 6.0)) < 1e-12
        expected_rb = (-3.0 + np.sqrt(3.0) * np.sqrt(2.0 * ROOT2 * 2.0 - 1.0)) \
            / (ROOT2 * (2.0 - ROOT2))
        assert abs(rb - expected_rb) < 1e-12
        assert rb < ru

    def test_boundary_rejected(self):
        with pytest.raises(ValueError):
            SVETLICHNY.biased_window(ROOT2)

    def test_nan_rejected(self):
        with pytest.raises(ValueError, match="window requires"):
            SVETLICHNY.biased_window(float("nan"))

    def test_p_one_point_five(self):
        ru, rb = SVETLICHNY.biased_window(1.5)
        assert rb < ru

    def test_thresholds_are_exact_roots(self):
        for p in (1.5, 2.0, 3.0):
            ru, rb = SVETLICHNY.biased_window(p)
            assert abs(2 * ROOT2 * p * ru**3 - 4.0) < 1e-10
            assert abs(2 * ROOT2 * p * rb**3 + 4 * (1 - rb) ** 3 - 4.0) < 1e-10

    def test_window_property(self):
        for p in (1.5, 2.0):
            ru, rb = SVETLICHNY.biased_window(p)
            mid = 0.5 * (rb + ru)
            assert 2 * ROOT2 * mid**3 * p <= 4.0
            assert 2 * ROOT2 * mid**3 * p + 4 * (1 - mid) ** 3 > 4.0


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
                value_at = bound_at(t, st, report.achieving_angles)
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
