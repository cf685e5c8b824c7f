"""Acceptance suite: every top-level criterion at its stated tolerance.

Each test prints one pass/fail line.  Tolerances and instance budgets are
pinned here; nothing is deferred to later calibration.
"""

import time

import numpy as np

from bell3q import (SeeSawConfig, Strengths, ThreeQubitState, decompose,
                    decomposition_from_t, ghz_state, i_plus_minus, j_plus_minus,
                    k_max, l_max, mermin_bound_equal_strengths, mermin_bound_unbiased,
                    mermin_expectation, see_saw_maximize, svetlichny_bound_equal_strengths,
                    svetlichny_expectation, white_noise_mix)
from bell3q.mermin import _t_svals, build_v_matrix, equal_strength_angles
from bell3q.observables import OPERATORS
from bell3q.suites import saturable_tensor
from bell3q.svetlichny import build_w_matrix, equal_strength_angles_svetlichny

from references import (ROOT2, bias_max_brute, ghz_t, kron3, random_density, random_setting,
                        random_su2)


def report(num, passed, detail):
    status = "PASS" if passed else "FAIL"
    print(f"[criterion {num:2d}] {status}: {detail}")
    assert passed, detail


def test_criterion_1_ghz_sharp_mermin_maximum():
    start = time.perf_counter()
    t = ghz_t()
    bound = mermin_bound_equal_strengths(t, 1.0, 1.0, 1.0).bound_value
    oracle = see_saw_maximize(decomposition_from_t(t), Strengths.uniform(1.0),
                              np.zeros(6), "mermin",
                              SeeSawConfig(restarts=20, seed=101))
    elapsed = time.perf_counter() - start
    dev = max(abs(bound - 4.0), abs(oracle.value - 4.0))
    report(1, dev < 1e-6 and elapsed < 5.0,
           f"GHZ sharp Mermin: bound {bound:.9f}, see-saw {oracle.value:.9f}, "
           f"target 4 (dev {dev:.2e}, {elapsed:.2f}s)")


def test_criterion_2_ghz_sharp_svetlichny_maximum():
    start = time.perf_counter()
    t = ghz_t()
    target = 4.0 * ROOT2
    bound = svetlichny_bound_equal_strengths(t, 1.0, 1.0, 1.0).bound_value
    oracle = see_saw_maximize(decomposition_from_t(t), Strengths.uniform(1.0),
                              np.zeros(6), "svetlichny",
                              SeeSawConfig(restarts=20, seed=102))
    elapsed = time.perf_counter() - start
    dev = max(abs(bound - target), abs(oracle.value - target))
    report(2, dev < 1e-6 and elapsed < 5.0,
           f"GHZ sharp Svetlichny: bound {bound:.9f}, see-saw {oracle.value:.9f}, "
           f"target {target:.9f} (dev {dev:.2e}, {elapsed:.2f}s)")


def test_criterion_3_closed_form_identity_suite():
    start = time.perf_counter()
    rng = np.random.default_rng(103)
    worst = 0.0
    for _ in range(1000):
        st = Strengths.from_iterable(rng.uniform(0, 1, 6))
        ang = tuple(rng.uniform(0, np.pi, 3))
        sv = np.linalg.svd(build_v_matrix(st, ang), compute_uv=False)
        ip, im = i_plus_minus(st, ang)
        worst = max(worst, abs(ip - (sv[0] + sv[1])), abs(im - (sv[0] - sv[1])))
        sw = np.linalg.svd(build_w_matrix(st, ang), compute_uv=False)
        jp, jm = j_plus_minus(st, ang)
        worst = max(worst, abs(jp - (sw[0] + sw[1])), abs(jm - (sw[0] - sw[1])))
    elapsed = time.perf_counter() - start
    report(3, worst < 1e-10 and elapsed < 10.0,
           f"closed-form I/J identities on 1000 draws: max |closed - svd| "
           f"{worst:.2e} (limit 1e-10, {elapsed:.2f}s)")


def test_criterion_4_kmax_lmax_brute_force():
    start = time.perf_counter()
    rng = np.random.default_rng(104)
    worst = 0.0
    for _ in range(500):
        st = Strengths.from_iterable(rng.uniform(0, 1, 6))
        worst = max(worst, abs(k_max(st) - bias_max_brute("mermin", st)),
                    abs(l_max(st) - bias_max_brute("svetlichny", st)))
    elapsed = time.perf_counter() - start
    report(4, worst <= 1e-12 and elapsed < 5.0,
           f"bias maxima vs 64-pattern enumeration on 500 draws: max dev "
           f"{worst:.2e} (limit 1e-12, {elapsed:.2f}s)")


def test_criterion_5_biased_only_windows():
    start = time.perf_counter()
    p = 2.0
    ru_m, rb_m = OPERATORS["mermin"].biased_window(p)
    dev_m = max(abs(ru_m - 2.0 ** (-1 / 3)), abs(rb_m - (-3 + np.sqrt(21)) / 2))

    ru_s, rb_s = OPERATORS["svetlichny"].biased_window(p)
    rb_s_closed = (-3 + np.sqrt(3) * np.sqrt(2 * ROOT2 * p - 1)) / (ROOT2 * (p - ROOT2))
    dev_s = max(abs(ru_s - 2.0 ** (-1 / 6)), abs(rb_s - rb_s_closed))
    # both biased thresholds must be exact roots of their defining equations
    root_dev = max(abs(2 * p * rb_m**3 + 2 * (1 - rb_m) ** 3 - 2.0),
                   abs(2 * ROOT2 * p * rb_s**3 + 4 * (1 - rb_s) ** 3 - 4.0))

    mid_m = 0.5 * (rb_m + ru_m)
    mid_s = 0.5 * (rb_s + ru_s)
    window_ok = (2 * mid_m**3 * p <= 2.0 < 2 * mid_m**3 * p + 2 * (1 - mid_m) ** 3
                 and 2 * ROOT2 * mid_s**3 * p <= 4.0
                 < 2 * ROOT2 * mid_s**3 * p + 4 * (1 - mid_s) ** 3)
    elapsed = time.perf_counter() - start
    report(5, dev_m < 1e-9 and dev_s < 1e-9 and root_dev < 1e-9 and window_ok
           and elapsed < 1.0,
           f"biased-only windows at P=2: mermin ({rb_m:.9f}, {ru_m:.9f}), "
           f"svetlichny ({rb_s:.9f}, {ru_s:.9f}); closed-form dev "
           f"{max(dev_m, dev_s):.2e}, threshold-root dev {root_dev:.2e}, "
           f"midpoint separation holds ({elapsed:.2f}s)")


def test_criterion_6_tightness_on_alignment_compatible_tensors():
    # tensors are drawn so that a product rotation aligns their top right
    # singular pair with the coefficient matrix's: the regime in which the
    # equal-strength bounds are attainable
    start = time.perf_counter()
    rng = np.random.default_rng(106)
    worst = 0.0
    for i in range(50):
        r = rng.uniform(0.3, 1.0, 3)
        st = Strengths.equal(*r)
        s1 = rng.uniform(0.3, 1.0)
        s2 = rng.uniform(0.1, s1)
        s3 = rng.uniform(0.0, s2)

        ang_m = equal_strength_angles(s1, s2)
        t_m = saturable_tensor(rng, build_v_matrix(st, ang_m), s1, s2, s3)
        bound_m = mermin_bound_equal_strengths(t_m, *r).bound_value
        res_m = see_saw_maximize(decomposition_from_t(t_m.reshape(3, 3, 3)), st,
                                 np.zeros(6), "mermin",
                                 SeeSawConfig(restarts=50, seed=10600 + i,
                                              angle_constraints=ang_m))
        worst = max(worst, abs(bound_m - res_m.value))

        ang_s = equal_strength_angles_svetlichny(s1, s2)
        t_s = saturable_tensor(rng, build_w_matrix(st, ang_s), s1, s2, s3)
        bound_s = svetlichny_bound_equal_strengths(t_s, *r).bound_value
        res_s = see_saw_maximize(decomposition_from_t(t_s.reshape(3, 3, 3)), st,
                                 np.zeros(6), "svetlichny",
                                 SeeSawConfig(restarts=50, seed=10650 + i,
                                              angle_constraints=ang_s))
        worst = max(worst, abs(bound_s - res_s.value))
    elapsed = time.perf_counter() - start
    report(6, worst < 1e-4 and elapsed < 60.0,
           f"constrained see-saw reaches equal-strength bounds on 50 "
           f"alignment-compatible tensors per operator: max gap {worst:.2e} "
           f"(limit 1e-4, {elapsed:.1f}s)")


def test_criterion_7_soundness_sweep():
    start = time.perf_counter()
    rng = np.random.default_rng(107)
    worst = -np.inf
    for _ in range(200):
        d = decompose(ThreeQubitState(random_density(rng)))
        setting = random_setting(rng, unbiased=True)
        st = Strengths.from_iterable(setting.strengths_array)
        angles = setting.relative_angles
        m_bound = mermin_bound_unbiased(d.t_matrix, st, angles).bound_value
        s_bound = OPERATORS["svetlichny"].unbiased(*_t_svals(d.t_matrix), st,
                                                   angles).bound_value
        worst = max(worst,
                    abs(mermin_expectation(d, setting)) - m_bound,
                    abs(svetlichny_expectation(d, setting)) - s_bound)
    elapsed = time.perf_counter() - start
    report(7, worst <= 1e-9 and elapsed < 30.0,
           f"soundness on 200 random states and settings: max (|expectation| "
           f"- bound) = {worst:.2e} (limit 1e-9, {elapsed:.1f}s)")


def test_criterion_8_sharp_limit_reductions():
    start = time.perf_counter()
    rng = np.random.default_rng(108)
    worst = 0.0
    for _ in range(100):
        t = rng.normal(size=(3, 9))
        t /= np.linalg.svd(t, compute_uv=False)[0] / rng.uniform(0.5, 1.4)
        s = np.linalg.svd(t, compute_uv=False)
        hyp = np.hypot(s[0], s[1])
        m = mermin_bound_equal_strengths(t, 1.0, 1.0, 1.0).bound_value
        v = svetlichny_bound_equal_strengths(t, 1.0, 1.0, 1.0).bound_value
        worst = max(worst, abs(m - 2.0 * hyp), abs(v - 2.0 * ROOT2 * hyp))
    elapsed = time.perf_counter() - start
    report(8, worst < 1e-10,
           f"sharp-limit reductions on 100 tensors: max dev {worst:.2e} "
           f"(limit 1e-10, {elapsed:.2f}s)")


def test_criterion_9_local_unitary_invariance():
    start = time.perf_counter()
    rng = np.random.default_rng(109)
    worst = 0.0
    for _ in range(100):
        rho = random_density(rng)
        u = kron3(random_su2(rng), random_su2(rng), random_su2(rng))
        st = Strengths.from_iterable(rng.uniform(0, 1, 6))
        ang = tuple(rng.uniform(0, np.pi, 3))
        t_a = decompose(ThreeQubitState(rho)).t_matrix
        t_b = decompose(ThreeQubitState(u @ rho @ u.conj().T)).t_matrix
        worst = max(worst,
                    abs(mermin_bound_unbiased(t_a, st, ang).bound_value
                        - mermin_bound_unbiased(t_b, st, ang).bound_value),
                    abs(OPERATORS["svetlichny"].unbiased(*_t_svals(t_a), st, ang).bound_value
                        - OPERATORS["svetlichny"].unbiased(*_t_svals(t_b), st,
                                                           ang).bound_value))
    elapsed = time.perf_counter() - start
    report(9, worst < 1e-9,
           f"local-unitary invariance on 100 states: max bound shift {worst:.2e} "
           f"(limit 1e-9, {elapsed:.1f}s)")


def test_criterion_10_visibility_scaling():
    start = time.perf_counter()
    base = ghz_state()
    worst = 0.0
    for v in np.linspace(0.0, 1.0, 21):
        t = decompose(white_noise_mix(base, float(v))).t_matrix
        bound = mermin_bound_equal_strengths(t, 1.0, 1.0, 1.0).bound_value
        worst = max(worst, abs(bound - 4.0 * v))
    t_half = decompose(white_noise_mix(base, 0.5)).t_matrix
    crossing = mermin_bound_equal_strengths(t_half, 1.0, 1.0, 1.0).bound_value
    worst = max(worst, abs(crossing - 2.0))
    elapsed = time.perf_counter() - start
    report(10, worst < 1e-9,
           f"white-noise GHZ sharp Mermin bound is 4v, crossing 2 at v=0.5: "
           f"max dev {worst:.2e} (limit 1e-9, {elapsed:.2f}s)")
