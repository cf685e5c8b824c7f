"""Oracle tests: see-saw, bias optimization, attainability of the pairing bound."""

import itertools

import numpy as np
import pytest

from bell3q import (CorrelationDecomposition, SeeSawConfig, Strengths, ThreeQubitState,
                    bias_optimize, decompose, decomposition_from_t, ghz_state,
                    mermin_bound_equal_strengths, mermin_bound_unbiased, mermin_expectation,
                    see_saw_maximize, svetlichny_bound_equal_strengths, svetlichny_expectation)
from bell3q.mermin import _t_svals, build_v_matrix, equal_strength_angles
from bell3q.observables import OPERATORS
from bell3q.oracle import (_POLISH_FROM, _Objective, _initial_directions, _newton_step,
                           _rotate, _rotations_for, _run_seesaw, _tied_rotations,
                           _update_pair)
from bell3q.svetlichny import build_w_matrix, equal_strength_angles_svetlichny
from bell3q.suites import saturable_tensor

from test_observables import dense_triple, random_density

ORTH = (np.pi / 2, np.pi / 2, np.pi / 2)
ROOT2 = np.sqrt(2.0)
EXPECTATIONS = {"mermin": mermin_expectation, "svetlichny": svetlichny_expectation}


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
    @staticmethod
    def generator_directions(seed, restarts):
        """The reference draw: one default_rng(seed) stream, row r restart r's."""
        u, v = np.random.default_rng(seed).uniform(size=(restarts, 2, 6)).transpose(1, 0, 2)
        ct, phi = 2.0 * u - 1.0, 2.0 * np.pi * v
        st = np.sqrt(np.maximum(1.0 - ct * ct, 0.0))
        return np.stack([st * np.cos(phi), st * np.sin(phi), ct], axis=-1)

    @pytest.mark.parametrize("seed", [0, 1, 2**31 - 1, 2**32 - 3, 2**40, 2**130])
    @pytest.mark.parametrize("restarts", [1, 8])
    def test_initial_directions_use_each_restarts_generator(self, seed, restarts):
        np.testing.assert_array_equal(_initial_directions(seed, restarts),
                                      self.generator_directions(seed, restarts))

    @pytest.mark.parametrize("seed", [0, 7, 2**40])
    def test_a_restarts_start_does_not_depend_on_the_count(self, seed):
        np.testing.assert_array_equal(_initial_directions(seed, 3),
                                      _initial_directions(seed, 8)[:3])

    @pytest.mark.parametrize("seed", [0, 5, 2**31 - 1])
    def test_neighbouring_seeds_share_no_start(self, seed):
        first, second = _initial_directions(seed, 20), _initial_directions(seed + 1, 20)
        shared = (first[:, None] == second[None]).all(axis=(2, 3))
        assert not shared.any()

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

    def test_nan_biases_are_rejected(self):
        with pytest.raises(ValueError, match="bias"):
            see_saw_maximize(mixed_decomp(), Strengths.uniform(0.9),
                             np.full(6, np.nan), "mermin", SeeSawConfig(restarts=1))

    def test_config_validation(self):
        with pytest.raises(ValueError):
            SeeSawConfig(restarts=0)
        with pytest.raises(ValueError):
            SeeSawConfig(convergence_tol=1e-16)

    @pytest.mark.parametrize("name, value", [("seed", -1), ("seed", 1.5), ("seed", np.float64(3.0)),
                                             ("restarts", 2.5), ("restarts", True),
                                             ("max_sweeps", 2.5)])
    def test_counts_must_be_non_negative_integers(self, name, value):
        with pytest.raises(ValueError, match=name):
            SeeSawConfig(**{name: value})

    def test_numpy_integer_counts_are_kept(self):
        cfg = SeeSawConfig(restarts=np.int64(2), max_sweeps=np.int32(3), seed=np.uint32(4))
        result = see_saw_maximize(decompose(ghz_state()), Strengths.uniform(0.8),
                                  np.zeros(6), "mermin", cfg)
        assert result.value > 0.0 and result.sweeps <= 3

    def test_nan_convergence_tol_is_rejected(self):
        with pytest.raises(ValueError, match="convergence_tol"):
            SeeSawConfig(convergence_tol=float("nan"))

    @pytest.mark.parametrize("angles", [(1.0, 1.0), (1.0, 1.0, 1.0, 1.0), (np.nan, 1.0, 1.0),
                                        (1.0, None, np.inf), ("1", None, None),
                                        (4.0, None, None), (None, -1.0, None)])
    def test_bad_angle_constraints_are_rejected(self, angles):
        with pytest.raises(ValueError, match="angle_constraints"):
            SeeSawConfig(angle_constraints=angles)

    @pytest.mark.parametrize("angles", [None, (None, None, None),
                                        (0, np.float64(1.5), np.pi),
                                        (np.pi + 5e-13, None, None)])
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


def mirrored_reference(decomp, strengths, kind, config):
    """The replaced zero-bias batch, kept as a reference: rows k and
    restarts + k climb +-<operator> from restart k's directions, and the bias
    oracle takes the extreme pattern whose K has the sign of the best row.

    Returns (see-saw value, bias-oracle value, best row, its directions,
    sweeps, hit_max).
    """
    r, signs, n = strengths.as_array(), OPERATORS[kind].signs, config.restarts
    init = _initial_directions(config.seed, n)
    d = np.concatenate([init, init])
    objective = _Objective(decomp, r, np.zeros(6), signs, np.repeat([1.0, -1.0], n))
    values, sweeps, hit_max, _ = _run_seesaw(objective, d, config)
    best = int(np.argmax(values))
    patterns = np.array(list(itertools.product((1.0, -1.0), repeat=6))) * strengths.bars
    x, y, z = patterns.reshape(64, 3, 2).transpose(1, 0, 2)
    k = np.einsum("abc,pa,pb,pc->p", signs, x, y, z)
    b = patterns[np.argmax(k if best < n else -k)]
    biased = _Objective(decomp, r, b, signs, np.ones(2 * n)).value(d)[best]
    return float(values[best]), abs(float(biased)), best, d[best], sweeps, hit_max


def directions(setting):
    return np.array([obs.direction for obs in setting.observables])


class TestOneClimbPerRestart:
    """At zero biases the see-saw climbs +<operator> only; the replaced
    doubled batch, which also climbed -<operator>, gives the same results."""

    def cases(self, held):
        rng = np.random.default_rng(47)
        for _ in range(2):
            t = rng.normal(size=(3, 3, 3))
            st = Strengths.from_iterable(rng.uniform(0.2, 1.0, 6))
            angles = tuple(rng.uniform(0.0, np.pi, 3)) if held else None
            yield decomposition_from_t(t / np.abs(t).max()), st, angles
        yield mixed_decomp(), Strengths.uniform(0.6), ORTH if held else None
        if held:
            for angles in ((0.0, np.pi / 2, np.pi), (0.0, 0.0, 0.0)):
                yield decomposition_from_t(ghz_t3()), Strengths.uniform(0.8), angles

    def assert_same(self, decomp, st, kind, cfg):
        value, biased_value, best, best_dirs, sweeps, hit_max = mirrored_reference(
            decomp, st, kind, cfg)
        assert best < cfg.restarts
        plain = see_saw_maximize(decomp, st, np.zeros(6), kind, cfg)
        biased = bias_optimize(decomp, st, kind, cfg)
        assert (plain.value, biased.value) == (value, biased_value)
        for result in (plain, biased):
            np.testing.assert_array_equal(directions(result.setting), best_dirs)
            assert (result.sweeps, result.hit_max_sweeps) == (sweeps, hit_max)

    @pytest.mark.parametrize("kind", ["mermin", "svetlichny"])
    @pytest.mark.parametrize("held", [False, True])
    @pytest.mark.parametrize("restarts", [2, 5, 20])
    def test_matches_the_mirrored_batch(self, kind, held, restarts):
        for decomp, st, angles in self.cases(held):
            self.assert_same(decomp, st, kind,
                             SeeSawConfig(restarts=restarts, seed=restarts,
                                          angle_constraints=angles))

    @pytest.mark.parametrize("kind", ["mermin", "svetlichny"])
    @pytest.mark.parametrize("held", [False, True])
    def test_one_restart_matches_to_rounding(self, kind, held):
        # a one-row batch takes another BLAS path, so only the values are compared
        for decomp, st, angles in self.cases(held):
            cfg = SeeSawConfig(restarts=1, seed=3, angle_constraints=angles)
            value, biased_value, *_ = mirrored_reference(decomp, st, kind, cfg)
            plain = see_saw_maximize(decomp, st, np.zeros(6), kind, cfg)
            biased = bias_optimize(decomp, st, kind, cfg)
            np.testing.assert_allclose([plain.value, biased.value], [value, biased_value],
                                       rtol=1e-12, atol=1e-300)

    def test_zero_tensor_stops_at_the_first_newton_sweep(self):
        # no sweep can improve, and no sweep before the first Newton step is
        # taken as converged, so a lower cap always ends at the cap
        result = see_saw_maximize(mixed_decomp(), Strengths.uniform(0.6), np.zeros(6),
                                  "mermin", SeeSawConfig(restarts=3))
        assert (result.value, result.sweeps, result.hit_max_sweeps) == (0.0, _POLISH_FROM, False)
        result = see_saw_maximize(mixed_decomp(), Strengths.uniform(0.6), np.zeros(6),
                                  "mermin", SeeSawConfig(restarts=3, max_sweeps=_POLISH_FROM - 1))
        assert (result.sweeps, result.hit_max_sweeps) == (_POLISH_FROM - 1, True)

    def test_nonzero_biases_climb_both_signs(self):
        # mermin on GHZ correlations at biases -(1 - R): K = 2 (R - 1)^3 < 0, so
        # the maximum max A + |K| sits at a negative expectation
        d = decomposition_from_t(ghz_t3())
        st = Strengths.uniform(0.8)
        biases = -st.bars
        cfg = SeeSawConfig(restarts=4, seed=21, record_trace=True)
        k = 2.0 * (-0.2) ** 3
        a_max = see_saw_maximize(d, st, np.zeros(6), "mermin", cfg).value
        result = see_saw_maximize(d, st, biases, "mermin", cfg)
        assert abs(result.value - (a_max + abs(k))) < 1e-12
        assert mermin_expectation(d, result.setting) < 0.0
        assert result.trace.shape == (result.sweeps + 1, 2 * cfg.restarts)

    def test_held_climb_is_not_stopped_by_its_first_sweep(self):
        # the first sweep moves the held pairs onto their angles and lowers this
        # climb's value; taken as converged there, it would stop 70 % low
        rng = np.random.default_rng(2026)
        for i in range(18):
            t = rng.normal(size=(3, 3, 3))
            d = decomposition_from_t(t / np.abs(t).max())
            st = Strengths.from_iterable(rng.uniform(0.2, 1.0, 6))
            angles = tuple(rng.uniform(0.0, np.pi, 3))
        cfg = SeeSawConfig(restarts=1, seed=17, angle_constraints=angles, record_trace=True)
        result = see_saw_maximize(d, st, np.zeros(6), "svetlichny", cfg)
        assert result.trace[1, 0] < result.trace[0, 0]
        assert result.sweeps > 1
        assert abs(result.value - 1.1257726719309988) <= 1e-12 * 1.1257726719309988

    def test_crawling_climb_is_not_stopped_before_its_newton_step(self):
        # s2/s1 = 0.9978: the alternating passes gain less than convergence_tol
        # a sweep while 1.8e-10 short, and stopped there at sweep 5
        t = np.array([
            0.09800941895062522, -0.10806677189005444, 0.15733023210414393,
            0.08455271590874078, -0.06716384853932533, -0.030623536898457846,
            0.10950569507867576, -0.07143606328255551, -0.15196988353648577,
            -0.11900274044419189, 0.08360082192827929, 0.14157328195939897,
            0.009079360196295428, -0.03010070793212166, 0.1031283368824361,
            0.10241351099169119, -0.10259082790236414, 0.12378937623550348,
            0.0590214964952663, -0.037305712467503215, -0.03195853910056008,
            -0.020511529180258812, 0.001986981845062667, -0.02935646253632857,
            -0.02905869063093747, 0.041993565202443524, -0.037057527873077464]).reshape(3, 9)
        r = (0.5711853002246794, 0.4033868040865779, 0.48284901370606265)
        angles = (1.5685804558383665, np.pi / 2, np.pi / 2)
        bound = mermin_bound_equal_strengths(t, *r).bound_value
        result = see_saw_maximize(decomposition_from_t(t.reshape(3, 3, 3)), Strengths.equal(*r),
                                  np.zeros(6), "mermin",
                                  SeeSawConfig(restarts=50, seed=752690754,
                                               angle_constraints=angles))
        assert abs(result.value - bound) <= 1e-14


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


def rotation_coordinates(d, tied, free):
    """(batch, 18, n): the rotation vectors w = coords @ x of the Newton
    step's coordinates x, ``tied`` with each free direction's projected off
    the direction itself."""
    proj = np.eye(3) - free[:, None, None] * (d[..., :, None] * d[..., None, :])
    return (proj @ tied.reshape(6, 3, -1)).reshape(len(d), 18, -1)


class TestNewtonPolish:
    """The Newton step that follows each alternating sweep from the sixth on."""

    CONSTRAINTS = [(None, None, None), (0.7, 1.2, 2.0), (None, 1.0, None)]

    def objective(self, kind, biased):
        rng = np.random.default_rng(61)
        t = rng.normal(size=(3, 3, 3))
        decomp = decomposition_from_t(t / np.abs(t).max())
        r = rng.uniform(0.2, 0.9, 6)
        biases = (1.0 - r) * rng.uniform(-1.0, 1.0, 6) if biased else np.zeros(6)
        orientation = np.array([1.0, -1.0, 1.0]) if biased else np.ones(3)
        return _Objective(decomp, r, biases, OPERATORS[kind].signs, orientation)

    @pytest.mark.parametrize("kind", ["mermin", "svetlichny"])
    @pytest.mark.parametrize("angles", CONSTRAINTS)
    @pytest.mark.parametrize("biased", [False, True])
    def test_derivatives_match_finite_differences(self, kind, angles, biased):
        # central differences of the value along the rotation coordinates
        objective = self.objective(kind, biased)
        d = _initial_directions(4, 3)
        rotations = _tied_rotations(angles)
        coords = rotation_coordinates(d, rotations.tied, rotations.free)
        _, grad, hess = objective.rotation_derivatives(d, rotations)
        n, h = coords.shape[2], 1e-4

        def value(x):
            return objective.value(_rotate(d, (coords @ x).reshape(3, 6, 3)))

        e = h * np.eye(n)
        fd_grad = np.array([value(e[i]) - value(-e[i]) for i in range(n)]).T / (2 * h)
        fd_hess = np.array([[value(e[i] + e[j]) - value(e[i] - e[j]) - value(e[j] - e[i])
                             + value(-e[i] - e[j]) for j in range(n)]
                            for i in range(n)]).transpose(2, 0, 1) / (4 * h * h)
        assert grad.shape == (3, n) and hess.shape == (3, n, n)
        np.testing.assert_allclose(grad, fd_grad, rtol=0, atol=1e-8)
        np.testing.assert_allclose(hess, fd_hess, rtol=0, atol=2e-7)

    @pytest.mark.parametrize("kind", ["mermin", "svetlichny"])
    @pytest.mark.parametrize("angles", CONSTRAINTS)
    @pytest.mark.parametrize("biased", [False, True])
    def test_value_matches_the_objective(self, kind, angles, biased):
        # value()'s sum with the +-1 orientation applied first: equal, or at
        # worst to rounding if numpy sums a stacked matmul in another order
        objective = self.objective(kind, biased)
        d = _initial_directions(6, 3)
        value, _, _ = objective.rotation_derivatives(d, _tied_rotations(angles))
        np.testing.assert_allclose(value, objective.value(d), rtol=0, atol=1e-14)

    @pytest.mark.parametrize("kind", ["mermin", "svetlichny"])
    @pytest.mark.parametrize("angles", CONSTRAINTS)
    def test_step_turns_held_pairs_rigidly(self, kind, angles):
        objective = self.objective(kind, False)
        d = _initial_directions(5, 3)
        # two sweeps put the held pairs on their angles
        _run_seesaw(objective, d, SeeSawConfig(max_sweeps=2, angle_constraints=angles))
        before = objective.value(d)
        values = _newton_step(objective, d, _tied_rotations(angles), 1e-12)
        assert np.all(values >= before) and np.any(values > before)
        np.testing.assert_array_equal(values, objective.value(d))
        np.testing.assert_allclose(np.linalg.norm(d, axis=-1), 1.0, rtol=0, atol=1e-12)
        for party, theta in enumerate(angles):
            if theta is not None:
                cos = np.einsum("bi,bi->b", d[:, 2 * party], d[:, 2 * party + 1])
                np.testing.assert_allclose(cos, np.cos(theta), rtol=0, atol=1e-12)

    @staticmethod
    def at_aligned_maximum(kind, angles=None):
        """(objective, objective with s1(T) and s2(T) exchanged, rotations,
        directions, (c1, c2)): T = 0.9 u1 q1^T + 0.5 u2 q2^T + 0.2 u3 q3^T is
        aligned with the coefficient matrix C of the equal-strength angles, and
        the four rows are at a held see-saw's maximum, which pairs s_i(T) with
        c_i = s_i(C).  Every s1 > s2 > s3 has that maximum, so the gradient of
        each term vanishes there: for the exchanged tensor it is a critical
        point of value 0.5 c1 + 0.9 c2, (0.9 - 0.5)(c1 - c2) below its maximum."""
        op = OPERATORS[kind]
        st = Strengths.equal(0.9, 0.8, 0.7)
        coeff = op.coefficient_matrix(st, op.closed_form("equal_strength_angles")(0.9, 0.5))
        angles = tuple(angles or op.closed_form("equal_strength_angles")(0.9, 0.5))

        def objective(s1, s2):
            t = saturable_tensor(np.random.default_rng(5), coeff, s1, s2, 0.2)
            return _Objective(decomposition_from_t(t.reshape(3, 3, 3)), st.as_array(),
                              np.zeros(6), op.signs, np.ones(4))

        top = objective(0.9, 0.5)
        d = _initial_directions(3, 4)
        _, _, hit_max, _ = _run_seesaw(top, d, SeeSawConfig(angle_constraints=angles,
                                                            convergence_tol=1e-14))
        assert not hit_max
        c = np.linalg.svd(coeff, compute_uv=False)[:2]
        return top, objective(0.5, 0.9), _tied_rotations(angles), d, c

    @pytest.mark.parametrize("kind", ["mermin", "svetlichny"])
    def test_one_step_leaves_a_saddle(self, kind):
        # a zero gradient gave a zero saddle-free step, so the row stayed put
        _, swapped, rotations, d, (c1, c2) = self.at_aligned_maximum(kind)
        before, grad, hess = swapped.rotation_derivatives(d, rotations)
        np.testing.assert_allclose(before, 0.5 * c1 + 0.9 * c2, rtol=1e-12)
        assert np.abs(grad).max() < 1e-7
        shift = 1e-12 * np.abs(np.trace(hess, axis1=1, axis2=2))
        assert np.all(np.linalg.eigvalsh(-hess)[:, 0] < -shift)
        values = _newton_step(swapped, d, rotations, 1e-12)
        assert np.all(values - before > 0.02 * (0.9 - 0.5) * (c1 - c2))
        np.testing.assert_array_equal(values, swapped.value(d))
        np.testing.assert_allclose(np.linalg.norm(d, axis=-1), 1.0, rtol=0, atol=1e-12)
        angles = OPERATORS[kind].closed_form("equal_strength_angles")(0.9, 0.5)
        for party, theta in enumerate(angles):
            cos = np.einsum("bi,bi->b", d[:, 2 * party], d[:, 2 * party + 1])
            np.testing.assert_allclose(cos, np.cos(theta), rtol=0, atol=1e-12)

    @pytest.mark.parametrize("kind, angles", [("mermin", None),
                                              ("svetlichny", (0.0, np.pi, 1.0))])
    def test_converged_rows_stay(self, kind, angles):
        # -H has an exactly flat direction here: a turn that keeps every direction
        top, _, rotations, d, _ = self.at_aligned_maximum(kind, angles)
        before, _, hess = top.rotation_derivatives(d, rotations)
        lam = np.linalg.eigvalsh(-hess)
        assert np.all(np.abs(lam[:, 0]) < 1e-12 * lam[:, -1])
        start = d.copy()
        values = _newton_step(top, d, rotations, 1e-12)
        assert np.all(values >= before)
        np.testing.assert_allclose(d, start, rtol=0, atol=1e-15)

    def test_near_degenerate_held_climbs_converge(self):
        # criterion 6's draws at s2 = 0.97 s1: alternating ascent alone stops at
        # the 200-sweep cap on all twelve calls, up to 9.3e-7 below the bound
        rng = np.random.default_rng(2027)
        for i in range(6):
            r = rng.uniform(0.3, 1.0, 3)
            st = Strengths.equal(*r)
            s1 = rng.uniform(0.3, 1.0)
            s2 = 0.97 * s1
            s3 = rng.uniform(0.0, s2)
            for kind, angles, build, bound in (
                    ("mermin", equal_strength_angles(s1, s2), build_v_matrix,
                     mermin_bound_equal_strengths),
                    ("svetlichny", equal_strength_angles_svetlichny(s1, s2), build_w_matrix,
                     svetlichny_bound_equal_strengths)):
                t = saturable_tensor(rng, build(st, angles), s1, s2, s3)
                result = see_saw_maximize(decomposition_from_t(t.reshape(3, 3, 3)), st,
                                          np.zeros(6), kind,
                                          SeeSawConfig(restarts=50, seed=2027 + i,
                                                       angle_constraints=angles))
                assert not result.hit_max_sweeps, (i, kind)
                assert abs(bound(t, *r).bound_value - result.value) <= 1e-9, (i, kind)


def kernels_reference(objective, decomp, signs, d):
    """The replaced contraction, kept as a reference: one layout of the
    8x8x8 table per party, kernels[p] taking the h of the later of the other
    two parties to the (p, earlier other party) block.  Returns the value
    and the three gradients (batch, 2, 3)."""
    kernel = np.einsum("abc,mng->ambncg", signs, decomp.lam).reshape(8, 8, 8)
    kernels = tuple(np.ascontiguousarray(kernel.transpose(axes)).reshape(64, 8).T
                    for axes in ((0, 1, 2), (1, 0, 2), (2, 0, 1)))
    h = objective._homogeneous(d)
    partials = []
    for party in range(3):
        first, second = (q for q in range(3) if q != party)
        inner = (h[:, second] @ kernels[party]).reshape(-1, 8, 8)
        partials.append(np.einsum("bij,bj->bi", inner, h[:, first]))
    orientation = objective.orientation
    value = orientation * np.einsum("bi,bi->b", h[:, 0], partials[0])
    grads = [orientation[:, None, None] * partial.reshape(-1, 2, 4)[..., 1:]
             * objective.r[2 * party:2 * party + 2, None]
             for party, partial in enumerate(partials)]
    return value, grads


class TestOneTable:
    """The value and gradients from the one cyclic table, against the
    replaced three-layout contraction."""

    def test_matches_the_three_layouts(self):
        rng = np.random.default_rng(53)
        for i in range(300):
            rows = int(rng.integers(1, 61))
            lam = rng.uniform(-1.0, 1.0, size=(4, 4, 4))
            lam[0, 0, 0] = 1.0
            decomp = CorrelationDecomposition(lam)
            r = rng.uniform(0.0, 1.0, 6)
            biases = (1.0 - r) * rng.uniform(-1.0, 1.0, 6) if i % 2 else np.zeros(6)
            signs = OPERATORS["mermin" if i % 4 < 2 else "svetlichny"].signs
            objective = _Objective(decomp, r, biases, signs, rng.choice([1.0, -1.0], rows))
            d = rng.normal(size=(rows, 6, 3))
            d /= np.linalg.norm(d, axis=-1, keepdims=True)
            value, grads = kernels_reference(objective, decomp, signs, d)
            np.testing.assert_array_equal(objective.value(d), value)
            np.testing.assert_array_equal(objective.gradient(d, 0), grads[0])
            np.testing.assert_array_equal(objective.gradient(d, 2), grads[2])
            # party 1 sums in the Newton step's order, not the replaced one's
            np.testing.assert_allclose(objective.gradient(d, 1), grads[1], rtol=0, atol=1e-15)


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
        # K is zero at unit strengths, so the bias oracle is the plain see-saw
        d = decomposition_from_t(ghz_t3())
        for angles in (None, ORTH):
            cfg = SeeSawConfig(restarts=8, seed=9, angle_constraints=angles,
                               record_trace=True)
            plain = see_saw_maximize(d, Strengths.uniform(1.0), np.zeros(6), "mermin", cfg)
            biased = bias_optimize(d, Strengths.uniform(1.0), "mermin", cfg)
            assert biased.value == plain.value
            for ours, theirs in zip(biased.setting.observables, plain.setting.observables):
                np.testing.assert_array_equal(ours.direction, theirs.direction)
            assert ((biased.sweeps, biased.hit_max_sweeps)
                    == (plain.sweeps, plain.hit_max_sweeps))
            assert biased.trace.shape == (biased.sweeps + 1, cfg.restarts)

    @pytest.mark.parametrize("kind", ["mermin", "svetlichny"])
    @pytest.mark.parametrize("held", [False, True])
    def test_matches_the_see_saw_at_every_bias_pattern(self, kind, held):
        # the replaced algorithm: one biased see-saw per extreme sign pattern;
        # the sweep cap, shared by both sides, keeps its 128 calls per case quick
        rng = np.random.default_rng(43)
        expectation = EXPECTATIONS[kind]
        for seed in range(2):
            t = rng.normal(size=(3, 3, 3))
            d = decomposition_from_t(t / np.abs(t).max())
            st = Strengths.from_iterable(rng.uniform(0.2, 1.0, 6))
            angles = tuple(rng.uniform(0.0, np.pi, 3)) if held else None
            cfg = SeeSawConfig(restarts=2, max_sweeps=25, seed=seed, angle_constraints=angles)
            loop = max(see_saw_maximize(d, st, np.array(signs) * st.bars, kind, cfg).value
                       for signs in itertools.product((1.0, -1.0), repeat=6))
            result = bias_optimize(d, st, kind, cfg)
            assert result.value >= loop - 1e-12
            assert abs(abs(expectation(d, result.setting)) - result.value) < 1e-12
            np.testing.assert_array_equal(np.abs(result.setting.biases_array), st.bars)
            if held:
                np.testing.assert_allclose(result.setting.relative_angles, angles,
                                           rtol=0, atol=1e-9)

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
        ru, rb = OPERATORS["mermin"].biased_window(2.0)
        mid = 0.5 * (ru + rb)
        st = Strengths.uniform(mid)
        cfg = SeeSawConfig(restarts=12, seed=12)
        unbiased = see_saw_maximize(d, st, np.zeros(6), "mermin", cfg)
        biased = bias_optimize(d, st, "mermin", cfg)
        assert unbiased.value <= 2.0 + 1e-9
        assert biased.value > 2.0
        assert abs(biased.value - (2 * mid**3 * 2 + 2 * (1 - mid) ** 3)) < 1e-6


def pairing_residual(t, strengths, angles, kind):
    """(residual, setting): the unbiased pairing bound at ``angles`` minus the
    angle-constrained see-saw's value, relative to max(1, bound).

    Near-degenerate spectra climb slowly, hence the 1000-sweep cap.
    """
    target = OPERATORS[kind].unbiased(*_t_svals(t), strengths, angles).bound_value
    config = SeeSawConfig(max_sweeps=1000, seed=0x5EED, angle_constraints=tuple(angles))
    result = see_saw_maximize(decomposition_from_t(t), strengths,
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



class TestRotationsCache:
    @pytest.mark.parametrize("free", list(itertools.product((False, True), repeat=3)))
    def test_one_read_only_build_per_pattern(self, free):
        first = _tied_rotations(tuple(None if f else 0.7 for f in free))
        second = _tied_rotations(tuple(None if f else np.float64(2.0) for f in free))
        assert first is second
        assert not any(array.flags.writeable for array in first)
        for cached, fresh in zip(first, _rotations_for.__wrapped__(free)):
            np.testing.assert_array_equal(cached, fresh)


def pairing_ceiling(decomp, strengths, angles, kind):
    """s1(T) s1(C) + s2(T) s2(C), C the coefficient matrix at ``angles``."""
    s = np.linalg.svd(decomp.t_matrix, compute_uv=False)
    c = np.linalg.svd(OPERATORS[kind].coefficient_matrix(strengths, angles), compute_uv=False)
    return float(s[:2] @ c[:2])


def climb_without_ceiling(decomp, strengths, biases, kind, config):
    """(value, best row's directions, sweeps) of the see-saw's batch run by
    ``_run_seesaw`` with no ceiling."""
    orientation = [1.0, -1.0] if np.any(biases) else [1.0]
    d = np.tile(_initial_directions(config.seed, config.restarts), (len(orientation), 1, 1))
    objective = _Objective(decomp, strengths.as_array(), biases, OPERATORS[kind].signs,
                           np.repeat(orientation, config.restarts))
    values, sweeps, _, _ = _run_seesaw(objective, d, config)
    best = int(np.argmax(values))
    return float(values[best]), d[best], sweeps


class TestCeilingStop:
    """A climb with every pair held at zero biases cannot pass the pairing
    of s(T) with s(C) (von Neumann's trace inequality) and stops there."""

    @pytest.mark.parametrize("kind", ["mermin", "svetlichny"])
    def test_no_traced_row_passes_the_ceiling(self, kind):
        # odd draws are aligned with C, so their climbs reach the ceiling
        rng = np.random.default_rng(71)
        for i in range(24):
            st = Strengths.from_iterable(rng.uniform(0.2, 1.0, 6))
            angles = tuple(rng.uniform(0.0, np.pi, 3))
            if i % 2:
                coeff = OPERATORS[kind].coefficient_matrix(st, angles)
                s1, s2, s3 = np.sort(rng.uniform(0.1, 1.0, 3))[::-1]
                t = saturable_tensor(rng, coeff, s1, s2, s3).reshape(3, 3, 3)
            else:
                t = rng.normal(size=(3, 3, 3))
                t /= np.abs(t).max()
            decomp = decomposition_from_t(t)
            cfg = SeeSawConfig(restarts=8, seed=i, angle_constraints=angles, record_trace=True)
            result = see_saw_maximize(decomp, st, np.zeros(6), kind, cfg)
            ceiling = pairing_ceiling(decomp, st, angles, kind)
            assert np.all(result.trace[1:] <= ceiling * (1 + 1e-14))
            if i % 2:
                assert result.value >= ceiling * (1 - 1e-12)

    def test_criterion_6_climbs_stop_at_the_bound(self):
        rng = np.random.default_rng(106)
        sweeps = []
        for i in range(20):
            r = rng.uniform(0.3, 1.0, 3)
            st = Strengths.equal(*r)
            s1 = rng.uniform(0.3, 1.0)
            s2 = rng.uniform(0.1, s1)
            s3 = rng.uniform(0.0, s2)
            for kind, bound_of in (("mermin", mermin_bound_equal_strengths),
                                   ("svetlichny", svetlichny_bound_equal_strengths)):
                op = OPERATORS[kind]
                angles = op.closed_form("equal_strength_angles")(s1, s2)
                t = saturable_tensor(rng, op.coefficient_matrix(st, angles), s1, s2, s3)
                bound = bound_of(t, *r).bound_value
                result = see_saw_maximize(decomposition_from_t(t.reshape(3, 3, 3)), st,
                                          np.zeros(6), kind,
                                          SeeSawConfig(restarts=50, seed=10600 + i,
                                                       angle_constraints=angles))
                assert abs(result.value - bound) <= 1e-14 * bound
                sweeps.append(result.sweeps)
        assert np.mean(sweeps) <= 7.5

    @pytest.mark.parametrize("kind", ["mermin", "svetlichny"])
    @pytest.mark.parametrize("angles, biased", [((None, None, None), False),
                                                ((None, 1.0, None), False),
                                                ((0.7, 1.2, 2.0), True),
                                                ((0.7, 1.2, 2.0), False)])
    def test_other_climbs_run_as_without_a_ceiling(self, kind, angles, biased):
        rng = np.random.default_rng(73)
        t = rng.normal(size=(3, 3, 3))
        decomp = decomposition_from_t(t / np.abs(t).max())
        st = Strengths.from_iterable(rng.uniform(0.3, 0.9, 6))
        biases = (1.0 - st.as_array()) * rng.uniform(-1.0, 1.0, 6) if biased else np.zeros(6)
        cfg = SeeSawConfig(restarts=6, seed=5, angle_constraints=angles)
        result = see_saw_maximize(decomp, st, biases, kind, cfg)
        value, best_directions, sweeps = climb_without_ceiling(decomp, st, biases, kind, cfg)
        assert (result.value, result.sweeps) == (value, sweeps)
        np.testing.assert_array_equal(directions(result.setting), best_directions)
        if None not in angles and not biased:   # held and unbiased: below its ceiling
            assert value < pairing_ceiling(decomp, st, angles, kind) - 1e-6
