"""Observable model and operator-expectation tests."""


import numpy as np
import pytest

from bell3q import (GeneralObservable, MeasurementSetting, Strengths, ThreeQubitState,
                    build, build_v_matrix, build_w_matrix, decompose, decomposition_from_t,
                    ghz_state, mermin_bound_x_asymmetric, mermin_expectation,
                    parse_state_spec, svetlichny_expectation, random_state,
                    triple_expectation, variant_expectations)
from bell3q.mermin import _t_svals, optimal_unbiased_angles
from bell3q.observables import OPERATORS

SX = np.array([[0, 1], [1, 0]], dtype=complex)
SY = np.array([[0, -1j], [1j, 0]], dtype=complex)
SZ = np.array([[1, 0], [0, -1]], dtype=complex)
SI = np.eye(2, dtype=complex)


def dense_triple(rho, ox, oy, oz):
    """Dense 8x8 oracle: effects built literally as B*I + R*(sigma . n)."""
    def mat(o):
        n = o.direction
        return o.bias * SI + o.strength * (n[0] * SX + n[1] * SY + n[2] * SZ)
    op = np.kron(np.kron(mat(ox), mat(oy)), mat(oz))
    return float(np.real(np.trace(op @ rho)))


def random_density(rng):
    g = rng.normal(size=(8, 8)) + 1j * rng.normal(size=(8, 8))
    rho = g @ g.conj().T
    return rho / rho.trace().real


def random_observable(rng, unbiased=False):
    d = rng.normal(size=3)
    d /= np.linalg.norm(d)
    r = rng.uniform(0, 1)
    b = 0.0 if unbiased else rng.uniform(-(1 - r), 1 - r)
    return GeneralObservable(bias=b, strength=r, direction=d)


def random_setting(rng, unbiased=False):
    return MeasurementSetting(*(random_observable(rng, unbiased) for _ in range(6)))


EX, EY, EZ = np.eye(3)

# directions achieving the Mermin maximum 4 on the GHZ state
GHZ_MERMIN_SETTING = MeasurementSetting(
    GeneralObservable(0, 1, EX), GeneralObservable(0, 1, EY),
    GeneralObservable(0, 1, EX), GeneralObservable(0, 1, EY),
    GeneralObservable(0, 1, -EY), GeneralObservable(0, 1, EX))


class TestGeneralObservable:
    def test_constraint_boundary_accepted(self):
        GeneralObservable(bias=0.3, strength=0.7, direction=EZ)

    def test_constraint_violation_rejected(self):
        with pytest.raises(ValueError, match="exceeds 1"):
            GeneralObservable(bias=0.5, strength=0.6, direction=EZ)

    def test_negative_strength_rejected(self):
        with pytest.raises(ValueError, match="non-negative"):
            GeneralObservable(bias=0.0, strength=-0.1, direction=EZ)

    def test_nan_bias_rejected(self):
        with pytest.raises(ValueError, match="exceeds 1"):
            GeneralObservable(bias=np.nan, strength=0.5, direction=EZ)

    def test_nan_strength_rejected(self):
        with pytest.raises(ValueError, match="non-negative"):
            GeneralObservable(bias=0.0, strength=np.nan, direction=EZ)

    def test_nan_direction_rejected(self):
        with pytest.raises(ValueError, match="norm"):
            GeneralObservable(bias=0.0, strength=1.0, direction=np.array([np.nan, 0.0, 0.0]))

    def test_non_unit_direction_rejected(self):
        with pytest.raises(ValueError, match="norm"):
            GeneralObservable(bias=0.0, strength=1.0, direction=np.array([1.0, 1.0, 0.0]))

    def test_angles_clamped_for_parallel_vectors(self):
        # numerically parallel directions must not produce NaN
        d = np.array([1.0, 1.0, 1.0]) / np.sqrt(3)
        obs = GeneralObservable(0, 1, d)
        setting = MeasurementSetting(obs, obs, obs, obs, obs, obs)
        tx, ty, tz = setting.relative_angles
        assert tx == ty == tz == 0.0


class TestTripleExpectation:
    def test_zero_strength_gives_bias_product(self):
        rng = np.random.default_rng(1)
        d = decompose(ThreeQubitState(random_density(rng)))
        obs = [GeneralObservable(b, 0.0, EZ) for b in (0.4, -0.3, 0.9)]
        assert abs(triple_expectation(d, *obs) - 0.4 * -0.3 * 0.9) < 1e-15

    def test_ghz_xxx(self):
        d = decompose(ghz_state())
        x = GeneralObservable(0, 1, EX)
        assert abs(triple_expectation(d, x, x, x) - 1.0) < 1e-12

    def test_maximally_mixed_unbiased_is_zero(self):
        d = decompose(ThreeQubitState(np.eye(8) / 8))
        rng = np.random.default_rng(2)
        for _ in range(10):
            obs = [random_observable(rng, unbiased=True) for _ in range(3)]
            assert abs(triple_expectation(d, *obs)) < 1e-12

    def test_agrees_with_dense_trace_200_draws(self):
        rng = np.random.default_rng(3)
        for _ in range(200):
            rho = random_density(rng)
            d = decompose(ThreeQubitState(rho))
            obs = [random_observable(rng) for _ in range(3)]
            closed = triple_expectation(d, *obs)
            assert abs(closed - dense_triple(rho, *obs)) < 1e-12
            assert abs(closed) <= 1.0 + 1e-12


class TestBellOperators:
    def test_maximally_mixed(self):
        d = decompose(ThreeQubitState(np.eye(8) / 8))
        rng = np.random.default_rng(4)
        s = random_setting(rng, unbiased=True)
        assert abs(mermin_expectation(d, s)) < 1e-12
        assert abs(svetlichny_expectation(d, s)) < 1e-12

    def test_ghz_mermin_maximum(self):
        d = decompose(ghz_state())
        assert abs(mermin_expectation(d, GHZ_MERMIN_SETTING) - 4.0) < 1e-12

    def test_bias_only_limits(self):
        rng = np.random.default_rng(5)
        d = decompose(ThreeQubitState(random_density(rng)))
        biases = rng.uniform(-1, 1, 6)
        obs = [GeneralObservable(b, 0.0, EZ) for b in biases]
        setting = MeasurementSetting(*obs)
        bx, bxp, by, byp, bz, bzp = biases
        k = bx * (by * bzp + byp * bz) + bxp * (by * bz - byp * bzp)
        l = ((bx * by - bxp * byp) * (bz + bzp)
             + (bx * byp + bxp * by) * (bz - bzp))
        assert abs(mermin_expectation(d, setting) - k) < 1e-12
        assert abs(svetlichny_expectation(d, setting) - l) < 1e-12

    def test_mermin_svetlichny_combination_identity(self):
        # the Svetlichny combination is E minus the all-party-exchanged E
        rng = np.random.default_rng(6)
        rho = random_density(rng)
        d = decompose(ThreeQubitState(rho))
        s = random_setting(rng)
        e = mermin_expectation(d, s)
        e_prime = mermin_expectation(d, s.swapped((1, 1, 1)))
        assert abs(svetlichny_expectation(d, s) - (e - e_prime)) < 1e-12

        obs = s.observables
        terms = [(0, 2, 5, 1), (0, 3, 4, 1), (1, 2, 4, 1), (1, 3, 5, -1),
                 (1, 3, 4, -1), (1, 2, 5, -1), (0, 3, 5, -1), (0, 2, 4, 1)]
        direct = sum(sign * triple_expectation(d, obs[a], obs[b], obs[c])
                     for a, b, c, sign in terms)
        assert abs(svetlichny_expectation(d, s) - direct) < 1e-12

    def test_local_rotation_invariance(self):
        rng = np.random.default_rng(8)
        rho = random_density(rng)

        def su2_and_so3(rng):
            g = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
            q, r = np.linalg.qr(g)
            u = q * (np.diag(r) / np.abs(np.diag(r)))
            sig = [SX, SY, SZ]
            rot = np.array([[0.5 * np.real(np.trace(sig[i] @ u @ sig[j] @ u.conj().T))
                             for j in range(3)] for i in range(3)])
            return u, rot

        (u1, r1), (u2, r2), (u3, r3) = (su2_and_so3(rng) for _ in range(3))
        u = np.kron(np.kron(u1, u2), u3)
        rotations = [r1, r1, r2, r2, r3, r3]

        setting = random_setting(rng, unbiased=True)
        rotated_obs = [GeneralObservable(o.bias, o.strength, r @ o.direction)
                       for o, r in zip(setting.observables, rotations)]
        rotated_setting = MeasurementSetting(*rotated_obs)

        d = decompose(ThreeQubitState(rho))
        d_rot = decompose(ThreeQubitState(u @ rho @ u.conj().T))
        assert abs(mermin_expectation(d, setting)
                   - mermin_expectation(d_rot, rotated_setting)) < 1e-10
        assert abs(svetlichny_expectation(d, setting)
                   - svetlichny_expectation(d_rot, rotated_setting)) < 1e-10


class TestVariants:
    def test_symmetric_setting_all_equal(self):
        rng = np.random.default_rng(9)
        d = decompose(ThreeQubitState(random_density(rng)))
        o = [random_observable(rng, unbiased=True) for _ in range(3)]
        setting = MeasurementSetting(o[0], o[0], o[1], o[1], o[2], o[2])
        values = variant_expectations(d, setting, "mermin")
        assert len(values) == 6
        np.testing.assert_allclose(values, values[0], atol=1e-12)

    def test_maximally_mixed_all_zero(self):
        d = decompose(ThreeQubitState(np.eye(8) / 8))
        rng = np.random.default_rng(10)
        s = random_setting(rng, unbiased=True)
        for kind in ("mermin", "svetlichny"):
            np.testing.assert_allclose(variant_expectations(d, s, kind), 0.0, atol=1e-12)

    def test_variants_are_the_exchanged_operators(self):
        rng = np.random.default_rng(12)
        d = decompose(ThreeQubitState(random_density(rng)))
        s = random_setting(rng, unbiased=True)
        values = variant_expectations(d, s, "mermin")
        swaps = [(1, 0, 0), (0, 1, 0), (0, 0, 1), (1, 1, 0), (1, 0, 1), (0, 1, 1)]
        expected = [mermin_expectation(d, s.swapped(p)) for p in swaps]
        np.testing.assert_allclose(values, expected, atol=1e-14)


class TestCoefficientMatrixLayout:
    """Entry by entry, not only through singular values: with each party's
    directions (cos t/2, +-sin t/2, 0) @ F, the expectation is
    sum C * (F_x T (F_y kron F_z)^T) for C = V (Mermin) or W (Svetlichny)."""

    def test_expectation_is_the_frame_contraction(self):
        rng = np.random.default_rng(21)
        for _ in range(50):
            t = rng.uniform(-1, 1, (3, 9))
            st = Strengths.from_iterable(rng.uniform(0, 1, 6))
            angles = rng.uniform(0, np.pi, 3)
            frames = [np.linalg.qr(rng.normal(size=(3, 3)))[0] for _ in range(3)]
            directions = []
            for f, theta in zip(frames, angles):
                c, s = np.cos(theta / 2), np.sin(theta / 2)
                directions += [c * f[0] + s * f[1], c * f[0] - s * f[1]]
            setting = MeasurementSetting.from_arrays(np.zeros(6), st.as_array(), directions)
            d = decomposition_from_t(t.reshape(3, 3, 3))
            rotated = frames[0] @ t @ np.kron(frames[1], frames[2]).T
            for expectation, build in ((mermin_expectation, build_v_matrix),
                                       (svetlichny_expectation, build_w_matrix)):
                expected = np.sum(build(st, angles) * rotated)
                assert abs(expectation(d, setting) - expected) < 1e-12


class TestGridAngles:
    """``optimal_unbiased_angles*`` return angles no lattice point k pi / 63
    beats, found by the seeded search, and the bound's value there."""

    @pytest.mark.parametrize("operator", ["mermin", "svetlichny"])
    def test_value_is_the_grid_maximum(self, operator):
        op = OPERATORS[operator]
        optimal, unbiased = op.closed_form("optimal_angles"), op.unbiased
        rng = np.random.default_rng(404)
        for seed in (3, 17, 29):
            s = _t_svals(decompose(random_state(seed)).t_matrix)
            st = Strengths.from_iterable(rng.uniform(0.3, 1.0, 6))
            angles, value = optimal(*s, st)
            assert value == pytest.approx(unbiased(*s, st, angles).bound_value, rel=1e-12)
            for k in rng.integers(0, 64, (500, 3)):
                point = unbiased(*s, st, tuple(k * np.pi / 63)).bound_value
                assert point <= value * (1 + 1e-12), (seed, k)

    @pytest.mark.parametrize("resolution", [1, 0, -3])
    def test_resolution_below_two_is_rejected(self, resolution):
        t = decompose(random_state(3)).t_matrix
        with pytest.raises(ValueError, match="resolution must be >= 2"):
            optimal_unbiased_angles(*_t_svals(t), Strengths.uniform(0.8), resolution=resolution)


class TestSeededAngleSearch:
    """The seeded pattern search behind ``grid_angles`` against two
    references: the dense lattice maximum, and the angle-optimized closed form
    where one exists."""

    @staticmethod
    def _inputs(count):
        rng = np.random.default_rng(2024)
        kinds = ("random", "gghz", "mix:w")
        for i in range(count):
            kind = kinds[i % 3]
            if kind == "random":
                spec = f"random:{int(rng.integers(0, 10**6))}"
            elif kind == "gghz":
                spec = f"gghz:{rng.uniform(0.05, np.pi / 2)!r}"
            else:
                spec = f"mix:w:{rng.uniform(0.3, 1.0)!r}"
            t = decompose(build(parse_state_spec(spec))).t_matrix
            s = np.linalg.svd(t, compute_uv=False)
            yield spec, float(s[0]), float(s[1]), Strengths.from_iterable(rng.uniform(0.3, 1.0, 6))

    @pytest.mark.parametrize("operator", ["mermin", "svetlichny"])
    def test_at_least_the_dense_lattice_maximum(self, operator):
        op = OPERATORS[operator]
        lattice = np.linspace(0.0, np.pi, 64)
        cube = np.meshgrid(lattice, lattice, lattice, indexing="ij", sparse=True)
        for spec, s1, s2, st in self._inputs(21):
            angles, value = op.grid_angles(s1, s2, st)
            assert all(0.0 <= a <= np.pi for a in angles), (spec, angles)
            assert value == pytest.approx(op.pair_bound(s1, s2, st, angles), rel=1e-12)
            dense = float(np.max(op.pair_bound(s1, s2, st, cube)))
            assert value >= dense * (1 - 1e-14), (spec, value, dense)

    def test_mermin_reaches_the_x_asymmetric_closed_form(self):
        """With R_Y = R_Y', R_Z = R_Z' and R_X >= R_X' the maximum over angles
        is 2 R_Y R_Z sqrt(R_X^2 s1^2 + R_X'^2 s2^2)."""
        rng = np.random.default_rng(77)
        for seed in range(24):
            t = decompose(random_state(1000 + seed)).t_matrix
            rx, rxp = np.sort(rng.uniform(0.3, 1.0, 2))[::-1]
            ry, rz = rng.uniform(0.3, 1.0, 2)
            st = Strengths(rx, rxp, ry, ry, rz, rz)
            _, value = optimal_unbiased_angles(*_t_svals(t), st)
            exact = mermin_bound_x_asymmetric(*_t_svals(t), rx, rxp, ry, rz).bound_value
            assert value == pytest.approx(exact, rel=1e-12), seed


class TestAngleRange:
    """The shared bounds take relative angles in [0, pi] only: outside it the
    I+-/J+- closed forms return P and M swapped, a value below the pairing."""

    ST = Strengths(0.9, 0.7, 0.8, 0.6, 0.95, 0.5)

    @pytest.mark.parametrize("operator", ["mermin", "svetlichny"])
    @pytest.mark.parametrize("tx", [4.0, -1.0])
    def test_x_angle_outside_is_rejected(self, operator, tx):
        op = OPERATORS[operator]
        for method in (op.unbiased, op.six_variant, op.tstate):
            with pytest.raises(ValueError, match=r"relative angles must lie in \[0, pi\]"):
                method(0.8, 0.5, self.ST, (tx, 1.2, 0.7))

    @pytest.mark.parametrize("operator", ["mermin", "svetlichny"])
    def test_pi_with_its_slack_is_accepted(self, operator):
        op = OPERATORS[operator]
        angles = (np.pi + 5e-13, 1.2, 0.7)
        value = op.pair_bound(0.8, 0.5, self.ST, angles)
        assert op.unbiased(0.8, 0.5, self.ST, angles).bound_value == value
        assert (op.tstate(0.8, 0.5, self.ST, angles).bound_value
                == value + op.closed_form("bias_max")(self.ST))
        assert (op.six_variant(0.8, 0.5, self.ST, angles)[0]
                == op.pair_bound(0.8, 0.5, self.ST, angles, absolute=True))


class TestBiasedWindow:
    @pytest.mark.parametrize("operator", ["mermin", "svetlichny"])
    @pytest.mark.parametrize("u", [-8.0, -6.5, -5.0, -3.0, -1.0, None])
    def test_r_biased_is_the_positive_root(self, operator, u):
        """r_biased solves (q - 1) R^2 + 3 R - 3 = 0 for the same double q;
        just above the threshold the root must not lose digits to cancellation."""
        from decimal import Decimal, getcontext
        op = OPERATORS[operator]
        p = 2.0 if u is None else op.window_threshold * (1.0 + 10.0 ** u)
        q = p / op.window_threshold
        getcontext().prec = 50
        qm1 = Decimal(q) - 1
        exact = (Decimal(-3) + (Decimal(9) + 12 * qm1).sqrt()) / (2 * qm1)
        _, r_biased = op.biased_window(p)
        assert abs(r_biased - float(exact)) <= 1e-15 * float(exact)
