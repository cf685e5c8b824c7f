"""State factory tests."""

import numpy as np
import pytest

from bell3q import (PhysicalityError, StateSpec, build, decompose,
                    generalized_ghz_state, ghz_state, is_tstate, parse_state_spec,
                    random_state, t_state, w_state, white_noise_mix)
from bell3q.smallmat import singular_values_3x9


class TestBuild:
    def test_all_kinds_are_physical(self):
        specs = [StateSpec(kind="ghz"), StateSpec(kind="w"),
                 StateSpec(kind="gghz", theta=0.6),
                 StateSpec(kind="mix", base=StateSpec(kind="ghz"), visibility=0.4),
                 StateSpec(kind="random", seed=12)]
        for spec in specs:
            state = build(spec)
            assert state.is_physical
            assert abs(state.matrix.trace() - 1.0) < 1e-12

    def test_white_noise_zero_visibility_is_maximally_mixed(self):
        state = white_noise_mix(ghz_state(), 0.0)
        np.testing.assert_allclose(state.matrix, np.eye(8) / 8, atol=1e-12)

    def test_tstate_zero_tensor_is_maximally_mixed(self):
        state = t_state(np.zeros((3, 3, 3)))
        np.testing.assert_allclose(state.matrix, np.eye(8) / 8, atol=1e-12)

    def test_ghz_decomposition(self):
        d = decompose(ghz_state())
        t = d.t_tensor
        expected = np.zeros((3, 3, 3))
        expected[0, 0, 0] = 1.0
        expected[0, 1, 1] = expected[1, 0, 1] = expected[1, 1, 0] = -1.0
        np.testing.assert_allclose(t, expected, atol=1e-12)

    def test_gghz_reduces_to_ghz(self):
        a = generalized_ghz_state(np.pi / 4).matrix
        b = ghz_state().matrix
        np.testing.assert_allclose(a, b, atol=1e-12)

    def test_tstate_rejects_unphysical_tensor_with_eigenvalue(self):
        t = np.zeros((3, 3, 3))
        t[0, 0, 0] = t[1, 1, 1] = t[2, 2, 2] = 1.0
        with pytest.raises(PhysicalityError, match="eigenvalue"):
            t_state(t)

    def test_tstate_rejects_bare_ghz_tensor(self):
        t = np.zeros((3, 3, 3))
        t[0, 0, 0] = 1.0
        t[0, 1, 1] = t[1, 0, 1] = t[1, 1, 0] = -1.0
        with pytest.raises(PhysicalityError):
            t_state(t)

    def test_random_reproducible(self):
        a = random_state(99).matrix
        b = random_state(99).matrix
        assert np.array_equal(a, b)

    def test_parameter_validation(self):
        with pytest.raises(ValueError):
            StateSpec(kind="gghz", theta=2.0)
        with pytest.raises(ValueError):
            StateSpec(kind="mix", base=StateSpec(kind="ghz"), visibility=1.5)
        with pytest.raises(ValueError):
            StateSpec(kind="nonsense")


class TestIsTstate:
    def test_ghz_is_not_a_tstate(self):
        # nonzero two-party ZZ blocks disqualify it
        d = decompose(ghz_state())
        assert d.theta_mat[2, 2] == pytest.approx(1.0, abs=1e-12)
        assert not is_tstate(d)

    def test_noisy_ghz_is_not_a_tstate(self):
        for v in (0.2, 0.7):
            d = decompose(white_noise_mix(ghz_state(), v))
            assert d.theta_mat[2, 2] == pytest.approx(v, abs=1e-12)
            assert not is_tstate(d)

    def test_built_tstates_are_tstates(self):
        t = np.zeros((3, 3, 3))
        t[0, 0, 0], t[1, 1, 1], t[2, 2, 2] = 0.5, -0.5, 0.5
        assert is_tstate(decompose(t_state(t)))

    def test_w_state_is_not_a_tstate(self):
        assert not is_tstate(decompose(w_state()))


class TestScaling:
    def test_white_noise_scales_t_linearly(self):
        base = ghz_state()
        t1 = decompose(base).t_matrix
        for v in (0.25, 0.5, 0.9):
            tv = decompose(white_noise_mix(base, v)).t_matrix
            np.testing.assert_allclose(tv, v * t1, atol=1e-12)
            sv = singular_values_3x9(tv)
            np.testing.assert_allclose(sv, v * singular_values_3x9(t1), atol=1e-12)


class TestParseSpec:
    def test_simple_kinds(self):
        assert parse_state_spec("ghz").kind == "ghz"
        assert parse_state_spec("w").kind == "w"
        assert parse_state_spec("gghz:0.5").theta == 0.5
        assert parse_state_spec("random:42").seed == 42

    def test_mix_nested(self):
        spec = parse_state_spec("mix:gghz:0.7:0.5")
        assert spec.kind == "mix"
        assert spec.visibility == 0.5
        assert spec.base.kind == "gghz"
        assert spec.base.theta == 0.7

    def test_tstate_nine_floats_embed_diagonally(self):
        spec = parse_state_spec("tstate:1,0,0,0,1,0,0,0,1")
        t = np.asarray(spec.t_tensor).reshape(3, 3, 3)
        assert t[0, 0, 0] == t[1, 1, 1] == t[2, 2, 2] == 1.0
        assert np.sum(np.abs(t)) == 3.0

    def test_tstate_27_floats(self):
        values = ",".join(str(x) for x in range(27))
        t = np.asarray(parse_state_spec(f"tstate:{values}").t_tensor).reshape(3, 3, 3)
        assert t[0, 0, 1] == 1.0 and t[2, 2, 2] == 26.0

    def test_errors(self):
        with pytest.raises(ValueError):
            parse_state_spec("nope")
        with pytest.raises(ValueError):
            parse_state_spec("tstate:1,2,3")
