"""Properties of the shared ``Operator`` record, written once for every operator.

Each ``OperatorProperty`` subclass below is one property of ``OPERATORS[kind]``.
Its ``CASES`` map each operator name to the data its tests read: seeds,
inputs and expected values.  The operator's own test module binds a property
to the operator by subclassing it with ``kind`` set
(``class TestKMax(BiasMax): kind = "mermin"``), so each test keeps its id in
``tests/test_<kind>.py``; a test whose name there names the operator's own
symbol (``test_matches_svd_of_v``) binds a ``check_*`` method under that name.
``test_every_property_is_bound_for_every_operator`` fails when an operator
record lacks a property's data or binding.  The tests below it hold for every
operator at once.
"""

import functools
import importlib
from types import SimpleNamespace as Case

import numpy as np
import pytest

from bell3q import (Strengths, ThreeQubitState, decompose, ghz_state, random_state, t_state,
                    variant_expectations)
from bell3q.mermin import _t_svals
from bell3q.observables import OPERATORS, GeneralObservable, MeasurementSetting
from bell3q.svetlichny import equal_strength_angles_svetlichny

from references import (ORTH, ROOT2, SX, SY, SZ, bias_max_brute, bound_at, ghz_t,
                        random_density, random_strengths, random_t)


class OperatorProperty:
    kind = None  # the operator name, set by the binding subclass

    @property
    def op(self):
        return OPERATORS[self.kind]

    @property
    def case(self):
        return self.CASES[self.kind]


class CoefficientMatrix(OperatorProperty):
    """V (Mermin) or W (Svetlichny): ``Operator.coefficient_matrix``."""

    CASES = {"mermin": Case(structure_seed=1), "svetlichny": Case(structure_seed=2)}

    def test_zero_strengths(self):
        rng = np.random.default_rng(0)
        c = self.op.coefficient_matrix(Strengths.uniform(0.0), rng.uniform(0, np.pi, 3))
        np.testing.assert_allclose(c, 0.0)

    def test_third_singular_value_structurally_zero(self):
        rng = np.random.default_rng(self.case.structure_seed)
        for _ in range(50):
            c = self.op.coefficient_matrix(random_strengths(rng), rng.uniform(0, np.pi, 3))
            assert np.all(c[2] == 0.0)
            assert np.linalg.svd(c, compute_uv=False)[2] < 1e-14


class PlusMinus(OperatorProperty):
    """I+- (Mermin) or J+- (Svetlichny), s1(C) +- s2(C), from the record's pair form."""

    CASES = {"mermin": Case(unit_plus=2.0 * ROOT2), "svetlichny": Case(unit_plus=4.0)}

    def plus_minus(self, strengths, angles):
        return self.op.closed_form("pair_form")(strengths).plus_minus(angles)

    def test_unit_strengths_orthogonal(self):
        plus, minus = self.plus_minus(Strengths.uniform(1.0), ORTH)
        assert abs(plus - self.case.unit_plus) < 1e-12
        assert abs(minus) < 1e-12

    def test_zero_strengths(self):
        assert self.plus_minus(Strengths.uniform(0.0), ORTH) == (0.0, 0.0)

    def check_matches_svd(self):
        rng = np.random.default_rng(3)
        for _ in range(1000):
            st = random_strengths(rng)
            ang = tuple(rng.uniform(0, np.pi, 3))
            sv = np.linalg.svd(self.op.coefficient_matrix(st, ang), compute_uv=False)
            plus, minus = self.plus_minus(st, ang)
            assert abs(plus - (sv[0] + sv[1])) < 1e-10
            assert abs(minus - (sv[0] - sv[1])) < 1e-10


class UnbiasedBound(OperatorProperty):
    CASES = {"mermin": Case(ghz_angles=ORTH, ghz=4.0, zero_seed=4, pairing_seed=5),
             "svetlichny": Case(ghz_angles=equal_strength_angles_svetlichny(ROOT2, ROOT2),
                                ghz=4.0 * ROOT2, zero_seed=5, pairing_seed=6)}

    def check_ghz_sharp(self):
        value = bound_at(self.kind, ghz_t(), Strengths.uniform(1.0), self.case.ghz_angles)
        assert abs(value - self.case.ghz) < 1e-9

    def test_zero_cases(self):
        rng = np.random.default_rng(self.case.zero_seed)
        ang = tuple(rng.uniform(0, np.pi, 3))
        assert bound_at(self.kind, random_t(rng), Strengths.uniform(0.0), ang) == 0.0
        assert bound_at(self.kind, np.zeros((3, 9)), random_strengths(rng), ang) == 0.0

    def test_equals_singular_value_pairing(self):
        rng = np.random.default_rng(self.case.pairing_seed)
        for _ in range(100):
            t = random_t(rng)
            st = random_strengths(rng)
            ang = tuple(rng.uniform(0, np.pi, 3))
            sv_t = np.linalg.svd(t, compute_uv=False)
            sv_c = np.linalg.svd(self.op.coefficient_matrix(st, ang), compute_uv=False)
            assert abs(bound_at(self.kind, t, st, ang) - (sv_t[:2] @ sv_c[:2])) < 1e-10


class EqualStrengths(OperatorProperty):
    CASES = {"mermin": Case(ghz=4.0), "svetlichny": Case(ghz=4.0 * ROOT2)}

    def equal_strengths(self, t, rx, ry, rz):
        return self.op.closed_form("equal_strengths")(*_t_svals(t), rx, ry, rz)

    def test_ghz_unit(self):
        report = self.equal_strengths(ghz_t(), 1.0, 1.0, 1.0)
        assert abs(report.bound_value - self.case.ghz) < 1e-12
        np.testing.assert_allclose(report.achieving_angles, ORTH, atol=1e-12)

    def test_zero(self):
        assert self.equal_strengths(ghz_t(), 0, 0, 0).bound_value == 0.0


class SufficientOrthogonal(OperatorProperty):
    CASES = {"mermin": Case(ghz=4.0), "svetlichny": Case(ghz=4.0 * ROOT2)}

    def certificate(self, strengths):
        """(value, violated) of the orthogonal certificate on GHZ."""
        r = self.op.closed_form("orthogonal_sufficient")(*_t_svals(ghz_t()), strengths)
        return r.bound_value, r.bound_value > self.op.classical_limit

    def test_ghz_unit(self):
        value, violated = self.certificate(Strengths.uniform(1.0))
        assert abs(value - self.case.ghz) < 1e-12
        assert violated

    def test_zero(self):
        value, violated = self.certificate(Strengths.uniform(0.0))
        assert value == 0.0 and not violated


class SixVariant(OperatorProperty):
    CASES = {"mermin": Case(equal_seed=9, base_seed=10, exchanged_seed=11),
             "svetlichny": Case(equal_seed=10, base_seed=11, exchanged_seed=12)}

    def six_variant(self, t, strengths, angles):
        return self.op.six_variant(*_t_svals(t), strengths, angles).bound_value

    def test_equal_strengths_reduce_exactly(self):
        rng = np.random.default_rng(self.case.equal_seed)
        for _ in range(50):
            t = random_t(rng)
            st = Strengths.equal(*rng.uniform(0, 1, 3))
            ang = tuple(rng.uniform(0, np.pi, 3))
            assert abs(self.six_variant(t, st, ang) - bound_at(self.kind, t, st, ang)) < 1e-12

    def test_zero(self):
        r = self.op.six_variant(*_t_svals(ghz_t()), Strengths.uniform(0.0), ORTH)
        value, violated = r.bound_value, r.bound_value > self.op.classical_limit
        assert value == 0.0 and not violated

    def test_dominates_base_bound(self):
        rng = np.random.default_rng(self.case.base_seed)
        for _ in range(100):
            t = random_t(rng)
            st = random_strengths(rng)
            ang = tuple(rng.uniform(0, np.pi, 3))
            assert self.six_variant(t, st, ang) >= bound_at(self.kind, t, st, ang) - 1e-12

    def test_dominates_exchanged_operator_values(self, held_variant_values):
        # unequal strengths on every party: each exchanged operator's value at
        # random settings, and at the settings a see-saw held at their angles
        # reaches, stays below the criterion at those angles
        rng = np.random.default_rng(self.case.exchanged_seed)
        for trial in range(30):
            d = decompose(ThreeQubitState(random_density(rng)))
            r = rng.uniform(0.1, 1, 6)
            obs = []
            for strength in r:
                direction = rng.normal(size=3)
                direction /= np.linalg.norm(direction)
                obs.append(GeneralObservable(0.0, strength, direction))
            setting = MeasurementSetting(*obs)
            st, angles = Strengths.from_iterable(r), setting.relative_angles
            tilde = self.six_variant(d.t_matrix, st, angles)
            values = [abs(v) for v in variant_expectations(d, setting, self.kind)]
            if trial < 3:
                values += held_variant_values(d, st, self.kind, angles)
            assert max(values) <= tilde + 1e-9
        # for Mermin, with the angle-cosine cross terms at absolute value the
        # criterion was 0.0712 here, below the 0.0906 that the held see-saw reaches
        d = decompose(random_state(79))
        st, angles = Strengths(0.7, 0.21, 0.37, 0.16, 0.64, 0.17), (0.72, 1.41, 1.42)
        tilde = self.six_variant(d.t_matrix, st, angles)
        assert max(held_variant_values(d, st, self.kind, angles)) <= tilde + 1e-9


class BiasMax(OperatorProperty):
    """k_max (Mermin) or l_max (Svetlichny), the bias-only maximum on a T-state."""

    CASES = {"mermin": Case(limit=2.0, equal_rs=(0.0, 0.3, 0.9, 1.0),
                            brute_seed=11, range_seed=12),
             "svetlichny": Case(limit=4.0, equal_rs=(0.0, 0.25, 0.8, 1.0),
                                brute_seed=12, range_seed=13)}

    def bias_max(self, strengths):
        return self.op.closed_form("bias_max")(strengths)

    def test_unit_strengths(self):
        assert self.bias_max(Strengths.uniform(1.0)) == 0.0

    def test_zero_strengths(self):
        assert self.bias_max(Strengths.uniform(0.0)) == self.case.limit

    def test_equal_strengths_closed_form(self):
        for r in self.case.equal_rs:
            expected = self.case.limit * (1 - r) ** 3
            assert abs(self.bias_max(Strengths.uniform(r)) - expected) < 1e-14

    def test_matches_brute_force_on_500_draws(self):
        rng = np.random.default_rng(self.case.brute_seed)
        for _ in range(500):
            st = random_strengths(rng)
            assert abs(self.bias_max(st) - bias_max_brute(self.kind, st)) <= 1e-12

    def test_range(self):
        rng = np.random.default_rng(self.case.range_seed)
        for _ in range(200):
            v = self.bias_max(random_strengths(rng))
            assert 0.0 <= v <= self.case.limit + 1e-12


class TstateBound(OperatorProperty):
    # equal_values: the T-state bound at GHZ, orthogonal angles and strengths r
    CASES = {"mermin": Case(limit=2.0, r=0.9,
                            equal_values=(2 * 0.9**3 * 2 + 2 * (1 - 0.9) ** 3, 2.918)),
             "svetlichny": Case(limit=4.0, r=0.95,
                                equal_values=(2 * ROOT2 * 0.95**3 * 2 + 4 * (1 - 0.95) ** 3,))}

    def tstate(self, strengths, decomp=None):
        return self.op.tstate(*_t_svals(ghz_t()), strengths, ORTH, decomp).bound_value

    def test_unit_strengths_reduce_to_unbiased(self):
        st = Strengths.uniform(1.0)
        assert self.tstate(st) == bound_at(self.kind, ghz_t(), st, ORTH)

    def check_zero_strengths_exact(self):
        assert self.tstate(Strengths.uniform(0.0)) == self.case.limit

    def test_equal_strength_value(self):
        value = self.tstate(Strengths.uniform(self.case.r))
        for expected in self.case.equal_values:
            assert abs(value - expected) < 1e-12

    def test_rejects_non_tstate_decomposition(self):
        with pytest.raises(ValueError, match="T-state"):
            self.tstate(Strengths.uniform(0.5), decomp=decompose(ghz_state()))


class BiasedWindow(OperatorProperty):
    CASES = {"mermin": Case(ghz=(2.0 ** (-1.0 / 3.0), (-3.0 + np.sqrt(21.0)) / 2.0),
                            boundary=1.0, root_ps=(1.3, 2.0, 2.5)),
             "svetlichny": Case(ghz=(2.0 ** (-1.0 / 6.0),
                                     (-3.0 + np.sqrt(3.0) * np.sqrt(2.0 * ROOT2 * 2.0 - 1.0))
                                     / (ROOT2 * (2.0 - ROOT2))),
                                boundary=ROOT2, root_ps=(1.5, 2.0, 3.0))}

    def optima(self, p, r):
        """(unbiased, biased) T-state optimum at equal strengths r and
        p = sqrt(s1^2 + s2^2): limit r^3 p / threshold, plus limit (1 - r)^3."""
        limit = self.op.classical_limit
        unbiased = limit * p / self.op.window_threshold * r**3
        return unbiased, unbiased + limit * (1 - r) ** 3

    def test_ghz_values(self):
        ru, rb = self.op.biased_window(2.0)
        assert abs(ru - self.case.ghz[0]) < 1e-12
        assert abs(rb - self.case.ghz[1]) < 1e-12
        assert rb < ru

    def test_boundary_rejected(self):
        with pytest.raises(ValueError):
            self.op.biased_window(self.case.boundary)

    def test_nan_rejected(self):
        with pytest.raises(ValueError, match="window requires"):
            self.op.biased_window(float("nan"))

    def test_thresholds_are_exact_roots(self):
        limit = self.op.classical_limit
        for p in self.case.root_ps:
            ru, rb = self.op.biased_window(p)
            assert abs(self.optima(p, ru)[0] - limit) < 1e-10
            assert abs(self.optima(p, rb)[1] - limit) < 1e-10

    def test_window_property(self):
        limit = self.op.classical_limit
        for p in (1.5, 2.0):
            ru, rb = self.op.biased_window(p)
            unbiased, biased = self.optima(p, 0.5 * (rb + ru))
            assert unbiased <= limit < biased
            for r in np.linspace(rb + 1e-6, ru, 7):
                unbiased, biased = self.optima(p, r)
                assert unbiased <= limit + 1e-9
                assert biased > limit


def test_every_property_is_bound_for_every_operator():
    properties = sorted(prop.__name__ for prop in OperatorProperty.__subclasses__())
    for prop in OperatorProperty.__subclasses__():
        assert set(getattr(prop, "CASES", OPERATORS)) == set(OPERATORS), prop.__name__
    for name in OPERATORS:
        module = importlib.import_module(f"test_{name}")
        bound = sorted(base.__name__ for cls in vars(module).values()
                       if isinstance(cls, type) and getattr(cls, "kind", None) == name
                       for base in cls.__bases__)
        assert bound == properties, name


@functools.cache
def edge_tstates():
    """60 random T tensors (seed 21), each scaled so that the operator
    O_T = sum T_ijk sigma_i x sigma_j x sigma_k has norm 1, the edge of
    positivity of (I + O_T)/8, with the decomposition of that T-state."""
    rng = np.random.default_rng(21)
    pauli = np.stack([SX, SY, SZ])
    found = []
    for _ in range(60):
        t = rng.normal(size=(3, 3, 3))
        o = np.einsum("ijk,iab,jcd,kef->acebdf", t, pauli, pauli, pauli).reshape(8, 8)
        t /= np.abs(np.linalg.eigvalsh(o)).max()
        found.append((t, decompose(t_state(t))))
    return found


def test_physical_tstates_have_frobenius_norm_at_most_one():
    # the spin flip sigma_y^3 rho* sigma_y^3 of rho = (I + O_T)/8 is (I - O_T)/8,
    # also a state, so ||O_T|| <= 1, and tr(O_T^2) = 8 ||T||_F^2
    for t, _ in edge_tstates():
        assert np.linalg.norm(t) <= 1.0 + 1e-12


@pytest.mark.parametrize("kind", sorted(OPERATORS))
def test_physical_tstates_stay_classical_at_equal_strengths(kind):
    # ||T||_F <= 1 bounds the unbiased part by limit R^3, so the T-state bound
    # is at most limit (R^3 + (1 - R)^3) <= limit
    op = OPERATORS[kind]
    rng = np.random.default_rng(22)
    for t, decomp in edge_tstates():
        s1, s2 = _t_svals(t)
        for r in rng.uniform(0, 1, 5):
            for angles in (tuple(rng.uniform(0, np.pi, 3)),
                           op.closed_form("equal_strength_angles")(s1, s2)):
                value = op.tstate(s1, s2, Strengths.uniform(r), angles, decomp=decomp)
                assert value.bound_value <= op.classical_limit * (1 + 1e-12)
