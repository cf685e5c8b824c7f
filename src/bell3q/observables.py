"""General dichotomic qubit observables and Bell-operator expectations.

An observable with outcomes +-1 is parameterized as B*I + R*(sigma . n)
with bias B, strength R >= 0 and unit direction n, subject to R + |B| <= 1
(positivity of the two effects).  Strength 1 with zero bias is projective;
strength 0 is a coin toss with outcome probabilities (1 +- B)/2.

In the homogeneous form h = (B, R n) the observable is sum_mu h[mu] sigma_mu,
so a triple correlator is Lambda[mu, nu, gamma] h_x[mu] h_y[nu] h_z[gamma]
over the state's Pauli coefficients.  A Bell operator is a 2x2x2 sign tensor
over the unprimed/primed choice of each party, contracted with the same form.
"""

from __future__ import annotations

from dataclasses import dataclass
from importlib import import_module

import numpy as np

from .pauli import PAULI, CorrelationDecomposition

__all__ = [
    "GeneralObservable",
    "MeasurementSetting",
    "triple_expectation",
    "mermin_expectation",
    "svetlichny_expectation",
    "variant_expectations",
    "Operator",
    "OPERATORS",
    "VARIANT_SWAPS",
]

CONSTRAINT_TOL = 1e-12


def _unit(v) -> np.ndarray:
    v = np.asarray(v, dtype=float)
    return v / np.linalg.norm(v)


@dataclass(frozen=True)
class GeneralObservable:
    bias: float
    strength: float
    direction: np.ndarray

    def __post_init__(self):
        direction = np.asarray(self.direction, dtype=float)
        if direction.shape != (3,):
            raise ValueError("direction must be a 3-vector")
        norm = np.linalg.norm(direction)
        if abs(norm - 1.0) > CONSTRAINT_TOL:
            raise ValueError(f"direction norm {norm!r} is not 1")
        if self.strength < 0:
            raise ValueError("strength must be non-negative")
        # <= with slack so the boundary R + |B| = 1 (extreme biases) is accepted
        if self.strength + abs(self.bias) > 1.0 + CONSTRAINT_TOL:
            raise ValueError(
                f"strength + |bias| = {self.strength + abs(self.bias)!r} exceeds 1")
        direction = direction.copy()
        direction.flags.writeable = False
        object.__setattr__(self, "direction", direction)

    @classmethod
    def sharp(cls, direction) -> "GeneralObservable":
        return cls(bias=0.0, strength=1.0, direction=_unit(direction))

    @property
    def homogeneous(self) -> np.ndarray:
        """(B, R n): the coefficients of the observable over (I, sigma_x, sigma_y, sigma_z)."""
        return np.concatenate(([self.bias], self.strength * self.direction))

    def matrix(self) -> np.ndarray:
        n = self.direction
        return self.bias * PAULI[0] + self.strength * (
            n[0] * PAULI[1] + n[1] * PAULI[2] + n[2] * PAULI[3])


def _angle_between(a: np.ndarray, b: np.ndarray) -> float:
    # clamp before arccos so numerically parallel vectors cannot produce NaN
    return float(np.arccos(np.clip(a @ b, -1.0, 1.0)))


@dataclass(frozen=True)
class MeasurementSetting:
    """Six observables, two per party, labeled X, X', Y, Y', Z, Z'."""

    x: GeneralObservable
    x_prime: GeneralObservable
    y: GeneralObservable
    y_prime: GeneralObservable
    z: GeneralObservable
    z_prime: GeneralObservable

    @property
    def observables(self) -> tuple[GeneralObservable, ...]:
        return (self.x, self.x_prime, self.y, self.y_prime, self.z, self.z_prime)

    @property
    def relative_angles(self) -> tuple[float, float, float]:
        """(theta_x, theta_y, theta_z), each in [0, pi], from the directions."""
        return (
            _angle_between(self.x.direction, self.x_prime.direction),
            _angle_between(self.y.direction, self.y_prime.direction),
            _angle_between(self.z.direction, self.z_prime.direction),
        )

    @property
    def strengths_array(self) -> np.ndarray:
        return np.array([o.strength for o in self.observables])

    @property
    def biases_array(self) -> np.ndarray:
        return np.array([o.bias for o in self.observables])

    @classmethod
    def from_arrays(cls, biases, strengths, directions) -> "MeasurementSetting":
        obs = [GeneralObservable(bias=float(b), strength=float(r), direction=d)
               for b, r, d in zip(biases, strengths, directions)]
        return cls(*obs)

    def swapped(self, pattern: tuple[int, int, int]) -> "MeasurementSetting":
        """Exchange primed and unprimed observables on the flagged parties."""
        x, xp = (self.x_prime, self.x) if pattern[0] else (self.x, self.x_prime)
        y, yp = (self.y_prime, self.y) if pattern[1] else (self.y, self.y_prime)
        z, zp = (self.z_prime, self.z) if pattern[2] else (self.z, self.z_prime)
        return MeasurementSetting(x, xp, y, yp, z, zp)

    @property
    def homogeneous(self) -> np.ndarray:
        """(3, 2, 4): per party, the (B, R n) vectors of the unprimed and primed
        observable."""
        return np.stack([o.homogeneous for o in self.observables]).reshape(3, 2, 4)


@dataclass(frozen=True)
class Operator:
    """One Bell operator as data.

    ``signs[a, b, c]`` is the coefficient of the product X^(a) Y^(b) Z^(c),
    where index 1 selects the primed observable.  The closed forms live in
    the module ``bell3q.<name>``; ``closed_forms`` maps each role to its
    attribute name there, and :meth:`closed_form` looks the attribute up at
    call time, so a replaced module attribute is seen by every caller.
    ``window_threshold`` is the value of sqrt(s1^2 + s2^2) that the biased
    window requires to be exceeded.
    """

    name: str
    signs: np.ndarray
    classical_limit: float
    window_threshold: float
    closed_forms: dict

    def __post_init__(self):
        self.signs.flags.writeable = False

    def closed_form(self, role: str):
        return getattr(import_module(f".{self.name}", __package__), self.closed_forms[role])


class _OperatorLookup(dict):
    def __missing__(self, kind):
        raise ValueError(f"unknown operator kind: {kind!r}")


# Mermin: XYZ' + XY'Z + X'YZ - X'Y'Z'.  Svetlichny adds XYZ and subtracts
# the other three products.
OPERATORS = _OperatorLookup(
    mermin=Operator(
        name="mermin",
        signs=np.array([[[0.0, 1.0], [1.0, 0.0]], [[1.0, 0.0], [0.0, -1.0]]]),
        classical_limit=2.0,
        window_threshold=1.0,
        closed_forms={
            "coefficient_matrix": "build_v_matrix",
            "plus_minus": "i_plus_minus",
            "equal_strength_angles": "equal_strength_angles",
            "optimal_angles": "optimal_unbiased_angles",
            "biased_window": "mermin_biased_window",
            "unbiased_general": "mermin_bound_unbiased",
            "equal_strengths": "mermin_bound_equal_strengths",
            "orthogonal_sufficient": "mermin_sufficient_orthogonal",
            "six_variant": "mermin_six_variant_criterion",
            "tstate_general": "mermin_bound_tstate",
            "x_asymmetric": "mermin_bound_x_asymmetric",
            "degenerate_smax": "mermin_bound_degenerate_smax",
        }),
    svetlichny=Operator(
        name="svetlichny",
        signs=np.array([[[1.0, 1.0], [1.0, -1.0]], [[1.0, -1.0], [-1.0, -1.0]]]),
        classical_limit=4.0,
        window_threshold=float(np.sqrt(2.0)),
        closed_forms={
            "coefficient_matrix": "build_w_matrix",
            "plus_minus": "j_plus_minus",
            "equal_strength_angles": "equal_strength_angles_svetlichny",
            "optimal_angles": "optimal_unbiased_angles_svetlichny",
            "biased_window": "svetlichny_biased_window",
            "unbiased_general": "svetlichny_bound_unbiased",
            "equal_strengths": "svetlichny_bound_equal_strengths",
            "orthogonal_sufficient": "svetlichny_sufficient_orthogonal",
            "six_variant": "svetlichny_six_variant_criterion",
            "tstate_general": "svetlichny_bound_tstate",
            "x_asymmetric": "svetlichny_bound_x_asymmetric_best",
            "degenerate_smax": "svetlichny_bound_degenerate_smax",
        }),
)

# The six proper per-party exchange patterns.  The identity reproduces the
# base operator and the all-party exchange its partner combination, so the
# six patterns below are the distinct new operators the exchanges generate.
VARIANT_SWAPS = ((1, 0, 0), (0, 1, 0), (0, 0, 1), (1, 1, 0), (1, 0, 1), (0, 1, 1))


def triple_expectation(decomp: CorrelationDecomposition,
                       x_obs: GeneralObservable,
                       y_obs: GeneralObservable,
                       z_obs: GeneralObservable) -> float:
    """<X Y Z> = sum Lambda[mu, nu, gamma] h_x[mu] h_y[nu] h_z[gamma].

    Agrees with the dense 8x8 trace to machine precision.
    """
    return float(np.einsum("mng,m,n,g->", decomp.lam, x_obs.homogeneous,
                           y_obs.homogeneous, z_obs.homogeneous))


def _operator_expectation(decomp, setting, operator_kind: str) -> float:
    hx, hy, hz = setting.homogeneous
    return float(np.einsum("abc,mng,am,bn,cg->", OPERATORS[operator_kind].signs,
                           decomp.lam, hx, hy, hz))


def mermin_expectation(decomp: CorrelationDecomposition,
                       setting: MeasurementSetting) -> float:
    """<XYZ'> + <XY'Z> + <X'YZ> - <X'Y'Z'>."""
    return _operator_expectation(decomp, setting, "mermin")


def svetlichny_expectation(decomp: CorrelationDecomposition,
                           setting: MeasurementSetting) -> float:
    """The eight-term combination whose classical bound is 4."""
    return _operator_expectation(decomp, setting, "svetlichny")


def variant_expectations(decomp: CorrelationDecomposition,
                         setting: MeasurementSetting,
                         operator_kind: str) -> list[float]:
    """The operator value under the six proper primed/unprimed exchanges."""
    return [_operator_expectation(decomp, setting.swapped(p), operator_kind)
            for p in VARIANT_SWAPS]
