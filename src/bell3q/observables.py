"""General dichotomic qubit observables and Bell-operator expectations.

An observable with outcomes +-1 is parameterized as B*I + R*(sigma . n)
with bias B, strength R >= 0 and unit direction n, subject to R + |B| <= 1
(positivity of the two effects).  Strength 1 with zero bias is projective;
strength 0 is a coin toss with outcome probabilities (1 +- B)/2.

In the homogeneous form h = (B, R n) the observable is sum_mu h[mu] sigma_mu,
so a triple correlator is Lambda[mu, nu, gamma] h_x[mu] h_y[nu] h_z[gamma]
over the state's Pauli coefficients.  A Bell operator is a 2x2x2 sign tensor
over the unprimed/primed choice of each party, contracted with the same form.
With each party's directions written as half-angle rows times an orthogonal
frame, the same sign tensor gives the coefficient matrix (V for Mermin, W for
Svetlichny) that pairs with the correlation matrix T.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from functools import cached_property
from importlib import import_module

import numpy as np

from .pauli import CorrelationDecomposition
from .reports import BoundReport, Strengths
from .states import is_tstate

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
    "exchange_order",
    "half_angle_rows",
    "angles_in_range",
]

CONSTRAINT_TOL = 1e-12

# Operator.grid_angles: seed lattice stride, seeds refined together, stencil
# half-width in steps, step shrink factor, smallest step and round cap.
SEED_STRIDE = 3
SEED_COUNT = 4
STENCIL_HALF = 3
STEP_SHRINK = 4.0
STEP_MIN = 1e-7
SEARCH_ROUNDS = 60


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
        if not abs(norm - 1.0) <= CONSTRAINT_TOL:  # NaN fails each check
            raise ValueError(f"direction norm {norm!r} is not 1")
        if not self.strength >= 0:
            raise ValueError("strength must be non-negative")
        # <= with slack so the boundary R + |B| = 1 (extreme biases) is accepted
        if not self.strength + abs(self.bias) <= 1.0 + CONSTRAINT_TOL:
            raise ValueError(
                f"strength + |bias| = {self.strength + abs(self.bias)!r} exceeds 1")
        direction = direction.copy()
        direction.flags.writeable = False
        object.__setattr__(self, "direction", direction)

    @property
    def homogeneous(self) -> np.ndarray:
        """(B, R n): the coefficients of the observable over (I, sigma_x, sigma_y, sigma_z)."""
        return np.concatenate(([self.bias], self.strength * self.direction))


def _angle_between(a: np.ndarray, b: np.ndarray) -> float:
    # atan2 of |a x b| and a.b is accurate at every angle; arccos(a.b) loses
    # half the digits near 0 and pi (1 - 2e-16 gives 2e-8)
    return float(np.arctan2(np.linalg.norm(np.cross(a, b)), a @ b))


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
        return MeasurementSetting(*(self.observables[i] for i in exchange_order(pattern)))

    @property
    def homogeneous(self) -> np.ndarray:
        """(3, 2, 4): per party, the (B, R n) vectors of the unprimed and primed
        observable."""
        return np.stack([o.homogeneous for o in self.observables]).reshape(3, 2, 4)


def exchange_order(pattern) -> tuple[int, ...]:
    """Slots of (X, X', Y, Y', Z, Z') once the flagged parties' pairs are exchanged."""
    return tuple(2 * party + (k ^ flag) for party, flag in enumerate(pattern) for k in (0, 1))


def half_angle_rows(theta) -> np.ndarray:
    """(2, 3): u0 = (cos theta/2, sin theta/2, 0) and u1 = (cos theta/2, -sin theta/2, 0).

    A party's unprimed and primed directions at relative angle theta are these
    rows times an orthogonal frame: u0 @ F and u1 @ F.
    """
    c, s = np.cos(theta / 2.0), np.sin(theta / 2.0)
    return np.array([[c, s, 0.0], [c, -s, 0.0]])


def angles_in_range(angles) -> bool:
    """Whether each relative angle lies in [0, pi], with 1e-12 slack above pi;
    NaN fails.  Outside it the I+- and J+- closed forms, which take sin(theta_x)
    unsquared, return P and M swapped and fall below the pairing."""
    return all(0.0 <= a <= np.pi + CONSTRAINT_TOL for a in angles)


def _require_angles(angles):
    if not angles_in_range(angles):
        raise ValueError(f"relative angles must lie in [0, pi], got {angles!r}")


@dataclass(frozen=True)
class Operator:
    """One Bell operator as data, and the bounds both operators share.

    ``signs[a, b, c]`` is the coefficient of the product X^(a) Y^(b) Z^(c),
    where index 1 selects the primed observable.  The closed forms that differ
    between the operators live in the module ``bell3q.<name>``;
    ``closed_forms`` maps each role to its attribute name there, and
    :meth:`closed_form` looks the attribute up in it at call time, so a replaced
    module attribute is seen by every caller.  ``window_threshold`` is the
    value of sqrt(s1^2 + s2^2) that the biased window requires to be exceeded.

    The methods after :meth:`coefficient_matrix` are the operator-generic
    bounds.  Each takes the two largest singular values (s1, s2) of T and
    pairs them through the record's ``pair_form``.  The closed forms
    the record names take (s1, s2), s_max or strengths only, never T itself,
    and each bound returns a :class:`BoundReport`.  :meth:`plus_bias_max` is
    the one place the T-state term ``bias_max`` is added to a bound.
    """

    name: str
    signs: np.ndarray
    classical_limit: float
    window_threshold: float
    closed_forms: dict

    def __post_init__(self):
        self.signs.flags.writeable = False

    @cached_property
    def module(self):  # imported on first use, as it imports this module
        return import_module(f".{self.name}", __package__)

    def closed_form(self, role: str):
        return getattr(self.module, self.closed_forms[role])

    def coefficient_matrix(self, strengths, angles) -> np.ndarray:
        """The 3x9 matrix C with <operator> = sum C * (F_x T (F_y kron F_z)^T) for
        unbiased observables whose directions are half-angle rows times frames.

        C[i, j, k] = sum S[a,b,c] R_Xa R_Yb R_Zc u_a[i] v_b[j] w_c[k], flattened
        to column 3*j + k.  The third row and every column with j = 2 or k = 2
        are structurally zero, so the third singular value is exactly 0.
        """
        r = strengths.as_array().reshape(3, 2, 1)
        u, v, w = (r[p] * half_angle_rows(theta) for p, theta in enumerate(angles))
        return np.einsum("abc,ai,bj,ck->ijk", self.signs, u, v, w).reshape(3, 9)

    def pair_bound(self, s1, s2, strengths, angles):
        """0.5(s1+s2) P + 0.5(s1-s2) M = s1 s1(C) + s2 s2(C), with (P, M) the
        ``pair_form`` closed form; angles may be broadcastable arrays."""
        form = self.closed_form("pair_form")(strengths, s1, s2)
        return form.pair(*form.plus_minus(angles))

    def unbiased(self, s1, s2, strengths, angles) -> BoundReport:
        """s1(T) s1(C) + s2(T) s2(C) for unbiased observables, attained when a product
        rotation aligns the top right singular subspaces of T and C; angles in [0, pi]."""
        _require_angles(angles)
        return BoundReport(bound_value=self.pair_bound(s1, s2, strengths, angles),
                           criterion=f"{self.name}_unbiased_general",
                           achieving_angles=tuple(float(a) for a in angles))

    def six_variant(self, s1, s2, strengths, angles) -> BoundReport:
        """The largest ``pair_bound`` of the operator and its six ``VARIANT_SWAPS``
        variants, so a bound on each at these angles: exchanging a party's pair
        reflects its half-angle rows, which keeps s(C), so a variant's bound is
        ``pair_bound`` at that party's strengths exchanged.  At equal per-side
        strengths it is one call, equal to ``unbiased``."""
        _require_angles(angles)
        st = strengths
        value = float(self.pair_bound(s1, s2, st, angles))
        for order in _EXCHANGES[st.rx != st.rxp, st.ry != st.ryp, st.rz != st.rzp]:
            exchanged = Strengths(*st.as_array()[order])
            value = max(value, float(self.pair_bound(s1, s2, exchanged, angles)))
        return BoundReport(value, f"{self.name}_six_variant",
                           achieving_angles=tuple(float(a) for a in angles),
                           notes="criterion for the six exchanged operators")

    def plus_bias_max(self, report: BoundReport, strengths) -> BoundReport:
        """``report``, a bound for unbiased observables, plus the bias-only maximum
        ``bias_max`` at ``strengths``: the bound for biased observables on a T-state.
        Biases and directions are independent, so both parts are reached together
        whenever the report's part is.  ``_tstate`` goes into the label before a
        trailing ``_best``, or at its end."""
        stem = report.criterion.removesuffix("_best")
        return replace(report, criterion=stem + "_tstate" + report.criterion[len(stem):],
                       bound_value=report.bound_value + self.closed_form("bias_max")(strengths))

    def tstate(self, s1, s2, strengths, angles, decomp=None) -> BoundReport:
        """``unbiased`` plus the bias-only maximum, labeled ``tstate_general``.  With
        ``decomp`` the state is checked to be a T-state."""
        if decomp is not None and not is_tstate(decomp):
            raise ValueError("state is not a T-state: local or bipartite blocks are nonzero")
        report = self.plus_bias_max(self.unbiased(s1, s2, strengths, angles), strengths)
        return replace(report, criterion=f"{self.name}_tstate_general")

    def grid_angles(self, s1, s2, strengths, resolution: int = 64):
        """(angles, value): the largest unbiased bound the search finds over
        the angle cube [0, pi]^3, with value = ``pair_bound`` at the angles.

        Seeded pattern search: every ``SEED_STRIDE``-th point of the
        resolution^3 lattice k pi / (resolution - 1) is evaluated, and the
        ``SEED_COUNT`` best points are refined together, each on a 7^3
        stencil that starts at one lattice step.  A seed keeps its step while
        its best stencil point improves on the centre and lies on the
        stencil's edge; otherwise the step shrinks by ``STEP_SHRINK``, down to
        ``STEP_MIN`` or for ``SEARCH_ROUNDS`` rounds.  Exact ties go to the
        seed with the smallest lattice index, so a maximum tied across lattice
        points keeps the angles of the lattice argmax.
        """
        if resolution < 2:
            raise ValueError(f"resolution must be >= 2, got {resolution!r}")
        form = self.closed_form("pair_form")(strengths, s1, s2)
        coarse = np.linspace(0.0, np.pi, resolution)[::SEED_STRIDE]
        values = form.pair(*form.plus_minus(
            np.meshgrid(coarse, coarse, coarse, indexing="ij", sparse=True)))
        flat = values.ravel()
        # the best points, ties toward the smallest index; kept in index order so
        # that argmax over the refined values breaks exact ties the same way
        count = min(SEED_COUNT, flat.size)
        candidates = np.flatnonzero(flat >= np.partition(flat, -count)[-count])
        seeds = np.sort(candidates[np.argsort(-flat[candidates], kind="stable")[:count]])
        best = coarse[np.stack(np.unravel_index(seeds, values.shape), axis=1)]  # (K, 3)
        best_values = flat[seeds]
        steps = np.full(count, np.pi / (resolution - 1))
        width = 2 * STENCIL_HALF + 1
        offsets = np.arange(width) - STENCIL_HALF
        strides = np.array([width * width, width, 1])
        rows = np.arange(count)
        for _ in range(SEARCH_ROUNDS):
            if steps.max() < STEP_MIN:
                break
            axes = np.clip(best[:, :, None] + steps[:, None, None] * offsets, 0.0, np.pi)
            trial = form.pair(*form.from_trig(*(  # trig once per axis value, viewed per grid
                (t[:, 0, :, None, None], t[:, 1, None, :, None], t[:, 2, None, None, :])
                for t in (np.cos(axes), np.sin(axes), np.cos(2 * axes))))).reshape(count, -1)
            at = trial.argmax(axis=1)
            index = at[:, None] // strides % width  # (K, 3)
            top = trial[rows, at]
            improved = top > best_values
            best[improved] = axes[rows[:, None], np.arange(3), index][improved]
            best_values = np.maximum(best_values, top)
            on_edge = ((index == 0) | (index == width - 1)).any(axis=1)
            steps[~(improved & on_edge)] /= STEP_SHRINK
        angles = tuple(float(a) for a in best[int(np.argmax(best_values))])
        return angles, float(form.pair(*form.plus_minus(angles)))

    def biased_window(self, p: float) -> tuple[float, float]:
        """(r_unbiased, r_biased) for equal strengths R and p = sqrt(s1^2 + s2^2).

        With q = p / window_threshold the unbiased optimum is classical_limit R^3 q
        (2 R^3 p for Mermin) and the biased T-state optimum adds classical_limit
        (1 - R)^3.  Above r_unbiased, where R^3 q = 1, the unbiased optimum exceeds
        the classical limit; above the smaller r_biased, where R^3 q + (1 - R)^3 = 1,
        the biased optimum already does.
        """
        if not p > self.window_threshold:  # also rejects NaN
            raise ValueError(f"window requires sqrt(s1^2+s2^2) > "
                             f"{self.window_threshold:.6g}, got {p!r}")
        q = p / self.window_threshold
        # (-3 + sqrt(3) sqrt(4q - 1)) / (2 (q - 1)) with the cancellation removed
        r_biased = 2.0 / (1.0 + np.sqrt((4.0 * q - 1.0) / 3.0))
        return float(q ** (-1.0 / 3.0)), float(r_biased)


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
            "pair_form": "IForm",
            "equal_strength_angles": "equal_strength_angles",
            "optimal_angles": "optimal_unbiased_angles",
            "equal_strengths": "equal_strength_bound",
            "orthogonal_sufficient": "mermin_sufficient_orthogonal",
            "bias_max": "k_max",
            "x_asymmetric": "mermin_bound_x_asymmetric",
            "degenerate_smax": "mermin_bound_degenerate_smax",
        }),
    svetlichny=Operator(
        name="svetlichny",
        signs=np.array([[[1.0, 1.0], [1.0, -1.0]], [[1.0, -1.0], [-1.0, -1.0]]]),
        classical_limit=4.0,
        window_threshold=float(np.sqrt(2.0)),
        closed_forms={
            "pair_form": "JForm",
            "equal_strength_angles": "equal_strength_angles_svetlichny",
            "optimal_angles": "optimal_unbiased_angles_svetlichny",
            "equal_strengths": "equal_strength_bound_svetlichny",
            "orthogonal_sufficient": "svetlichny_sufficient_orthogonal",
            "bias_max": "l_max",
            "x_asymmetric": "svetlichny_bound_x_asymmetric_best",
            "degenerate_smax": "svetlichny_bound_degenerate_smax",
        }),
)

# The six proper per-party exchange patterns.  The identity reproduces the
# base operator and the all-party exchange its partner combination, so the
# six patterns below are the distinct new operators the exchanges generate.
VARIANT_SWAPS = ((1, 0, 0), (0, 1, 0), (0, 0, 1), (1, 1, 0), (1, 0, 1), (0, 1, 1))
# Operator.six_variant: keyed by which parties' two strengths differ, the slot orders of the
# patterns that flag only such parties; any other repeats the identity's or a listed one's.
_EXCHANGES = {moved: [list(exchange_order(p)) for p in VARIANT_SWAPS
                      if all(m or not f for f, m in zip(p, moved))]
              for moved in np.ndindex(2, 2, 2)}


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
