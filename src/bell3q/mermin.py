"""Closed-form upper bounds and violation criteria for the Mermin operator.

Everything here is a function of the two largest singular values s1 >= s2
of the 3x9 tripartite correlation matrix T, the six strengths and the three
relative angles.  Only ``mermin_bound_unbiased`` and ``mermin_bound_equal_strengths``
take T; the other forms take (s1, s2), s_max or strengths.  The six-variant and
T-state bounds and the biased window are methods of ``OPERATORS["mermin"]``.
The central object is the 3x9 coefficient matrix V, whose singular values
pair with those of T:

    max |<Mermin operator>|  <=  s1(T) s1(V) + s2(T) s2(V)

for unbiased observables, with V built from strengths and half-angles.  The
combinations I+- = s1(V) +- s2(V) have a closed form that avoids the SVD.

For states with maximally mixed single- and two-party marginals (T-states)
an additive bias-only term ``k_max`` extends a bound to arbitrary biased
observables; ``Operator.plus_bias_max`` adds it.
"""

from __future__ import annotations

import numpy as np

from .observables import OPERATORS
from .pauli import as_t_matrix
from .reports import BoundReport, ConsistencyError, Strengths
from .smallmat import singular_values_3x9

__all__ = [
    "build_v_matrix",
    "i_plus_minus",
    "mermin_bound_unbiased",
    "mermin_bound_equal_strengths",
    "equal_strength_bound",
    "mermin_sufficient_orthogonal",
    "k_max",
    "mermin_bound_x_asymmetric",
    "mermin_bound_degenerate_smax",
    "optimal_unbiased_angles",
    "equal_strength_angles",
]

CLAMP_TOL = 1e-10


def _t_svals(t) -> tuple[float, float]:
    values = singular_values_3x9(as_t_matrix(t))
    return float(values[0]), float(values[1])


def _degenerate(s1: float, s2: float) -> bool:
    """Whether the two largest singular values of T coincide (to 1e-9 relative)."""
    return abs(s1 - s2) <= 1e-9 * max(1.0, s1)


def build_v_matrix(strengths: Strengths, angles) -> np.ndarray:
    """The 3x9 coefficient matrix of the Mermin form in the half-angle frame.

    Rows live on the party-X frame (sum, difference, normal); columns on the
    flattened (Y-frame, Z-frame) pairs with the package's 3*j + k convention.
    Only the 2x2 blocks at columns (0, 1) and (3, 4) are populated.
    """
    return OPERATORS["mermin"].coefficient_matrix(strengths, angles)


def _i_coefficients(s: Strengths):
    rx, rxp, ry, ryp, rz, rzp = s.as_array()
    i0 = rx**2 * (ry**2 * rzp**2 + ryp**2 * rz**2) + rxp**2 * (ry**2 * rz**2 + ryp**2 * rzp**2)
    ixy_z = rx * rxp * ry * ryp * (rz**2 - rzp**2)
    ixz_y = rx * rxp * rz * rzp * (ry**2 - ryp**2)
    iyz_x = ry * ryp * rz * rzp * (rx**2 - rxp**2)
    return i0, ixy_z, ixz_y, iyz_x


def _root(square, what: str):
    """sqrt of a closed form's square, rounding below 0 clamped; in place for arrays."""
    array = isinstance(square, np.ndarray)
    if (bad := square.min() if array else square) < -CLAMP_TOL:
        raise ConsistencyError(f"{what} evaluated to {bad:.3e} < -{CLAMP_TOL:.0e}")
    return (np.sqrt(np.maximum(square, 0.0, out=square), out=square) if array
            else float(np.sqrt(max(square, 0.0))))


class IForm:
    """I+- = s1(V) +- s2(V) = sqrt(base +- swing) at one strength tuple, and ``pair``
    with (s1, s2) of T; ``svetlichny.JForm`` changes the base and scale.  Strength
    products are taken once, so each layout of the angles gets the same floats."""

    letter, scale = "I", 2.0
    _coefficients = staticmethod(_i_coefficients)

    def __init__(self, strengths: Strengths, s1=0.0, s2=0.0):
        rx, rxp, ry, ryp, rz, rzp = strengths.as_array()
        self.weights = (0.5 * (s1 + s2), 0.5 * (s1 - s2))
        self.swing = self.scale * rx * rxp
        self.radicand = (ry**2 * ryp**2 * (rz**4 + rzp**4), rz**2 * rzp**2 * (ry**4 + ryp**4),
                         (ry * ryp * rz * rzp) ** 2)
        self.coefficients = self._coefficients(strengths)

    def plus_minus(self, angles):
        """(plus, minus) at broadcastable angles; floats for scalar angles."""
        angles = [np.asarray(a, dtype=float) for a in angles]
        return self.from_trig([np.cos(a) for a in angles], [np.sin(a) for a in angles],
                              [np.cos(2 * a) for a in angles])

    def from_trig(self, cos, sin, cos2):
        """(plus, minus) from each angle's cos, sin and cos(2 theta)."""
        (a, b, c), letter = self.radicand, self.letter
        inner = a * sin[1] ** 2 + b * sin[2] ** 2 + c * (1.0 - cos2[1] * cos2[2])
        # swing = scale R_X R_X' sin(tx) sqrt(inner): the radical that I+- and J+- share
        swing = self.swing * sin[0] * _root(inner, f"inner radicand of the {letter}+- closed form")
        base = self._base(*cos)
        return _root(base + swing, f"{letter}_plus^2"), _root(base - swing, f"{letter}_minus^2")

    def pair(self, plus, minus):
        return self.weights[0] * plus + self.weights[1] * minus

    def _base(self, cx, cy, cz):
        i0, ixy_z, ixz_y, iyz_x = self.coefficients
        return i0 + 2.0 * (ixy_z * cx * cy + ixz_y * cx * cz + iyz_x * cy * cz)


def i_plus_minus(strengths: Strengths, angles):
    """(s1(V) + s2(V), s1(V) - s2(V)) in closed form; angles broadcastable."""
    return IForm(strengths).plus_minus(angles)


def mermin_bound_unbiased(t, strengths: Strengths, angles) -> BoundReport:
    """``Operator.unbiased`` at the singular values of ``t``."""
    return OPERATORS["mermin"].unbiased(*_t_svals(t), strengths, angles)


def equal_strength_angles(s1: float, s2: float) -> tuple[float, float, float]:
    """Representative of the optimal-angle family for equal per-side strengths.

    The family is sin(tx) * sqrt(1 - cos^2(ty) cos^2(tz)) = 2 s1 s2 / (s1^2 + s2^2);
    the returned representative fixes ty = tz = pi/2.  Degenerate s1 = s2
    lands on fully orthogonal angles; s2 = 0 admits tx = 0.
    """
    denom = s1 * s1 + s2 * s2
    ratio = 0.0 if denom <= 0 else 2.0 * s1 * s2 / denom
    return (float(np.arcsin(np.clip(ratio, 0.0, 1.0))), np.pi / 2, np.pi / 2)


def mermin_bound_equal_strengths(t, rx: float, ry: float, rz: float) -> BoundReport:
    """``equal_strength_bound`` at the singular values of ``t``."""
    return equal_strength_bound(*_t_svals(t), rx, ry, rz)


def equal_strength_bound(s1: float, s2: float, rx: float, ry: float, rz: float) -> BoundReport:
    """2 R_X R_Y R_Z sqrt(s1^2 + s2^2), the angle-optimized equal-strength bound."""
    value = 2.0 * rx * ry * rz * np.sqrt(s1 * s1 + s2 * s2)
    return BoundReport(
        bound_value=float(value),
        criterion="mermin_equal_strengths",
        achieving_angles=equal_strength_angles(s1, s2),
        notes="optimal angles form a family; the orthogonal representative is reported",
    )


def mermin_sufficient_orthogonal(s1: float, s2: float, strengths: Strengths) -> BoundReport:
    """Violation certificate at orthogonal relative angles.

    The value pairs s1 with the (X, Y/Z', Y'/Z) strength radical and s2 with
    its partner; it never exceeds the general bound at orthogonal angles, so
    exceeding 2 certifies a violation.
    """
    st = strengths
    a = st.rx * np.sqrt(st.ry**2 * st.rzp**2 + st.ryp**2 * st.rz**2)
    b = st.rxp * np.sqrt(st.ry**2 * st.rz**2 + st.ryp**2 * st.rzp**2)
    return BoundReport(float(a * s1 + b * s2), "mermin_orthogonal_sufficient",
                       achieving_angles=(np.pi / 2, np.pi / 2, np.pi / 2),
                       notes="violation certificate, not an upper bound")


def k_max(strengths: Strengths) -> float:
    """Largest bias-only contribution to the Mermin expectation on a T-state.

    The contribution is multilinear in the six biases, so its maximum sits
    at the extreme biases +-(1 - R).  The sign patterns fall into two
    coherent classes; each class maximum has a closed form and the result
    matches exhaustive enumeration of all 64 sign choices exactly.
    """
    bx, bxp, by, byp, bz, bzp = strengths.bars
    e1 = bx * (by * bzp + byp * bz) + bxp * abs(by * bz - byp * bzp)
    e2 = bx * abs(by * bzp - byp * bz) + bxp * (by * bz + byp * bzp)
    return float(max(e1, e2))


def mermin_bound_x_asymmetric(s1: float, s2: float, rx: float, rxp: float, ry: float,
                              rz: float) -> BoundReport:
    """Bound with unequal strengths on the X side only (R_X >= R_X').

    Value 2 R_Y R_Z sqrt(R_X^2 s1^2 + R_X'^2 s2^2), valid at every angle
    triple.  The reported angles are the stated optimum family
    sin(ty) sin(tz) = 2 R_X R_X' s1 s2 / (R_X^2 s1^2 + R_X'^2 s2^2), tx = pi/2.
    """
    if rxp > rx + 1e-12:
        raise ValueError("requires rx >= rxp; swap the X-side labels")
    value = 2.0 * ry * rz * np.sqrt(rx**2 * s1**2 + rxp**2 * s2**2)
    denom = rx**2 * s1**2 + rxp**2 * s2**2
    ratio = 0.0 if denom <= 0 else 2.0 * rx * rxp * s1 * s2 / denom
    ty = float(np.arcsin(np.clip(np.sqrt(ratio), 0.0, 1.0)))
    return BoundReport(
        bound_value=float(value),
        criterion="mermin_x_asymmetric",
        achieving_angles=(np.pi / 2, ty, ty),
        notes="angle family: sin(ty)*sin(tz) fixed; symmetric representative reported",
    )


def mermin_bound_degenerate_smax(strengths: Strengths, s_max: float) -> BoundReport:
    """Bound when the two largest singular values of T coincide (s1 = s2).

    Value s_max sqrt(I0 + 2 Gamma0) = s_max I+ at orthogonal angles, cos exactly 0, with
    Gamma0 = R_X R_X' sqrt(R_Y^2 R_Y'^2 (R_Z^4 + R_Z'^4) + R_Z^2 R_Z'^2 (R_Y^4 + R_Y'^4)),
    the radical of I+- there.  Valid for angle triples with
    ty = pi/2 or tz = pi/2 (the slices on which the optimization is carried
    out); reaches 2 sqrt(2) s_max at unit strengths.
    """
    st = strengths
    value = s_max * IForm(st).from_trig((0.0,) * 3, (1.0,) * 3, (-1.0,) * 3)[0]
    # stated optimum: tan(tx) = Rz Rz' (Ry^2 + Ry'^2) / (Ry Ry' (Rz^2 - Rz'^2)),
    # cos(ty) = sign(Rx - Rx'), tz = pi/2
    tx = float(np.arctan2(st.rz * st.rzp * (st.ry**2 + st.ryp**2),
                          st.ry * st.ryp * (st.rz**2 - st.rzp**2)))
    ty = float(np.arccos(np.sign(st.rx - st.rxp)))
    return BoundReport(bound_value=float(value), criterion="mermin_degenerate_smax",
                       achieving_angles=(tx, ty, np.pi / 2))


def optimal_unbiased_angles(s1: float, s2: float, strengths: Strengths,
                            resolution: int = 64) -> tuple[tuple[float, float, float], float]:
    """Maximize the closed-form unbiased bound over the angle cube.

    Returns (angles, bound value) from the seeded pattern search of
    ``Operator.grid_angles``, which refines the best points of a coarse
    angle lattice.  Used when no closed-form optimal-angle result applies to
    the given strength pattern.
    """
    return OPERATORS["mermin"].grid_angles(s1, s2, strengths, resolution)
