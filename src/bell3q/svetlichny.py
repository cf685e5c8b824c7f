"""Closed-form upper bounds and violation criteria for the Svetlichny operator.

Mirrors the Mermin module: the 3x9 coefficient matrix W pairs with T
through the singular-value inequality,

    max |<Svetlichny operator>|  <=  s1(T) s1(W) + s2(T) s2(W),

for unbiased observables, and the combinations J+- = s1(W) +- s2(W) have a
closed form.  Violation of the classical certificate means exceeding 4.
The bias-only extension on T-states is ``l_max``, which
``Operator.plus_bias_max`` adds.  Only
``svetlichny_bound_equal_strengths`` takes T; the unbiased, six-variant and
T-state bounds and the biased window are methods of
``OPERATORS["svetlichny"]``.
"""

from __future__ import annotations

from dataclasses import replace

import numpy as np

from .observables import OPERATORS
from .reports import BoundReport, Strengths
from .mermin import IForm, _degenerate, _t_svals

__all__ = [
    "build_w_matrix",
    "j_plus_minus",
    "svetlichny_bound_equal_strengths",
    "equal_strength_bound_svetlichny",
    "svetlichny_sufficient_orthogonal",
    "l_max",
    "svetlichny_bound_x_asymmetric",
    "svetlichny_bound_x_asymmetric_best",
    "svetlichny_bound_degenerate_smax",
    "equal_strength_angles_svetlichny",
    "optimal_unbiased_angles_svetlichny",
]


def build_w_matrix(strengths: Strengths, angles) -> np.ndarray:
    """The 3x9 Svetlichny coefficient matrix in the half-angle frame.

    Same layout as the Mermin V matrix: 2x2 blocks at columns (0, 1) and
    (3, 4), third row structurally zero.
    """
    return OPERATORS["svetlichny"].coefficient_matrix(strengths, angles)


class JForm(IForm):
    """J+- = s1(W) +- s2(W): ``IForm`` with the J+- base and a swing scale of 4."""

    letter, scale = "J", 4.0

    def _coefficients(self, s: Strengths):
        rx, rxp, ry, ryp, rz, rzp = s.as_array()
        j0 = (rx**2 + rxp**2) * (ry**2 + ryp**2) * (rz**2 + rzp**2)
        jyz_x = rx * rxp * (ry**2 - ryp**2) * (rz**2 - rzp**2)
        jxz_y = ry * ryp * (rx**2 - rxp**2) * (rz**2 - rzp**2)
        jxy_z = rz * rzp * (rx**2 - rxp**2) * (ry**2 - ryp**2)
        return j0, jyz_x, jxz_y, jxy_z, 8.0 * rx * rxp * (ry * ryp * rz * rzp)

    def _base(self, cx, cy, cz):
        j0, jyz_x, jxz_y, jxy_z, triple = self.coefficients
        return j0 + 2.0 * (jyz_x * cx + jxz_y * cy + jxy_z * cz) - triple * cx * cy * cz


def j_plus_minus(strengths: Strengths, angles):
    """(s1(W) + s2(W), s1(W) - s2(W)) in closed form; angles broadcastable."""
    return JForm(strengths).plus_minus(angles)


def equal_strength_angles_svetlichny(s1: float, s2: float) -> tuple[float, float, float]:
    """Representative of the optimal-angle family for equal per-side strengths.

    Either cos(ty) cos(tz) = (s1^2 - s2^2)/(s1^2 + s2^2) with tx = pi/2, or
    sin(tx) = 2 s1 s2/(s1^2 + s2^2) with cos(ty) cos(tz) = 0.  The first
    family's symmetric representative is returned; degenerate s1 = s2 gives
    fully orthogonal angles.
    """
    denom = s1 * s1 + s2 * s2
    ratio = 0.0 if denom <= 0 else (s1 * s1 - s2 * s2) / denom
    ty = float(np.arccos(np.sqrt(np.clip(ratio, 0.0, 1.0))))
    return (np.pi / 2, ty, ty)


def svetlichny_bound_equal_strengths(t, rx: float, ry: float, rz: float) -> BoundReport:
    """``equal_strength_bound_svetlichny`` at the singular values of ``t``."""
    return equal_strength_bound_svetlichny(*_t_svals(t), rx, ry, rz)


def equal_strength_bound_svetlichny(s1: float, s2: float, rx: float, ry: float,
                                    rz: float) -> BoundReport:
    """2 sqrt(2) R_X R_Y R_Z sqrt(s1^2 + s2^2), angle-optimized."""
    value = 2.0 * np.sqrt(2.0) * rx * ry * rz * np.sqrt(s1 * s1 + s2 * s2)
    return BoundReport(
        bound_value=float(value),
        criterion="svetlichny_equal_strengths",
        achieving_angles=equal_strength_angles_svetlichny(s1, s2),
        notes="optimal angles form two families; a first-family representative is reported",
    )


def svetlichny_sufficient_orthogonal(s1: float, s2: float, strengths: Strengths) -> BoundReport:
    """Violation certificate at orthogonal relative angles: the unbiased pairing
    bound at (pi/2, pi/2, pi/2), so exceeding 4 certifies a violation."""
    report = OPERATORS["svetlichny"].unbiased(s1, s2, strengths, (np.pi / 2,) * 3)
    return replace(report, criterion="svetlichny_orthogonal_sufficient",
                   notes="violation certificate, not an upper bound")


def l_max(strengths: Strengths) -> float:
    """Largest bias-only contribution to the Svetlichny expectation on a T-state.

    Multilinear in the biases, hence extremal at biases +-(1 - R).  The sign
    patterns reachable by the six independent signs split into two classes
    whose maxima pair the larger coefficient with the larger Z-side factor;
    matches exhaustive enumeration of all 64 sign choices exactly.
    """
    bx, bxp, by, byp, bz, bzp = strengths.bars
    p, q, r, s = bx * by, bxp * byp, bx * byp, bxp * by
    big, small = bz + bzp, abs(bz - bzp)
    c1 = max(abs(p - q), r + s) * big + min(abs(p - q), r + s) * small
    c2 = max(p + q, abs(r - s)) * big + min(p + q, abs(r - s)) * small
    return float(max(c1, c2))


_BRANCHES = ("orthogonal", "mixed", "parallel")


def svetlichny_bound_x_asymmetric(s1: float, s2: float, rx: float, rxp: float, ry: float,
                                  rz: float, branch: str) -> BoundReport:
    """Unbiased bound with unequal strengths on the X side only (R_X >= R_X').

    Three angle regimes:
      orthogonal: all angles pi/2, value 2 R_Y R_Z (R_X s1 + R_X' s2);
      mixed: tx = pi/2, sin(ty) sin(tz) = 2 s1 s2/(s1^2+s2^2),
             value 2 R_Y R_Z sqrt(R_X^2 + R_X'^2) sqrt(s1^2 + s2^2);
      parallel: tx = 0, sin(ty) sin(tz) = |R_X^2 - R_X'^2|/(R_X^2 + R_X'^2),
             value 2 sqrt(2) R_Y R_Z s_max sqrt(R_X^2 + R_X'^2); requires a
             doubly degenerate largest singular value.
    On a T-state the bias-only term l_max is added to the best branch by
    ``Operator.plus_bias_max``.
    """
    if branch not in _BRANCHES:
        raise ValueError(f"branch must be one of {_BRANCHES}, got {branch!r}")
    if rxp > rx + 1e-12:
        raise ValueError("requires rx >= rxp; swap the X-side labels")
    half_pi = np.pi / 2
    if branch == "orthogonal":
        value = 2.0 * ry * rz * (rx * s1 + rxp * s2)
        angles = (half_pi, half_pi, half_pi)
    elif branch == "mixed":
        value = 2.0 * ry * rz * np.sqrt(rx**2 + rxp**2) * np.sqrt(s1**2 + s2**2)
        denom = s1**2 + s2**2
        ratio = 0.0 if denom <= 0 else 2.0 * s1 * s2 / denom
        ty = float(np.arcsin(np.clip(np.sqrt(ratio), 0.0, 1.0)))
        angles = (half_pi, ty, ty)
    else:
        if not _degenerate(s1, s2):
            raise ValueError(
                "parallel branch requires the largest singular value to be doubly degenerate")
        value = 2.0 * np.sqrt(2.0) * ry * rz * s1 * np.sqrt(rx**2 + rxp**2)
        denom = rx**2 + rxp**2
        ratio = 0.0 if denom <= 0 else abs(rx**2 - rxp**2) / denom
        ty = float(np.arcsin(np.clip(np.sqrt(ratio), 0.0, 1.0)))
        angles = (0.0, ty, ty)
    return BoundReport(bound_value=float(value), criterion=f"svetlichny_x_asymmetric_{branch}",
                       achieving_angles=angles)


def svetlichny_bound_x_asymmetric_best(s1, s2, rx, rxp, ry, rz) -> BoundReport:
    """Largest applicable branch value (aggregation, not a single stated result).

    Branches whose unbiased values agree to 1e-12 relative are ties; the
    criterion and angles then come from the first of them in the order
    mixed, orthogonal, parallel, so last-bit rounding cannot decide which
    branch is reported.
    """
    branches = ["mixed", "orthogonal"]
    if _degenerate(s1, s2):
        branches.append("parallel")
    reports = [svetlichny_bound_x_asymmetric(s1, s2, rx, rxp, ry, rz, b) for b in branches]
    top = max(r.bound_value for r in reports)
    best = next(r for r in reports if r.bound_value >= top - 1e-12 * abs(top))
    return BoundReport(bound_value=top, criterion=best.criterion + "_best",
                       achieving_angles=best.achieving_angles,
                       notes="maximum over applicable angle branches")


def svetlichny_bound_degenerate_smax(strengths: Strengths, s_max: float) -> BoundReport:
    """Bound when s1(T) = s2(T), with the X relative angle fixed at 0 or pi.

    Value s_max sqrt(J0 + 2 Gamma1), Gamma1 the sum of the absolute cross
    coefficients plus 4 R_X R_X' R_Y R_Y' R_Z R_Z'; reaches 4 s_max at unit
    strengths.  Optimality over a free X angle is not claimed.
    """
    st = strengths
    j0, jyz_x, jxz_y, jxy_z, _ = JForm(st).coefficients
    gamma1 = (abs(jyz_x) + abs(jxz_y) + abs(jxy_z)
              + 4.0 * st.rx * st.rxp * st.ry * st.ryp * st.rz * st.rzp)
    value = s_max * np.sqrt(j0 + 2.0 * gamma1)
    tx = float(np.arccos(np.sign((st.ry - st.ryp) * (st.rz - st.rzp))))
    ty = float(np.arccos(np.sign((st.rx - st.rxp) * (st.rz - st.rzp))))
    tz = float(np.arccos(np.sign((st.rx - st.rxp) * (st.ry - st.ryp))))
    return BoundReport(bound_value=float(value), criterion="svetlichny_degenerate_smax",
                       achieving_angles=(tx, ty, tz))


def optimal_unbiased_angles_svetlichny(s1: float, s2: float, strengths: Strengths,
                                       resolution: int = 64):
    """Maximize the closed-form unbiased bound over the angle cube by the
    seeded pattern search of ``Operator.grid_angles``; (angles, value)."""
    return OPERATORS["svetlichny"].grid_angles(s1, s2, strengths, resolution)
