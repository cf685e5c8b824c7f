"""Independent numerical maximization of the Bell-operator expectations.

Two oracles validate the closed-form bounds:

* ``see_saw_maximize``: alternating coordinate ascent over the six measurement
  directions.  The operator expectation is linear in each direction with the
  others held fixed, so each update replaces a direction by its normalized
  linear coefficient.  With a fixed relative angle the pair's best frame is
  the polar factor of a 3x2 matrix, taken in closed form (a cross-product
  basis and one 2x2 rotation), with LAPACK's SVD only for rank-deficient rows.
  Restarts run batched from one random stream per call.  Only +<operator>
  is climbed at zero biases, where <operator> is odd in X's pair of
  directions.  Alternating ascent converges linearly, slowly when
  s2(T)/s1(T) is near 1, so from the sixth sweep on each alternating pass
  is followed by one Newton step on the rotation manifold (Absil, Mahony
  and Sepulchre, 2008): each free direction, and each held pair as one,
  turns by a rotation vector, with the Hessian built from the party-pair
  blocks of the operator.  Indefinite rows, and rows whose Newton step
  would not climb, take the saddle-free step (Dauphin et al., 2014) with
  each direction of negative curvature moved by at least the step's turn
  cap, so a row at a saddle, where the gradient vanishes, leaves it in one
  step, and each flat direction not moved at all; a step is kept only where
  it raises the value.  A sweep is one alternating pass plus, from the
  sixth on, its Newton step; ``max_sweeps`` caps them.  The improvement
  stop is judged from the sixth sweep on: the first sweep may lower the
  value, and the alternating passes can gain less than the tolerance a
  sweep while short of the maximum.  Held at relative angles with zero
  biases, <operator> = tr(C^T F_x T (F_y kron F_z)^T), C the coefficient
  matrix and F the frames, so by von Neumann's trace inequality no setting
  exceeds s1(T)s1(C) + s2(T)s2(C); a product rotation aligning the top
  right singular subspaces of T and C reaches it.  This ceiling, from
  LAPACK's SVD of T and C (not the closed forms under test), stops such a
  climb at any sweep once its best row is within 4 ulps of it, and before
  the sixth sweep the climb chases it: after each alternating pass the best
  row alone takes a Newton step, kept for as long as each step halves that
  row's gap to the ceiling; the first that does not is dropped, and the
  climb goes on as it would without a ceiling.

* ``bias_optimize``: on a T-state every local and bipartite coefficient
  vanishes, so <operator> = A(directions) + K(biases), K the sign tensor
  contracted with the six biases.  Flipping one party's pair of directions
  (of biases) negates A (K), so max |A + K| = max |A| + max |K|: one
  zero-bias see-saw climbs A, and K, multilinear in the biases, peaks at
  one of the 64 extremes +-(1 - R).
"""

from __future__ import annotations

import copy
import functools
import itertools
import numbers
from dataclasses import dataclass, field, replace
from typing import NamedTuple, Optional

import numpy as np

from .observables import OPERATORS, MeasurementSetting, Operator, angles_in_range, half_angle_rows
from .pauli import CorrelationDecomposition
from .reports import Strengths
from .smallmat import singular_values_3x9
from .states import is_tstate

__all__ = [
    "SeeSawConfig",
    "SeeSawResult",
    "see_saw_maximize",
    "bias_optimize",
]

DEGENERATE_COEFF = 1e-14
_TINY = np.finfo(float).tiny

# Maps on (k, batch) component arrays.  Applied to the outer product
# (a[:, None] * b).reshape(9, -1) of two 3-vectors, _LEVI gives a x b (each
# entry one difference of two rounded products, as in the textbook formula)
# and _CROSS_DOT gives a x b and -a.b.
_LEVI = np.zeros((3, 3, 3))
for _i, _j, _k in ((0, 1, 2), (1, 2, 0), (2, 0, 1)):
    _LEVI[_i, _j, _k], _LEVI[_i, _k, _j] = 1.0, -1.0
_LEVI = _LEVI.reshape(3, 9)
_CROSS_DOT = np.vstack([_LEVI, -np.eye(3).reshape(1, 9)])
_ROW_SUMS = np.kron(np.eye(2), np.ones(3))                  # two squared norms
_SUM_DIFF = np.kron([[1.0, 1.0], [1.0, -1.0]], np.eye(3))   # g1 + g2, g1 - g2
_EYE3 = np.eye(3)
# a x b = (a @ _CROSS_LEFT) * (b @ _CROSS_RIGHT), first half minus second half
_CROSS_LEFT = _EYE3[:, [1, 2, 0, 2, 0, 1]]
_CROSS_RIGHT = _EYE3[:, [2, 0, 1, 1, 2, 0]]
# h_p @ _JACOBIAN: d h_p / d w, (8, 6) per party, flat: the block of direction
# (p, a) is -[r d]x, and h_p[a, 1:] = r d, so each entry is +-r d_j exactly
_JACOBIAN = np.zeros((2, 4, 2, 4, 2, 3))
for _a in range(2):
    _JACOBIAN[_a, 1:, _a, 1:, _a] = -_LEVI.reshape(3, 3, 3).transpose(1, 0, 2)
_JACOBIAN = _JACOBIAN.reshape(8, 48)

_POLISH_FROM = 6      # the first sweep that ends with a Newton step
_MAX_TURN = 0.8       # largest rotation angle of one Newton step, in radians


@dataclass(frozen=True)
class SeeSawConfig:
    restarts: int = 20
    max_sweeps: int = 200  # a cap below 6 (_POLISH_FROM) ends there unless a ceiling stops it
    convergence_tol: float = 1e-12
    seed: int = 0
    angle_constraints: Optional[tuple] = None  # per-party angle or None
    record_trace: bool = False

    def __post_init__(self):
        for name in ("restarts", "max_sweeps", "seed"):
            value = getattr(self, name)
            if not isinstance(value, numbers.Integral) or isinstance(value, bool):
                raise ValueError(f"{name} must be an integer")
        if self.seed < 0:
            raise ValueError("seed must be >= 0")
        if self.restarts < 1:
            raise ValueError("restarts must be >= 1")
        if not self.convergence_tol >= 1e-14:  # also rejects NaN
            raise ValueError("convergence_tol must be >= 1e-14")
        if self.max_sweeps < 1:
            raise ValueError("max_sweeps must be >= 1")
        angles = self.angle_constraints
        if angles is not None and (len(angles) != 3 or not all(
                a is None or (isinstance(a, numbers.Real) and angles_in_range((a,)))
                for a in angles)):
            raise ValueError("angle_constraints must be None or three entries, "
                             "each None or an angle in [0, pi]")


@dataclass(frozen=True)
class SeeSawResult:
    value: float
    setting: MeasurementSetting
    sweeps: int
    hit_max_sweeps: bool
    trace: Optional[np.ndarray] = field(default=None, repr=False)


def _initial_directions(seed: int, n_restarts: int) -> np.ndarray:
    """(n_restarts, 6, 3) unit vectors from one default_rng(seed) stream.

    Sphere sampling via cos(theta) = 2u - 1, phi = 2 pi v avoids pole bias.
    Row r of the draw holds restart r's u and v, so a restart's start does
    not depend on the restart count.
    """
    u, v = np.random.default_rng(seed).random((n_restarts, 2, 6)).transpose(1, 0, 2)
    ct, phi = 2.0 * u - 1.0, 2.0 * np.pi * v
    st = np.sqrt(np.maximum(1.0 - ct * ct, 0.0))
    return np.stack([st * np.cos(phi), st * np.sin(phi), ct], axis=-1)


class _Objective:
    """Batched evaluation of orientation * <operator> and its direction gradients.

    With h the homogeneous (B, R n) vectors grouped per party, the operator is
    sum S[a,b,c] Lambda[mu,nu,gamma] hX[a,mu] hY[b,nu] hZ[c,gamma].  No
    product holds both observables of one party, so one contraction over the
    other two parties gives the gradient for both of a party's directions.
    At zero biases it is odd in X's pair: orientation -1 is +1 with X negated.
    """

    def __init__(self, decomp: CorrelationDecomposition, strengths: np.ndarray,
                 biases: np.ndarray, operator_signs: np.ndarray, orientation: np.ndarray):
        kernel = np.einsum("abc,mng->ambncg", operator_signs, decomp.lam).reshape(8, 8, 8)
        # the one table: cyclic[p][k, 8 i + j] multiplies h_{p+2}[k] h_p[i] h_{p+1}[j],
        # parties mod 3, so h_{p+2} @ cyclic[p] is the (p, p + 1) block, flattened
        self.cyclic = np.stack([kernel, kernel.transpose(1, 2, 0),
                                kernel.transpose(2, 0, 1)]).reshape(3, 64, 8).swapaxes(1, 2)
        self.r = strengths
        self.b = np.broadcast_to(biases, (len(orientation), 6))
        self.orientation = orientation  # (batch,)

    def rows(self, index: slice) -> _Objective:
        """The same objective on the rows ``index`` of the batch."""
        subset = copy.copy(self)
        subset.b, subset.orientation = self.b[index], self.orientation[index]
        return subset

    def _homogeneous(self, d: np.ndarray) -> np.ndarray:
        h = np.concatenate([self.b[..., None], self.r[:, None] * d], axis=-1)
        return h.reshape(-1, 3, 8)

    def _partial(self, d: np.ndarray, party: int):
        """Homogeneous vectors (batch, 3, 8) and d operator / d h_party (batch, 8):
        the (party, party + 1) block contracted with party + 1."""
        h = self._homogeneous(d)
        block = (h[:, (party + 2) % 3] @ self.cyclic[party]).reshape(-1, 8, 8)
        return h, np.einsum("bij,bj->bi", block, h[:, (party + 1) % 3])

    def value(self, d: np.ndarray) -> np.ndarray:
        h, partial = self._partial(d, 0)
        return self.orientation * np.einsum("bi,bi->b", h[:, 0], partial)

    def gradient(self, d: np.ndarray, party: int) -> np.ndarray:
        """(batch, 2, 3): gradients for the party's unprimed and primed direction."""
        _, partial = self._partial(d, party)
        g = partial.reshape(-1, 2, 4)[..., 1:] * self.r[2 * party:2 * party + 2, None]
        return self.orientation[:, None, None] * g

    def rotation_derivatives(self, d: np.ndarray, rotations: _Rotations):
        """Value (batch,), gradient (batch, n) and Hessian (batch, n, n) at
        rotation coordinates x = 0, where direction s turns to
        exp([w_s]x) d_s and the six rotation vectors are w = tied @ x, each
        free direction's projected off the direction itself.

        A direction turns by w x d = -[d]x w, so the Jacobian of h_p in its
        rotation vector is -r [d]x, and its gradient is d x g, g the
        direction gradient.  The operator is linear in each party's
        homogeneous vector h_p, so the Hessian has two parts: between
        parties p and p + 1, their 8x8 block of second derivatives (the
        third party contracted) taken through both Jacobians, and for each
        direction the second order of its rotation,
        (g d^T + d g^T)/2 - (g.d) I.  A turn about d leaves d in place, so
        that coordinate carries no gradient and no curvature at a maximum,
        yet away from one the second order of exp couples it to the others;
        projected off d, a free direction's own block is -(g.d)(I - d d^T),
        and the step is Newton's on the sphere.  The blocks are
        h_{p+2} @ cyclic[p], as in ``_partial``, one matmul for all three
        parties, and the value is h_0 . d value / dh_0.  Every other map is
        a product with the 0/+-1 constants of ``rotations`` or one small
        matrix per row, so the numpy calls do not grow with the batch.
        """
        batch, n = len(d), rotations.tied.shape[1]
        h = self._homogeneous(d).swapaxes(0, 1)                  # (3, batch, 8)
        third = h[[2, 0, 1]] * self.orientation[:, None]
        pair = (third @ self.cyclic).reshape(3, batch, 8, 8)     # d2 value / dh_p dh_{p+1}
        dh = np.einsum("pbij,pbj->pbi", pair, h[[1, 2, 0]])      # d value / dh_p
        value = np.einsum("bi,bi->b", h[0], dh[0])
        jac = (h @ rotations.jacobian).reshape(3, batch, 8, n)   # d h_p / dx
        jac_t = jac.swapaxes(-1, -2)
        grad = (jac_t @ dh[..., None]).sum(axis=0)[..., 0]
        # the Hessian is m + m^T: m holds the (p, p + 1) blocks once and half
        # of each direction's own block, x d^T - (g.d) I with x = g, or
        # (g.d) d if the direction is free, summed over each group
        g = dh.reshape(3, batch, 2, 4)[..., 1:].swapaxes(0, 1).reshape(batch, 6, 3)
        g *= 0.5 * self.r[:, None]                               # halved
        g_dot_d = np.einsum("bsi,bsi->bs", g, d)
        x = np.where(rotations.free[:, None], g_dot_d[..., None] * d, g)
        x_n, d_n = (np.stack([x, d]).reshape(2, batch, 18) @ rotations.spread).reshape(
            2, batch, n, 6)
        m = (jac_t @ pair @ jac[[1, 2, 0]]).sum(axis=0)
        m += x_n @ d_n.swapaxes(1, 2)
        m.reshape(batch, -1)[:, ::n + 1] -= g_dot_d @ rotations.tied.reshape(6, 3, n).sum(axis=1)
        return value, grad, m + m.swapaxes(1, 2)


class _Rotations(NamedTuple):
    """The Newton step's n rotation coordinates x for one set of angle
    constraints: a free direction has its own three and a held pair turns
    as one, which keeps its relative angle.  Groups are the free directions
    and the held pairs, in slot order, three coordinates each."""
    tied: np.ndarray      # (18, n): the six rotation vectors are w = tied @ x
    free: np.ndarray      # (6,): which directions are free
    jacobian: np.ndarray  # (3, 8, 8 n): h_p @ jacobian[p] is d h_p / dx, flat
    spread: np.ndarray    # (18, 6 n): (v @ spread)[(k, i), s] = v_s[i] if s is in group k


def _tied_rotations(constraints) -> _Rotations:
    return _rotations_for(tuple(a is None for a in constraints))


@functools.lru_cache(maxsize=8)
def _rotations_for(free_parties: tuple) -> _Rotations:
    """The rotations of one pattern of free parties, built once; read-only."""
    free = np.repeat(free_parties, 2)
    group = np.cumsum(free | (np.arange(6) % 2 == 0)) - 1
    member = np.eye(group[-1] + 1)[group]                   # (6, groups)
    tied = np.kron(member, _EYE3)
    n = tied.shape[1]
    jacobian = (_JACOBIAN.reshape(64, 6) @ tied.reshape(3, 6, n)).reshape(3, 8, 8 * n)
    spread = np.einsum("sk,ij,st->sikjt", member, _EYE3, np.eye(6))    # (s, i), (k, j, t)
    for array in (tied, free, jacobian, spread):
        array.flags.writeable = False
    return _Rotations(tied, free, jacobian, spread.reshape(18, -1))


def _rotate(d: np.ndarray, w: np.ndarray) -> np.ndarray:
    """Each direction of ``d`` (batch, 6, 3) turned by its rotation vector in
    ``w`` (Rodrigues): with t = |w|,
    d cos t + (w x d) sin(t)/t + w (w.d) (1 - cos t)/t^2,
    where (1 - cos t)/t^2 = 2 (sin(t/2)/t)^2 keeps its precision at small t.
    w x d is one difference of two rounded products per component, the
    factors gathered by exact permutation matmuls."""
    t = np.sqrt(np.einsum("...i,...i->...", w, w))[..., None]
    safe = np.maximum(t, _TINY)             # w = 0 has w x d = 0 and w.d = 0
    half = np.sin(0.5 * t) / safe
    products = (w.reshape(-1, 3) @ _CROSS_LEFT) * (d.reshape(-1, 3) @ _CROSS_RIGHT)
    turned = np.cos(t) * d
    turned += np.sin(t) / safe * (products[:, :3] - products[:, 3:]).reshape(d.shape)
    turned += 2.0 * half * half * np.einsum("...i,...i->...", w, d)[..., None] * w
    return turned


def _newton_step(objective: _Objective, d: np.ndarray, rotations: _Rotations,
                 tol: float) -> np.ndarray:
    """One Newton step in rotation coordinates, kept on the rows where it
    raises the value; returns the values and updates ``d`` in place.  A row
    whose step is not kept returns the value from ``rotation_derivatives``:
    ``objective.value``'s products and sums with the +-1 orientation applied
    first, so the same number unless numpy orders a stacked matmul's sums
    differently from a single one (bit-identical on every batch tested).

    With A = -H + 1e-12 |tr H| I, the step solves A x = gradient on the rows
    where det A > 0 and x is an ascent direction.  The other rows are
    indefinite (a negative determinant: an odd number of negative
    eigenvalues) or otherwise not climbing, and plain Newton would head for
    a saddle there, so they take the step with every eigenvalue of -H
    replaced by its absolute value, as in saddle-free Newton (Dauphin et
    al., 2014).  That step moves each eigendirection by g.v / |lambda|, which
    near a saddle, where the gradient is small, barely moves; so each
    direction of negative curvature gets a coefficient of at least
    _MAX_TURN, signed like its gradient component, and leaves the saddle in
    one step.  A flat direction (|lambda| at most 1e-8 of the row's
    largest, as when a pair held at 0 or pi turns about its one vector) gets
    coefficient 0.  A row's step is scaled down so that no direction
    turns by more than _MAX_TURN, and a row whose step promised a
    first-order gain above ``tol`` but did not climb tries a quarter of it.
    """
    values, grad, hess = objective.rotation_derivatives(d, rotations)
    shift = 1e-12 * np.abs(np.trace(hess, axis1=1, axis2=2))
    shift[shift == 0.0] = 1.0                  # H = 0 (a zero tensor): A = I
    system = -hess
    system.reshape(len(hess), -1)[:, ::hess.shape[1] + 1] += shift[:, None]
    solvable = np.linalg.slogdet(system)[0] > 0.0
    step = np.zeros_like(grad)
    step[solvable] = np.linalg.solve(system[solvable], grad[solvable, :, None])[..., 0]
    bad = ~(np.einsum("bi,bi->b", step, grad) > 0.0)
    if bad.any():
        lam, vec = np.linalg.eigh(-hess[bad])
        proj = (grad[bad, None] @ vec)[:, 0]
        flat = 1e-8 * np.abs(lam).max(axis=1, keepdims=True)
        coef = np.where(np.abs(lam) > flat, proj / (np.abs(lam) + shift[bad, None]), 0.0)
        coef = np.where(lam < -flat, np.copysign(np.maximum(np.abs(coef), _MAX_TURN), proj), coef)
        step[bad] = (vec @ coef[..., None])[..., 0]
    w = (step @ rotations.tied.T).reshape(-1, 6, 3)
    if rotations.free.any():                   # off each free direction
        w -= rotations.free[:, None] * np.einsum("bsi,bsi->bs", w, d)[..., None] * d
    turn = np.sqrt(np.einsum("bsi,bsi->bs", w, w).max(axis=1))
    w *= (_MAX_TURN / np.maximum(turn, _MAX_TURN))[:, None, None]
    rotated = _rotate(d, w)
    new_values = objective.value(rotated)
    up = new_values > values
    retry = ~up & (np.einsum("bi,bi->b", step, grad) > tol)
    if retry.any():
        shorter = _rotate(d, 0.25 * w)
        shorter_values = objective.value(shorter)
        better = retry & (shorter_values > values)
        rotated[better], new_values[better] = shorter[better], shorter_values[better]
        up |= better
    d[up] = rotated[up]
    return np.where(up, new_values, values)


def _update_free(d: np.ndarray, slot: int, g: np.ndarray) -> None:
    """Each direction of the pair at ``slot`` becomes its normalized gradient."""
    norms = np.linalg.norm(g, axis=-1)
    ok = norms > DEGENERATE_COEFF
    pair = d[:, slot:slot + 2]
    pair[ok] = g[ok] / norms[ok][:, None]


@functools.lru_cache(maxsize=16)
def _half_angle(theta: float):
    """ch, sh = cos, sin of theta/2 from ``half_angle_rows`` (the frame of
    ``coefficient_matrix``), and the map from (cos phi, sin phi) to the cos
    and sin of phi + theta/2 and of phi - theta/2."""
    ch, sh = (float(x) for x in half_angle_rows(theta)[0, :2])
    to_pair = np.array([[ch, -sh], [sh, ch], [ch, sh], [-sh, ch]])
    to_pair.flags.writeable = False     # shared by every call at this theta
    return ch, sh, to_pair


def _update_pair(d: np.ndarray, slot: int, theta: float, g: np.ndarray) -> None:
    """Best orthonormal frame (e1, e2) for the pair at fixed relative angle.

    The pair is ch e1 +- sh e2 (ch, sh the cosine and sine of theta/2), so
    with ``g`` (batch, 2, 3) its gradients the update maximizes tr(E^T M)
    over frames E = [e1, e2], M = [c1, c2] = [ch (g1 + g2), sh (g1 - g2)]:
    E is the polar factor of M, taken here in closed form.  With
    n = c1 x c2, the basis u1 = c1/|c1|, u2 = n/|n| x u1 of span(M) is
    orthonormal to rounding whatever M's condition number, and in it M is
    [[|c1|, u1.c2], [0, |n|/|c1|]].  That has a positive determinant, so its
    polar factor is the rotation by phi with
    (cos phi, sin phi) ~ (|c1|^2 + |n|, -c1.c2), and the pair is u1, u2
    rotated by phi + theta/2 and phi - theta/2: no SVD and no trigonometric
    call.  The work runs on (k, batch) component arrays in a fixed number of
    numpy calls, whatever the batch.

    At theta = 0 the second column is zero and both directions are c1/|c1|,
    with no need for u2; at theta = pi, ch is 6e-17 rather than zero and the
    form above gives c2/|c2| and its negative.  The rows left are those
    where M is rank-deficient: a zero gradient, or parallel columns (n = 0;
    c1 = 0 at theta = 0).  They have no unique polar factor and alone fall
    back to LAPACK's SVD, so a vanishing gradient still yields a frame and
    every pair ends at its relative angle.
    """
    ch, sh, to_pair = _half_angle(theta)
    m = _SUM_DIFF @ g.reshape(-1, 6).T                       # g1 + g2, g1 - g2
    c1, c2 = m[:3] * ch, m[3:] * sh                           # (3, batch) each
    n_p = _CROSS_DOT @ (c1[:, None] * c2).reshape(9, -1)      # c1 x c2, -c1.c2
    basis = np.concatenate([c1, _LEVI @ (n_p[:3, None] * c1).reshape(9, -1)])
    sq = _ROW_SUMS @ (basis * basis)
    norms = np.sqrt(sq)                                       # |c1|, |n x c1|
    safe = np.maximum(norms, _TINY)
    # (|c1|^2 + |n|, -c1.c2), normalized; |n| = |n x c1| / |c1| as n is normal to c1
    cos_sin = np.array([sq[0] + norms[1] / safe[0], n_p[3]])
    cos_sin /= np.maximum(np.hypot(cos_sin[0], cos_sin[1]), _TINY)
    coef = (to_pair @ cos_sin).reshape(2, 2, 1, -1)
    u = basis.reshape(2, 3, -1) / safe[:, None]               # u1, u2
    pair = coef[:, 0] * u[0] + coef[:, 1] * u[1]              # (2, 3, batch)
    defined = norms[0] if sh == 0.0 else norms[1]
    if np.count_nonzero(defined) < len(defined):
        rank_deficient = defined == 0.0
        mat = np.array([c1, c2])[:, :, rank_deficient].transpose(2, 1, 0)
        uu, _, vt = np.linalg.svd(mat, full_matrices=False)
        e1, e2 = (uu @ vt).transpose(2, 1, 0)
        pair[:, :, rank_deficient] = [ch * e1 + sh * e2, ch * e1 - sh * e2]
    d[:, slot:slot + 2] = pair.transpose(2, 0, 1)


def _run_seesaw(objective: _Objective, d: np.ndarray, config: SeeSawConfig, ceiling=None):
    """(values, sweeps, hit_max, trace) of the batched climb from ``d``,
    which it updates in place.  A sweep updates each party in turn and, from
    sweep _POLISH_FROM on, takes one Newton step; before it, a climb with a
    ``ceiling`` (a value no row exceeds) takes one on its best row alone,
    for as long as each such step halves that row's gap to the ceiling.
    The climb stops at any sweep when the best row is within 4 ulps of the
    ceiling, and from sweep _POLISH_FROM on when no row gains
    convergence_tol in a sweep; otherwise it ends after max_sweeps sweeps,
    so without a ceiling a cap below _POLISH_FROM always ends at the cap."""
    constraints = config.angle_constraints or (None, None, None)
    rotations = _tied_rotations(constraints)
    stop_at = np.inf if ceiling is None else ceiling - 4 * np.spacing(ceiling)
    chase = ceiling is not None
    values = objective.value(d)
    trace = [values.copy()] if config.record_trace else None
    hit_max = False
    for sweeps in range(1, config.max_sweeps + 1):
        for party in range(3):
            slot = 2 * party
            theta = constraints[party]
            g = objective.gradient(d, party)
            if theta is None:
                _update_free(d, slot, g)
            else:
                _update_pair(d, slot, float(theta), g)
        if sweeps >= _POLISH_FROM:
            new_values = _newton_step(objective, d, rotations, config.convergence_tol)
        else:
            new_values = objective.value(d)
            if chase:   # the best row alone, kept while each step halves its gap
                best = int(np.argmax(new_values))
                row = slice(best, best + 1)
                trial = d[row].copy()
                value = _newton_step(objective.rows(row), trial, rotations,
                                     config.convergence_tol)[0]
                chase = ceiling - value <= 0.5 * (ceiling - new_values[best])
                if chase:
                    d[row], new_values[best] = trial, value
        if trace is not None:
            trace.append(new_values.copy())
        improvement = np.max(new_values - values)
        values = new_values
        if values.max() >= stop_at or (sweeps >= _POLISH_FROM
                                       and improvement < config.convergence_tol):
            break
    else:
        hit_max = True
    return values, sweeps, hit_max, (np.array(trace) if trace is not None else None)


def _seesaw_batch(decomp: CorrelationDecomposition, strengths: Strengths, b: np.ndarray,
                  operator: Operator, config: SeeSawConfig):
    """(result, directions, best row) of the see-saw at biases ``b``: row k
    climbs +<operator> from restart k's directions, and at b != 0 row
    restarts + k climbs -<operator> from them (at b = 0 that is row k, X negated).
    With every pair held at b = 0 no row exceeds s1(T) s1(C) + s2(T) s2(C)."""
    r, angles = strengths.as_array(), config.angle_constraints or (None,)
    ceiling = None if None in angles or np.any(b) else float(
        singular_values_3x9(decomp.t_matrix)[:2]
        @ singular_values_3x9(operator.coefficient_matrix(strengths, angles))[:2])
    orientation = [1.0, -1.0] if np.any(b) else [1.0]
    d = np.tile(_initial_directions(config.seed, config.restarts), (len(orientation), 1, 1))
    objective = _Objective(decomp, r, b, operator.signs, np.repeat(orientation, config.restarts))
    values, sweeps, hit_max, trace = _run_seesaw(objective, d, config, ceiling)
    best = int(np.argmax(values))
    setting = MeasurementSetting.from_arrays(b, r, d[best])
    return SeeSawResult(float(values[best]), setting, sweeps, hit_max, trace), d, best


def see_saw_maximize(decomp: CorrelationDecomposition, strengths: Strengths,
                     biases, operator_kind: str,
                     config: SeeSawConfig = SeeSawConfig()) -> SeeSawResult:
    """Maximize |<operator>| over measurement directions at fixed strengths
    and biases.

    The returned value is |expectation| at the returned setting.  Both operator
    signs are climbed at nonzero biases; at zero biases -<operator> is
    +<operator> with X negated.  Non-decreasing per restart after sweep 1.
    From the sixth sweep on the values come from the Newton step's
    derivatives, which could differ from a direct evaluation only by
    rounding (see ``_newton_step``).  Held at zero biases the climb chases
    the pairing bound (module notes) and may stop there at any sweep; any
    other climb stops from the sixth sweep, so a lower ``max_sweeps`` ends at
    the cap.  Restart r starts from row r of one default_rng(config.seed) draw.
    """
    r = strengths.as_array()
    b = np.asarray(biases, dtype=float)
    if b.shape != (6,):
        raise ValueError("biases must be six values")
    if not np.all(np.abs(b) <= 1.0 - r + 1e-12):  # also rejects NaN
        raise ValueError("each |bias| must be at most 1 - strength")
    return _seesaw_batch(decomp, strengths, b, OPERATORS[operator_kind], config)[0]


def bias_optimize(decomp: CorrelationDecomposition, strengths: Strengths,
                  operator_kind: str,
                  config: SeeSawConfig = SeeSawConfig()) -> SeeSawResult:
    """Joint direction and bias optimization on a T-state.

    There <operator> = A(directions) + K(biases), so the zero-bias see-saw
    maximizes A (its rows climb +A, -A being A with X's pair negated), and
    the extreme pattern +-(1 - R) of largest K is returned.  The value is the
    |expectation| at the returned setting rather than A + K, as ``is_tstate``
    tolerates local and bipartite blocks up to 1e-10.
    """
    if not is_tstate(decomp):
        raise ValueError("bias_optimize requires a T-state decomposition")
    r, operator = strengths.as_array(), OPERATORS[operator_kind]
    result, d, best = _seesaw_batch(decomp, strengths, np.zeros(6), operator, config)
    patterns = np.array(list(itertools.product((1.0, -1.0), repeat=6))) * strengths.bars
    x, y, z = patterns.reshape(64, 3, 2).transpose(1, 0, 2)
    k = np.einsum("abc,pa,pb,pc->p", operator.signs, x, y, z)
    b = patterns[np.argmax(k)]
    # over the whole batch: at b = 0 that is the see-saw's own arithmetic
    value = _Objective(decomp, r, b, operator.signs, np.ones(len(d))).value(d)[best]
    return replace(result, value=abs(float(value)),
                   setting=MeasurementSetting.from_arrays(b, r, d[best]))
