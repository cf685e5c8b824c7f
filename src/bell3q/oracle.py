"""Independent numerical maximization of the Bell-operator expectations.

Two oracles validate the closed-form bounds:

* ``see_saw_maximize``: alternating coordinate ascent over the six
  measurement directions.  The operator expectation is linear in each
  direction with the others held fixed, so each update replaces a direction
  by its normalized linear coefficient.  With a fixed relative angle the
  pair's best frame is the polar factor of a 3x2 matrix, taken in closed form
  (a cross-product basis and one 2x2 rotation), with LAPACK's SVD only for
  rank-deficient rows.  Restarts run batched and are
  seeded independently, so serial and parallel evaluation agree.  Held at
  the relative angles of a bound, it reaches s1(T)s1(C) + s2(T)s2(C), C the
  coefficient matrix, when a product rotation (one per remote party) aligns
  the top right singular subspace of T with that of C, and ends below it
  otherwise.

* ``bias_optimize``: for states fully described by their tripartite tensor,
  biases enter only through a multilinear offset, so optimal biases sit at
  the extremes +-(1 - R); all 64 sign patterns run through the see-saw.
"""

from __future__ import annotations

import functools
import math
import numbers
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .observables import OPERATORS, MeasurementSetting
from .pauli import CorrelationDecomposition
from .reports import Strengths
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


@dataclass(frozen=True)
class SeeSawConfig:
    restarts: int = 20
    max_sweeps: int = 200
    convergence_tol: float = 1e-12
    seed: int = 0
    angle_constraints: Optional[tuple] = None  # per-party angle or None
    record_trace: bool = False

    def __post_init__(self):
        if self.restarts < 1:
            raise ValueError("restarts must be >= 1")
        if not self.convergence_tol >= 1e-14:  # also rejects NaN
            raise ValueError("convergence_tol must be >= 1e-14")
        if self.max_sweeps < 1:
            raise ValueError("max_sweeps must be >= 1")
        angles = self.angle_constraints
        if angles is not None and (len(angles) != 3 or not all(
                a is None or (isinstance(a, numbers.Real) and math.isfinite(a))
                for a in angles)):
            raise ValueError("angle_constraints must be None or three entries, "
                             "each None or a finite angle")


@dataclass(frozen=True)
class SeeSawResult:
    value: float
    setting: MeasurementSetting
    sweeps: int
    hit_max_sweeps: bool
    trace: Optional[np.ndarray] = field(default=None, repr=False)


def _initial_directions(seed: int, n_restarts: int) -> np.ndarray:
    """(n_restarts, 6, 3) unit vectors; restart r uses generator seed + r.

    Sphere sampling via cos(theta) = 2u - 1, phi = 2 pi v avoids pole bias.
    """
    dirs = np.empty((n_restarts, 6, 3))
    for r in range(n_restarts):
        rng = np.random.default_rng(seed + r)
        u, v = rng.uniform(size=(2, 6))
        ct = 2.0 * u - 1.0
        st = np.sqrt(np.maximum(1.0 - ct * ct, 0.0))
        phi = 2.0 * np.pi * v
        dirs[r, :, 0] = st * np.cos(phi)
        dirs[r, :, 1] = st * np.sin(phi)
        dirs[r, :, 2] = ct
    return dirs


class _Objective:
    """Batched evaluation of orientation * <operator> and its direction gradients.

    With h the homogeneous (B, R n) vectors grouped per party, the operator is
    sum S[a,b,c] Lambda[mu,nu,gamma] hX[a,mu] hY[b,nu] hZ[c,gamma].  No
    product holds both observables of one party, so one contraction over the
    other two parties gives the gradient for both of a party's directions.
    """

    def __init__(self, decomp: CorrelationDecomposition, strengths: np.ndarray,
                 biases: np.ndarray, operator_signs: np.ndarray, orientation: np.ndarray):
        kernel = np.einsum("abc,mng->ambncg", operator_signs, decomp.lam).reshape(8, 8, 8)
        # kernels[p] maps the h of the later of the other two parties to the
        # (party p, earlier other party) matrix, flattened to 64 columns
        self.kernels = tuple(np.ascontiguousarray(kernel.transpose(axes)).reshape(64, 8).T
                             for axes in ((0, 1, 2), (1, 0, 2), (2, 0, 1)))
        self.r = strengths
        self.b = biases                # (batch, 6)
        self.orientation = orientation  # (batch,)

    def _partial(self, d: np.ndarray, party: int):
        """Homogeneous vectors (batch, 3, 8) and the derivative of the operator
        with respect to ``party``'s (batch, 8)."""
        h = np.concatenate([self.b[..., None], self.r[:, None] * d], axis=-1)
        h = h.reshape(-1, 3, 8)
        first, second = (q for q in range(3) if q != party)
        inner = (h[:, second] @ self.kernels[party]).reshape(-1, 8, 8)
        return h, np.einsum("bij,bj->bi", inner, h[:, first])

    def value(self, d: np.ndarray) -> np.ndarray:
        h, partial = self._partial(d, 0)
        return self.orientation * np.einsum("bi,bi->b", h[:, 0], partial)

    def gradient(self, d: np.ndarray, party: int) -> np.ndarray:
        """(batch, 2, 3): gradients for the party's unprimed and primed direction."""
        _, partial = self._partial(d, party)
        g = partial.reshape(-1, 2, 4)[..., 1:] * self.r[2 * party:2 * party + 2, None]
        return self.orientation[:, None, None] * g


def _update_free(d: np.ndarray, slot: int, g: np.ndarray) -> None:
    """Each direction of the pair at ``slot`` becomes its normalized gradient."""
    norms = np.linalg.norm(g, axis=-1)
    ok = norms > DEGENERATE_COEFF
    pair = d[:, slot:slot + 2]
    pair[ok] = g[ok] / norms[ok][:, None]


@functools.lru_cache(maxsize=16)
def _half_angle(theta: float):
    """ch, sh = cos, sin of theta/2, and the map from (cos phi, sin phi) to
    the cos and sin of phi + theta/2 and of phi - theta/2."""
    ch, sh = float(np.cos(theta / 2.0)), float(np.sin(theta / 2.0))
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


def _run_seesaw(objective: _Objective, d: np.ndarray, config: SeeSawConfig):
    constraints = config.angle_constraints or (None, None, None)
    values = objective.value(d)
    trace = [values.copy()] if config.record_trace else None
    sweeps = 0
    hit_max = False
    for sweep in range(config.max_sweeps):
        sweeps = sweep + 1
        for party in range(3):
            slot = 2 * party
            theta = constraints[party]
            g = objective.gradient(d, party)
            if theta is None:
                _update_free(d, slot, g)
            else:
                _update_pair(d, slot, float(theta), g)
        new_values = objective.value(d)
        if trace is not None:
            trace.append(new_values.copy())
        improvement = np.max(new_values - values)
        values = new_values
        if improvement < config.convergence_tol:
            break
    else:
        hit_max = True
    return values, sweeps, hit_max, (np.array(trace) if trace is not None else None)


def _result_from_batch(values, d, biases, strengths, sweeps, hit_max, trace) -> SeeSawResult:
    best = int(np.argmax(values))
    setting = MeasurementSetting.from_arrays(biases[best], strengths, d[best])
    return SeeSawResult(value=float(values[best]), setting=setting,
                        sweeps=sweeps, hit_max_sweeps=hit_max, trace=trace)


def see_saw_maximize(decomp: CorrelationDecomposition, strengths: Strengths,
                     biases, operator_kind: str,
                     config: SeeSawConfig = SeeSawConfig()) -> SeeSawResult:
    """Maximize |<operator>| over measurement directions at fixed strengths
    and biases.

    The returned value is the absolute expectation at the returned setting
    (both operator signs are climbed, so a sign-flipped optimum is found
    too).  Non-decreasing within each restart by construction.
    """
    r = strengths.as_array()
    b = np.asarray(biases, dtype=float)
    if b.shape != (6,):
        raise ValueError("biases must be six values")
    if np.any(np.abs(b) > 1.0 - r + 1e-12):
        raise ValueError("each |bias| must be at most 1 - strength")
    operator_signs = OPERATORS[operator_kind].signs

    init = _initial_directions(config.seed, config.restarts)
    d = np.concatenate([init, init], axis=0)
    orientation = np.concatenate([np.ones(config.restarts), -np.ones(config.restarts)])
    b_batch = np.broadcast_to(b, (d.shape[0], 6)).copy()

    objective = _Objective(decomp, r, b_batch, operator_signs, orientation)
    values, sweeps, hit_max, trace = _run_seesaw(objective, d, config)
    return _result_from_batch(values, d, b_batch, r, sweeps, hit_max, trace)


def bias_optimize(decomp: CorrelationDecomposition, strengths: Strengths,
                  operator_kind: str,
                  config: SeeSawConfig = SeeSawConfig()) -> SeeSawResult:
    """Joint direction and bias optimization on a T-state.

    On a T-state the objective is multilinear in the biases, so optimal
    biases are extremal: every one of the 64 sign patterns +-(1 - R) runs
    through the direction see-saw and the best result wins.
    """
    if not is_tstate(decomp):
        raise ValueError("bias_optimize requires a T-state decomposition")
    r = strengths.as_array()
    bars = strengths.bars
    operator_signs = OPERATORS[operator_kind].signs

    patterns = np.array([[(1 if (p >> i) & 1 else -1) for i in range(6)]
                         for p in range(64)], dtype=float) * bars
    init = _initial_directions(config.seed, config.restarts)

    d = np.tile(init, (64, 1, 1))
    b_batch = np.repeat(patterns, config.restarts, axis=0)
    objective = _Objective(decomp, r, b_batch, operator_signs, np.ones(d.shape[0]))
    values, sweeps, hit_max, trace = _run_seesaw(objective, d, config)
    return _result_from_batch(values, d, b_batch, r, sweeps, hit_max, trace)
