"""Independent numerical maximization of the Bell-operator expectations.

Three oracles validate the closed-form bounds:

* ``see_saw_maximize``: alternating coordinate ascent over the six
  measurement directions.  The operator expectation is linear in each
  direction with the others held fixed, so each update replaces a direction
  by its normalized linear coefficient (or, with a fixed relative angle, by
  the best frame of the constrained pair).  Restarts run batched and are
  seeded independently, so serial and parallel evaluation agree.

* ``bias_optimize``: for states fully described by their tripartite tensor,
  biases enter only through a multilinear offset, so optimal biases sit at
  the extremes +-(1 - R); all 64 sign patterns run through the see-saw.

* ``construct_saturating_setting``: the angle-constrained see-saw plus a
  pairing check.  It returns the see-saw's setting when that attains
  s1(T)s1(C) + s2(T)s2(C), C the coefficient matrix, which is possible when
  the right singular subspaces of T and C can be aligned by a product
  rotation (one rotation per remote party).  Whether such a product
  alignment exists is a property of T; when the residual stays above
  threshold the construction reports failure instead of returning a
  sub-saturating setting.

``grid_scan`` is a deliberately coarse lower witness: it confines each
party's directions to the plane of the top two singular axes of that
party's unfolding and scans in-plane angles on a uniform grid.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .observables import OPERATORS, MeasurementSetting
from .pauli import CorrelationDecomposition, as_t_matrix, decomposition_from_t
from .reports import Strengths
from .smallmat import singular_triple
from .states import is_tstate

__all__ = [
    "SeeSawConfig",
    "SeeSawResult",
    "NonConstructibleError",
    "see_saw_maximize",
    "bias_optimize",
    "construct_saturating_setting",
    "grid_scan",
]

DEGENERATE_COEFF = 1e-14
CONSTRUCT_RESIDUAL = 1e-6


class NonConstructibleError(RuntimeError):
    """No product-form rotation aligns the singular subspaces of T with the
    coefficient matrix; the saturating construction does not apply."""

    def __init__(self, residual: float):
        super().__init__(
            f"no product-form alignment found (residual {residual:.3e}); "
            f"the bound need not be attainable for this tensor")
        self.residual = residual


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
        if self.convergence_tol < 1e-14:
            raise ValueError("convergence_tol must be >= 1e-14")
        if self.max_sweeps < 1:
            raise ValueError("max_sweeps must be >= 1")


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


def _update_pair(d: np.ndarray, slot: int, theta: float,
                 g1: np.ndarray, g2: np.ndarray) -> None:
    """Best orthonormal frame (e1, e2) for the pair at fixed relative angle.

    A vanishing gradient still yields a frame (the SVD of the zero matrix is
    orthonormal), so every pair ends at its relative angle.
    """
    ch, sh = np.cos(theta / 2.0), np.sin(theta / 2.0)
    mat = np.stack([ch * (g1 + g2), sh * (g1 - g2)], axis=-1)  # (batch, 3, 2)
    uu, _, vt = np.linalg.svd(mat, full_matrices=False)
    frame = uu @ vt
    e1, e2 = frame[..., 0], frame[..., 1]
    d[:, slot] = ch * e1 + sh * e2
    d[:, slot + 1] = ch * e1 - sh * e2


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
                _update_pair(d, slot, float(theta), g[:, 0], g[:, 1])
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


def construct_saturating_setting(t, strengths: Strengths, angles,
                                 operator_kind: str) -> MeasurementSetting:
    """Explicit unbiased setting attaining s1(T)s1(C) + s2(T)s2(C).

    C is the operator's coefficient matrix at ``angles``.  The
    angle-constrained see-saw climbs |expectation| from seeded random
    starts; when it ends more than 1e-6 (relative) below the pairing it raises
    :class:`NonConstructibleError`, which happens when no product rotation
    maps the top right singular subspace of T onto that of C.
    """
    t = as_t_matrix(t)
    trip_t = singular_triple(t)
    trip_c = singular_triple(OPERATORS[operator_kind].coefficient_matrix(strengths, angles))
    target = float(trip_t.values[0] * trip_c.values[0]
                   + trip_t.values[1] * trip_c.values[1])

    # near-degenerate spectra climb slowly; at the default 200 sweeps some
    # attainable tensors end above the residual threshold
    config = SeeSawConfig(max_sweeps=1000, seed=0x5EED, angle_constraints=tuple(angles))
    result = see_saw_maximize(decomposition_from_t(t, check=False), strengths,
                              np.zeros(6), operator_kind, config)
    residual = target - result.value
    if residual > CONSTRUCT_RESIDUAL * max(1.0, target):
        raise NonConstructibleError(residual)
    return result.setting


def grid_scan(decomp: CorrelationDecomposition, strengths: Strengths,
              operator_kind: str, resolution: int) -> float:
    """Coarse lower witness for the unbiased operator maximum.

    Each party's two directions are confined to the plane spanned by the
    top two singular axes of that party's tensor unfolding; the six
    in-plane angles run over a uniform grid.  Every grid point is a genuine
    expectation value, so the scan never exceeds the true maximum.
    """
    if not (1 <= resolution <= 12):
        raise ValueError("resolution must lie in 1..12")
    operator_signs = OPERATORS[operator_kind].signs
    t3 = decomp.t_tensor
    r = strengths.as_array()

    planes = []
    for unfolding in (t3.reshape(3, 9),
                      t3.transpose(1, 0, 2).reshape(3, 9),
                      t3.transpose(2, 0, 1).reshape(3, 9)):
        trip = singular_triple(unfolding)
        planes.append(trip.left_vectors[:, :2])  # (3, 2)

    reduced = np.einsum("ijk,ia,jb,kc->abc", t3, planes[0], planes[1], planes[2])
    alphas = 2.0 * np.pi * np.arange(resolution) / resolution
    table = np.stack([np.cos(alphas), np.sin(alphas)], axis=1)  # (res, 2)
    # pair[a, i, j] is the in-plane direction of the unprimed (a = 0, angle i)
    # or primed (a = 1, angle j) observable
    pair = np.stack(np.broadcast_arrays(table[:, None], table[None, :]))
    hx, hy, hz = (r[2 * p:2 * p + 2, None, None, None] * pair for p in range(3))
    total = np.einsum("abc,mng,aijm,bkln,cpqg->ijklpq", operator_signs, reduced,
                      hx, hy, hz, optimize=True)
    return float(np.max(np.abs(total)))
