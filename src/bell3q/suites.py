"""Seeded verification suites behind the ``verify`` CLI subcommand.

Each suite replays one family of module-level properties at a configurable
instance budget and reports the worst observed deviation.  They are the
machine-checkable core of the package's correctness story:

* closed_form: the I/J closed forms against an SVD of the built matrices;
* brute_force_kl: the bias-only maxima against 64-pattern enumeration;
* tightness: constrained see-saw against the equal-strength bounds on
  alignment-compatible tensors;
* invariance: bounds and singular values under random local rotations.
"""

from __future__ import annotations

import itertools
import time
from dataclasses import dataclass, replace

import numpy as np

from . import mermin, svetlichny
from .observables import OPERATORS
from .oracle import SeeSawConfig, see_saw_maximize
from .pauli import decomposition_from_t
from .reports import Strengths
from .smallmat import singular_values_3x9

__all__ = ["SuiteResult", "run_suite", "SUITES", "saturable_tensor"]


@dataclass(frozen=True)
class SuiteResult:
    name: str
    passed: bool
    max_deviation: float
    tolerance: float
    instances: int
    seconds: float
    detail: str = ""
    worst_instance: int = 0  # loop index of the largest deviation


def _result(name: str, deviations: list, tol: float, t0: float, detail: str,
            *, inclusive: bool = False) -> SuiteResult:
    """Summary of one deviation per instance; passes below ``tol`` (or at it)."""
    worst = max(deviations, default=0.0)
    passed = worst <= tol if inclusive else worst < tol
    index = int(np.argmax(deviations)) if deviations else 0
    return SuiteResult(name, passed, worst, tol, len(deviations),
                       time.perf_counter() - t0, detail, index)


def _random_strengths(rng) -> Strengths:
    return Strengths.from_iterable(rng.uniform(0.0, 1.0, 6))


def suite_closed_form(seed: int, budget: int) -> SuiteResult:
    rng = np.random.default_rng(seed)
    deviations = []
    t0 = time.perf_counter()
    for _ in range(budget):
        st = _random_strengths(rng)
        angles = tuple(rng.uniform(0.0, np.pi, 3))
        worst = 0.0
        for op in OPERATORS.values():
            sv = np.linalg.svd(op.coefficient_matrix(st, angles), compute_uv=False)
            plus, minus = op.closed_form("pair_form")(st).plus_minus(angles)
            worst = max(worst, abs(plus - (sv[0] + sv[1])), abs(minus - (sv[0] - sv[1])))
        deviations.append(worst)
    return _result("closed_form", deviations, 1e-10, t0,
                   "closed-form I/J pairs vs singular values of V/W")


def _enumerate_bias_max(strengths: Strengths, kind: str) -> float:
    bars = strengths.bars
    best = 0.0
    for signs in itertools.product((1.0, -1.0), repeat=6):
        bx, bxp, by, byp, bz, bzp = (s * b for s, b in zip(signs, bars))
        if kind == "mermin":
            val = bx * (by * bzp + byp * bz) + bxp * (by * bz - byp * bzp)
        else:
            val = ((bx * by - bxp * byp) * (bz + bzp)
                   + (bx * byp + bxp * by) * (bz - bzp))
        best = max(best, abs(val))
    return best


def suite_brute_force_kl(seed: int, budget: int) -> SuiteResult:
    rng = np.random.default_rng(seed)
    deviations = []
    t0 = time.perf_counter()
    for _ in range(budget):
        st = _random_strengths(rng)
        deviations.append(max(abs(mermin.k_max(st) - _enumerate_bias_max(st, "mermin")),
                              abs(svetlichny.l_max(st)
                                  - _enumerate_bias_max(st, "svetlichny"))))
    return _result("brute_force_kl", deviations, 1e-12, t0,
                   "bias-only maxima vs 64-sign-pattern enumeration", inclusive=True)


def _random_rotation(rng) -> np.ndarray:
    q, r = np.linalg.qr(rng.normal(size=(3, 3)))
    q = q * np.sign(np.diag(r))
    if np.linalg.det(q) < 0:
        q[:, 0] = -q[:, 0]
    return q


def saturable_tensor(rng, coeff_matrix: np.ndarray, s1: float, s2: float,
                     s3: float) -> np.ndarray:
    """Random 3x9 tensor whose top right singular pair is reachable from the
    coefficient matrix's by a product rotation (so the pairing bound is
    attainable; see the oracle module notes)."""
    vt = np.linalg.svd(coeff_matrix)[2]
    fy, fz = _random_rotation(rng), _random_rotation(rng)
    k = np.kron(fy, fz)
    q1, q2 = k.T @ vt[0], k.T @ vt[1]
    g = rng.normal(size=9)
    g -= (g @ q1) * q1 + (g @ q2) * q2
    q3 = g / np.linalg.norm(g)
    q_left = _random_rotation(rng)
    return (s1 * np.outer(q_left[:, 0], q1) + s2 * np.outer(q_left[:, 1], q2)
            + s3 * np.outer(q_left[:, 2], q3))


def suite_tightness(seed: int, budget: int) -> SuiteResult:
    rng = np.random.default_rng(seed)
    deviations = []
    t0 = time.perf_counter()
    config = SeeSawConfig(restarts=8, max_sweeps=300, convergence_tol=1e-13, seed=seed)
    sweeps, capped = [], 0
    for i in range(budget):
        r = rng.uniform(0.3, 1.0, 3)
        st = Strengths.equal(*r)
        s1 = rng.uniform(0.3, 1.0)
        s2 = rng.uniform(0.1, s1)
        s3 = rng.uniform(0.0, s2)
        op = OPERATORS[("mermin", "svetlichny")[i % 2]]
        angles = op.closed_form("equal_strength_angles")(s1, s2)
        t = saturable_tensor(rng, op.coefficient_matrix(st, angles), s1, s2, s3)
        bound = op.closed_form("equal_strengths")(*singular_values_3x9(t)[:2], *r).bound_value
        decomp = decomposition_from_t(t.reshape(3, 3, 3))
        cfg = replace(config, seed=seed + 1000 * i, angle_constraints=angles)
        result = see_saw_maximize(decomp, st, np.zeros(6), op.name, cfg)
        deviations.append(abs(bound - result.value))
        sweeps.append(result.sweeps)
        capped += result.hit_max_sweeps
    return _result("tightness", deviations, 1e-4, t0,
                   "angle-constrained see-saw vs equal-strength bounds on "
                   f"alignment-compatible tensors; {capped} see-saw calls stopped at the "
                   f"{config.max_sweeps}-sweep cap, the longest took {max(sweeps, default=0)} "
                   f"sweeps and the mean {sum(sweeps) / max(len(sweeps), 1):.2f}")


def suite_invariance(seed: int, budget: int) -> SuiteResult:
    rng = np.random.default_rng(seed)
    deviations = []
    t0 = time.perf_counter()
    for _ in range(budget):
        t = rng.normal(size=(3, 9))
        t /= np.linalg.svd(t, compute_uv=False)[0]
        st = _random_strengths(rng)
        angles = tuple(rng.uniform(0.0, np.pi, 3))
        qx, qy, qz = (_random_rotation(rng) for _ in range(3))
        t3 = t.reshape(3, 3, 3)
        rotated = np.einsum("ia,jb,kc,abc->ijk", qx, qy, qz, t3).reshape(3, 9)

        sv_a = singular_values_3x9(t)
        sv_b = singular_values_3x9(rotated)
        worst = float(np.max(np.abs(sv_a - sv_b)))

        for op in OPERATORS.values():
            worst = max(worst, abs(op.unbiased(*sv_a[:2], st, angles).bound_value
                                   - op.unbiased(*sv_b[:2], st, angles).bound_value))
        deviations.append(worst)
    return _result("invariance", deviations, 1e-9, t0,
                   "bounds and singular values under local rotations")


SUITES = {
    "closed_form": suite_closed_form,
    "brute_force_kl": suite_brute_force_kl,
    "tightness": suite_tightness,
    "invariance": suite_invariance,
}


def run_suite(name: str, seed: int, budget: int) -> SuiteResult:
    if name not in SUITES:
        raise ValueError(f"unknown suite {name!r}; choose from {sorted(SUITES)}")
    return SUITES[name](seed, budget)
