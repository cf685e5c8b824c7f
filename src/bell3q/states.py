"""Factory for the benchmark three-qubit states.

Supported kinds: the GHZ projector, the one-parameter partially entangled
GHZ family cos(theta)|000> + sin(theta)|111>, the W state, states fully
characterized by a tripartite correlation tensor ("T-states"), white-noise
mixtures, and seeded random density operators.

A caution that matters in practice: the GHZ state is NOT a T-state.  Its
two-party ZZ blocks are nonzero, so stripping everything but its T tensor
gives a coefficient set whose operator is not positive (minimum eigenvalue
-3/8).  T-state results must therefore be exercised on genuine T-states;
``t_state`` enforces positivity and rejects such tensors.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .pauli import (CorrelationDecomposition, PhysicalityError, ThreeQubitState,
                    as_t_tensor, decomposition_from_t, reconstruct)

__all__ = [
    "StateSpec", "build", "is_tstate", "parse_state_spec",
    "ghz_state", "generalized_ghz_state", "w_state", "t_state",
    "white_noise_mix", "random_state",
]

TSTATE_TOL = 1e-10


@dataclass(frozen=True)
class StateSpec:
    kind: str
    theta: Optional[float] = None
    t_tensor: Optional[tuple] = None
    base: Optional["StateSpec"] = None
    visibility: Optional[float] = None
    seed: Optional[int] = None

    def __post_init__(self):
        if self.kind not in {"ghz", "gghz", "w", "tstate", "mix", "random"}:
            raise ValueError(f"unknown state kind {self.kind!r}")
        if self.kind == "gghz" and not (0.0 <= self.theta <= np.pi / 2):
            raise ValueError("gghz angle must lie in [0, pi/2]")
        if self.kind == "mix" and not (0.0 <= self.visibility <= 1.0):
            raise ValueError("visibility must lie in [0, 1]")


def _projector(vec: np.ndarray) -> ThreeQubitState:
    vec = vec / np.linalg.norm(vec)
    return ThreeQubitState(np.outer(vec, vec.conj()))


def ghz_state() -> ThreeQubitState:
    v = np.zeros(8, dtype=complex)
    v[0] = v[7] = 1.0
    return _projector(v)


def generalized_ghz_state(theta: float) -> ThreeQubitState:
    v = np.zeros(8, dtype=complex)
    v[0], v[7] = np.cos(theta), np.sin(theta)
    return _projector(v)


def w_state() -> ThreeQubitState:
    v = np.zeros(8, dtype=complex)
    v[1] = v[2] = v[4] = 1.0
    return _projector(v)


def t_state(t) -> ThreeQubitState:
    """(1/8)(identity + sum_ijk T_ijk sigma_i x sigma_j x sigma_k).

    Rejects tensors whose operator is not positive semidefinite, reporting
    the offending eigenvalue.
    """
    decomp = decomposition_from_t(as_t_tensor(t))
    state = reconstruct(decomp)
    if not state.is_physical:
        raise PhysicalityError(
            f"tensor does not define a physical state: "
            f"min eigenvalue = {state.min_eigenvalue:.6e}")
    return state


def white_noise_mix(base: ThreeQubitState, visibility: float) -> ThreeQubitState:
    if not (0.0 <= visibility <= 1.0):
        raise ValueError("visibility must lie in [0, 1]")
    mixed = visibility * base.matrix + (1.0 - visibility) * np.eye(8) / 8.0
    return ThreeQubitState(mixed)


def random_state(seed: int) -> ThreeQubitState:
    """Normalized G G^dagger for a seeded complex Gaussian G (reproducible;
    no uniformity claim is made for this ensemble)."""
    rng = np.random.default_rng(seed)
    g = rng.normal(size=(8, 8)) + 1j * rng.normal(size=(8, 8))
    rho = g @ g.conj().T
    return ThreeQubitState(rho / rho.trace().real)


def build(spec: StateSpec) -> ThreeQubitState:
    if spec.kind == "ghz":
        return ghz_state()
    if spec.kind == "gghz":
        return generalized_ghz_state(spec.theta)
    if spec.kind == "w":
        return w_state()
    if spec.kind == "tstate":
        return t_state(np.asarray(spec.t_tensor, dtype=float).reshape(3, 3, 3))
    if spec.kind == "mix":
        return white_noise_mix(build(spec.base), spec.visibility)
    if spec.kind == "random":
        return random_state(spec.seed)
    raise ValueError(f"unknown state kind {spec.kind!r}")


def is_tstate(decomp: CorrelationDecomposition) -> bool:
    """True iff all single-party and two-party coefficient blocks vanish."""
    blocks = (decomp.bloch_a, decomp.bloch_b, decomp.bloch_c,
              decomp.theta_mat, decomp.phi_mat, decomp.omega_mat)
    return all(np.linalg.norm(b) <= TSTATE_TOL for b in blocks)


def parse_state_spec(text: str) -> StateSpec:
    """Parse the CLI mini-grammar.

    ghz | gghz:<theta> | w | mix:<spec>:<v> | tstate:<9 or 27 floats> |
    random:<seed>.  The 9-float tstate form fills the diagonal positions
    (xxx ... from the first three), i.e. it is the row-major 3x3 diagonal
    embedding; 27 floats give the full tensor in row-major order.
    """
    text = text.strip()
    if text == "ghz":
        return StateSpec(kind="ghz")
    if text == "w":
        return StateSpec(kind="w")
    if text.startswith("gghz:"):
        return StateSpec(kind="gghz", theta=float(text.split(":", 1)[1]))
    if text.startswith("random:"):
        return StateSpec(kind="random", seed=int(text.split(":", 1)[1]))
    if text.startswith("mix:"):
        body = text[len("mix:"):]
        inner, _, vis = body.rpartition(":")
        if not inner:
            raise ValueError("mix spec needs mix:<spec>:<visibility>")
        return StateSpec(kind="mix", base=parse_state_spec(inner), visibility=float(vis))
    if text.startswith("tstate:"):
        values = [float(x) for x in text[len("tstate:"):].split(",")]
        if not np.all(np.isfinite(values)):
            raise ValueError("tstate spec entries must be finite")
        if len(values) == 27:
            tensor = np.array(values).reshape(3, 3, 3)
        elif len(values) == 9:
            mat = np.array(values).reshape(3, 3)
            tensor = np.zeros((3, 3, 3))
            for i in range(3):
                for j in range(3):
                    tensor[i, j, j] = mat[i, j]
        else:
            raise ValueError("tstate spec needs 9 or 27 comma-separated floats")
        return StateSpec(kind="tstate", t_tensor=tuple(tensor.ravel().tolist()))
    raise ValueError(f"cannot parse state spec {text!r}")
