"""Pauli-basis representation of three-qubit states.

A three-qubit density operator rho is held either as an 8x8 complex matrix
(:class:`ThreeQubitState`) or as the 4x4x4 family of real Pauli coefficients
Lambda[mu, nu, gamma] = Tr[(sigma_mu x sigma_nu x sigma_gamma) rho]
(:class:`CorrelationDecomposition`), with index 0 the identity and 1..3 the
x, y, z Pauli matrices.

The tripartite block T = Lambda[1:, 1:, 1:] is exposed both as a 3x3x3 array
and as a 3x9 matrix.  The flattening convention is fixed globally: column
3*j + k holds T[i, j, k], i.e. row-major in the (second, third) party pair.
Every consumer of the 3x9 form in this package (bound matrices, Kronecker
products of direction vectors) uses the same convention, so contractions of
the form x^T T (y kron z) are consistent with ``numpy.kron(y, z)``.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "PAULI",
    "PhysicalityError",
    "ThreeQubitState",
    "CorrelationDecomposition",
    "decompose",
    "reconstruct",
    "decomposition_from_t",
    "as_t_matrix",
    "as_t_tensor",
]

HERMITICITY_TOL = 1e-12
TRACE_TOL = 1e-12
PSD_TOL = -1e-10
COEFF_TOL = 1e-12

PAULI = (
    np.eye(2, dtype=complex),
    np.array([[0, 1], [1, 0]], dtype=complex),
    np.array([[0, -1j], [1j, 0]], dtype=complex),
    np.array([[1, 0], [0, -1]], dtype=complex),
)


def _kron3(a, b, c):
    return np.kron(np.kron(a, b), c)


# All 64 basis operators sigma_mu x sigma_nu x sigma_gamma, indexed by
# (mu, nu, gamma) in row-major order.  Built once; 64 KiB (64 * 8 * 8 complex128).
_BASIS = np.stack([
    _kron3(PAULI[mu], PAULI[nu], PAULI[ga])
    for mu, nu, ga in itertools.product(range(4), repeat=3)
]).reshape(4, 4, 4, 8, 8)


class PhysicalityError(ValueError):
    """An operator or coefficient set violates a physicality invariant."""


def _readonly(a: np.ndarray) -> np.ndarray:
    out = np.array(a)
    out.flags.writeable = False
    return out


@dataclass(frozen=True)
class ThreeQubitState:
    """An 8x8 density operator.

    Hermiticity and unit trace are always enforced.  Positivity is enforced
    by default; ``reconstruct`` disables the rejection so that unphysical
    coefficient sets can be inspected through ``min_eigenvalue`` /
    ``is_physical`` instead of raising.
    """

    matrix: np.ndarray
    min_eigenvalue: float = field(init=False)

    def __init__(self, matrix, *, require_physical: bool = True):
        matrix = np.asarray(matrix, dtype=complex)
        if matrix.shape != (8, 8):
            raise PhysicalityError(f"expected an 8x8 matrix, got shape {matrix.shape}")
        herm = np.max(np.abs(matrix - matrix.conj().T))
        if herm > HERMITICITY_TOL:
            raise PhysicalityError(f"not Hermitian: max |rho - rho^dagger| = {herm:.3e}")
        tr = matrix.trace()
        if abs(tr - 1.0) > TRACE_TOL:
            raise PhysicalityError(f"trace differs from 1 by {abs(tr - 1.0):.3e}")
        min_ev = float(np.linalg.eigvalsh(matrix)[0])
        if require_physical and min_ev < PSD_TOL:
            raise PhysicalityError(f"not positive semidefinite: min eigenvalue = {min_ev:.3e}")
        object.__setattr__(self, "matrix", _readonly(matrix))
        object.__setattr__(self, "min_eigenvalue", min_ev)

    @property
    def is_physical(self) -> bool:
        return self.min_eigenvalue >= PSD_TOL


@dataclass(frozen=True)
class CorrelationDecomposition:
    """The full Pauli coefficient family of a three-qubit state.

    ``lam[mu, nu, gamma]`` is the expectation of the corresponding Pauli
    string.  Views: ``bloch_a/b/c`` are the single-party Bloch vectors,
    ``theta_mat/phi_mat/omega_mat`` the two-party correlation blocks (AB,
    AC, BC) and ``t_tensor`` the 3x3x3 tripartite block.  Construction always
    checks lam[0, 0, 0] = 1 and every |coefficient| <= 1, to 1e-12.
    """

    lam: np.ndarray

    def __init__(self, lam):
        lam = np.asarray(lam, dtype=float)
        if lam.shape != (4, 4, 4):
            raise ValueError(f"expected a 4x4x4 coefficient array, got {lam.shape}")
        if abs(lam[0, 0, 0] - 1.0) > COEFF_TOL:
            raise PhysicalityError(
                f"normalization coefficient is {lam[0, 0, 0]!r}, expected 1")
        big = np.max(np.abs(lam))
        if big > 1.0 + COEFF_TOL:
            raise PhysicalityError(
                f"coefficient magnitude {big:.12f} exceeds 1 (unphysical)")
        object.__setattr__(self, "lam", _readonly(lam))

    @property
    def bloch_a(self) -> np.ndarray:
        return self.lam[1:, 0, 0]

    @property
    def bloch_b(self) -> np.ndarray:
        return self.lam[0, 1:, 0]

    @property
    def bloch_c(self) -> np.ndarray:
        return self.lam[0, 0, 1:]

    @property
    def theta_mat(self) -> np.ndarray:
        return self.lam[1:, 1:, 0]

    @property
    def phi_mat(self) -> np.ndarray:
        return self.lam[1:, 0, 1:]

    @property
    def omega_mat(self) -> np.ndarray:
        return self.lam[0, 1:, 1:]

    @property
    def t_tensor(self) -> np.ndarray:
        return self.lam[1:, 1:, 1:]

    @property
    def t_matrix(self) -> np.ndarray:
        """Tripartite block as a 3x9 matrix (column = 3*j + k)."""
        return self.t_tensor.reshape(3, 9)


def decompose(state: ThreeQubitState) -> CorrelationDecomposition:
    """All 64 Pauli expectations of a physical state."""
    if not isinstance(state, ThreeQubitState):
        state = ThreeQubitState(state)
    if not state.is_physical:
        raise PhysicalityError(
            f"refusing to decompose an unphysical operator "
            f"(min eigenvalue {state.min_eigenvalue:.3e})")
    lam = np.real(np.einsum("mngij,ji->mng", _BASIS, state.matrix))
    # decompose of a physical state cannot overflow |Lambda| <= 1 except by
    # roundoff; clip the dust so the decomposition invariant holds exactly.
    lam = np.clip(lam, -1.0, 1.0)
    lam[0, 0, 0] = 1.0
    return CorrelationDecomposition(lam)


def reconstruct(decomp: CorrelationDecomposition) -> ThreeQubitState:
    """Rebuild (1/8) sum Lambda[mu,nu,gamma] sigma_mu x sigma_nu x sigma_gamma.

    Never rejects: an unphysical coefficient set yields a state whose
    ``is_physical`` flag is False and whose ``min_eigenvalue`` reports the
    offending eigenvalue.
    """
    lam = decomp.lam
    if abs(lam[0, 0, 0] - 1.0) > COEFF_TOL:
        raise PhysicalityError("normalization coefficient must be 1")
    matrix = np.einsum("mng,mngij->ij", lam, _BASIS) / 8.0
    matrix = 0.5 * (matrix + matrix.conj().T)  # scrub roundoff asymmetry
    return ThreeQubitState(matrix, require_physical=False)


def decomposition_from_t(t) -> CorrelationDecomposition:
    """Decomposition of a state with maximally mixed marginals (only T set).

    Every |T entry| must be at most 1 (always checked), but the set need not
    correspond to a positive operator; bounds and expectations are well
    defined functions of the coefficients alone.
    """
    t3 = as_t_tensor(t)
    lam = np.zeros((4, 4, 4))
    lam[0, 0, 0] = 1.0
    lam[1:, 1:, 1:] = t3
    return CorrelationDecomposition(lam)


def as_t_matrix(t) -> np.ndarray:
    """Accept a 3x9 matrix or 3x3x3 tensor, return the 3x9 form."""
    return as_t_tensor(t).reshape(3, 9)


def as_t_tensor(t) -> np.ndarray:
    """Accept a 3x9 matrix or 3x3x3 tensor, return the 3x3x3 form."""
    t = np.asarray(t, dtype=float)
    if t.shape == (3, 9):
        return t.reshape(3, 3, 3)
    if t.shape == (3, 3, 3):
        return t
    raise ValueError(f"expected shape (3, 9) or (3, 3, 3), got {t.shape}")
