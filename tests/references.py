"""Independent references the test modules share: the GHZ tensor, dense Pauli
algebra, random draws and the brute-force bias-only maximum.

Not a test module (pytest collects ``test_*.py`` only); tests import it as
``from references import ...``.
"""

import itertools

import numpy as np

from bell3q import GeneralObservable, MeasurementSetting, Strengths
from bell3q.mermin import _t_svals
from bell3q.observables import OPERATORS

ORTH = (np.pi / 2, np.pi / 2, np.pi / 2)
ROOT2 = np.sqrt(2.0)

SX = np.array([[0, 1], [1, 0]], dtype=complex)
SY = np.array([[0, -1j], [1j, 0]], dtype=complex)
SZ = np.array([[1, 0], [0, -1]], dtype=complex)
SI = np.eye(2, dtype=complex)
SIGMA = [SI, SX, SY, SZ]

# each operator written term by term: (X slot, Y slot, Z slot, sign) over
# (X, X', Y, Y', Z, Z')
DENSE_TERMS = {"mermin": [(0, 2, 5, 1), (0, 3, 4, 1), (1, 2, 4, 1), (1, 3, 5, -1)]}
DENSE_TERMS["svetlichny"] = DENSE_TERMS["mermin"] + [
    (1, 3, 4, -1), (1, 2, 5, -1), (0, 3, 5, -1), (0, 2, 4, 1)]

# the 64 extreme bias patterns +-1, one row per pattern over (X, X', Y, Y', Z, Z')
BIAS_PATTERNS = np.array(list(itertools.product((1.0, -1.0), repeat=6)))


def ghz_t():
    """The GHZ correlation tensor as the 3x9 matrix (column 3*j + k)."""
    t = np.zeros((3, 3, 3))
    t[0, 0, 0] = 1.0
    t[0, 1, 1] = t[1, 0, 1] = t[1, 1, 0] = -1.0
    return t.reshape(3, 9)


def kron3(a, b, c):
    return np.kron(np.kron(a, b), c)


def dense_triple(rho, ox, oy, oz):
    """Dense 8x8 oracle: effects built literally as B*I + R*(sigma . n)."""
    def mat(o):
        n = o.direction
        return o.bias * SI + o.strength * (n[0] * SX + n[1] * SY + n[2] * SZ)
    return float(np.real(np.trace(kron3(mat(ox), mat(oy), mat(oz)) @ rho)))


def random_density(rng):
    g = rng.normal(size=(8, 8)) + 1j * rng.normal(size=(8, 8))
    rho = g @ g.conj().T
    return rho / rho.trace().real


def random_su2(rng):
    g = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
    q, r = np.linalg.qr(g)
    return q * (np.diag(r) / np.abs(np.diag(r)))


def random_observable(rng, unbiased=False):
    d = rng.normal(size=3)
    d /= np.linalg.norm(d)
    r = rng.uniform(0, 1)
    b = 0.0 if unbiased else rng.uniform(-(1 - r), 1 - r)
    return GeneralObservable(bias=b, strength=r, direction=d)


def random_setting(rng, unbiased=False):
    return MeasurementSetting(*(random_observable(rng, unbiased) for _ in range(6)))


def random_strengths(rng):
    return Strengths.from_iterable(rng.uniform(0, 1, 6))


def random_t(rng, top=1.0):
    t = rng.normal(size=(3, 9))
    return t * (top / np.linalg.svd(t, compute_uv=False)[0])


def bound_at(kind, t, strengths, angles):
    """The operator's unbiased pairing bound at the singular values of ``t``."""
    return OPERATORS[kind].unbiased(*_t_svals(t), strengths, angles).bound_value


def bias_max_brute(kind, strengths):
    """The largest |bias-only part| of the operator over the 64 extreme bias
    patterns +-(1 - R): its sign tensor contracted with each pattern."""
    bars = (BIAS_PATTERNS * strengths.bars).reshape(64, 3, 2)
    values = np.einsum("abc,na,nb,nc->n", OPERATORS[kind].signs,
                       bars[:, 0], bars[:, 1], bars[:, 2])
    return float(np.abs(values).max())
