"""``Operator.grid_angles``, bit for bit, against ``tests/golden/grid_angles.txt``.

The seeded pattern search prints its angles and value in every
unequal-strength ``bound`` report, so a faster search must visit the same
points, take the same argmax and return the same floats.  Each line of the
reference file is ``operator label repr(angles) repr(value)``.

The inputs: 40 seeded draws over ``random``, ``gghz`` and ``mix:w`` states,
degenerate spectra (s1 = s2), zero strengths, an ``x_asymmetric`` ridge
(R_Y = R_Y', R_Z = R_Z'), and the four longest searches (55-60 rounds) of
perfbench's seed-1 ``bound`` pool, whose (s1, s2) are taken as the CLI takes
them.  A change that moves the search on purpose rewrites the file with
``python tests/test_search_pin.py`` and says which lines moved and why.
"""

from pathlib import Path

import numpy as np
import pytest

from bell3q import Strengths, build, decompose, parse_state_spec
from bell3q.cli import _state_context
from bell3q.observables import OPERATORS

REFERENCE = Path(__file__).resolve().parent / "golden" / "grid_angles.txt"

# (state, strengths) of the seed-1 bound pool's 55-60-round searches
POOL_SEARCHES = (
    ("mix:ghz:0.6963470043369431", "0.9088040977476102,0.5389716082285291,0.6451004598773116,"
     "0.4605648780995314,0.6171717032332761,0.4196456584110311"),
    ("mix:ghz:0.6185629418397599", "0.7208778870887143,0.7738871069881518,0.6706362407826697,"
     "0.91551408729285,0.4787093337644761,0.45797187862526745"),
    ("mix:ghz:0.7291882105534648", "0.9589366333789835,0.7212945087101676,0.3312131756484325,"
     "0.5863871114451704,0.7820282528661473,0.6284160565261131"),
    ("mix:w:0.8859229744234305", "0.3154526161901834,0.650775567433097,0.7787902323222149,"
     "0.39654276223475116,0.4249866709090968,0.842685101408865"),
)


def _inputs():
    """(label, s1, s2, strengths) for every pinned search."""
    rng = np.random.default_rng(2024)   # the draws of TestSeededAngleSearch._inputs
    kinds = ("random", "gghz", "mix:w")
    for i in range(40):
        kind = kinds[i % 3]
        if kind == "random":
            spec = f"random:{int(rng.integers(0, 10**6))}"
        elif kind == "gghz":
            spec = f"gghz:{rng.uniform(0.05, np.pi / 2)!r}"
        else:
            spec = f"mix:w:{rng.uniform(0.3, 1.0)!r}"
        s = np.linalg.svd(decompose(build(parse_state_spec(spec))).t_matrix, compute_uv=False)
        yield f"draw:{i}:{spec}", float(s[0]), float(s[1]), Strengths.from_iterable(
            rng.uniform(0.3, 1.0, 6))
    rng = np.random.default_rng(5)
    for i, s in enumerate((1.0, 1.0, 0.6, 0.25)):
        yield f"degenerate:{i}", s, s, Strengths.from_iterable(rng.uniform(0.3, 1.0, 6))
    yield "zero:all", 0.9, 0.4, Strengths.uniform(0.0)
    yield "zero:x", 0.9, 0.4, Strengths(0.0, 0.0, 0.8, 0.5, 0.7, 0.6)
    yield "zero:xp", 0.9, 0.4, Strengths(0.8, 0.0, 0.8, 0.5, 0.7, 0.6)
    for i in range(3):
        rx, rxp = np.sort(rng.uniform(0.3, 1.0, 2))[::-1]
        ry, rz = rng.uniform(0.3, 1.0, 2)
        s1, s2 = np.sort(rng.uniform(0.1, 1.0, 2))[::-1]
        yield f"ridge:{i}", float(s1), float(s2), Strengths(rx, rxp, ry, ry, rz, rz)
    for spec, strengths in POOL_SEARCHES:
        s1, s2 = _state_context(parse_state_spec(spec))[3]
        yield f"pool:{spec}", s1, s2, Strengths.from_iterable(strengths.split(","))


def _lines():
    inputs = list(_inputs())
    return [f"{operator} {label} {angles!r} {value!r}"
            for operator in ("mermin", "svetlichny")
            for label, s1, s2, st in inputs
            for angles, value in [OPERATORS[operator].grid_angles(s1, s2, st)]]


def test_search_matches_reference():
    expected = REFERENCE.read_text().splitlines()
    found = _lines()
    assert len(found) == len(expected)
    for line, want in zip(found, expected):
        assert line == want


if __name__ == "__main__":
    REFERENCE.write_text("\n".join(_lines()) + "\n")
