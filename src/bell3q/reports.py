"""Shared value types for the bound calculators."""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Optional

import numpy as np

__all__ = ["Strengths", "BoundReport", "ConsistencyError"]

RANGE_TOL = 1e-12


class ConsistencyError(RuntimeError):
    """A closed form evaluated outside its provable range (implementation bug
    or corrupted input, never a legitimate parameter regime)."""


@dataclass(frozen=True)
class Strengths:
    """The six measurement strengths (R_X, R_X', R_Y, R_Y', R_Z, R_Z')."""

    rx: float
    rxp: float
    ry: float
    ryp: float
    rz: float
    rzp: float

    def __post_init__(self):
        for name, v in self.__dict__.items():
            if not (-RANGE_TOL <= v <= 1.0 + RANGE_TOL):
                raise ValueError(f"strength {name}={v!r} outside [0, 1]")

    @classmethod
    def equal(cls, rx: float, ry: float, rz: float) -> "Strengths":
        return cls(rx, rx, ry, ry, rz, rz)

    @classmethod
    def uniform(cls, r: float) -> "Strengths":
        return cls(r, r, r, r, r, r)

    @classmethod
    def from_iterable(cls, values) -> "Strengths":
        vals = [float(v) for v in values]
        if len(vals) != 6:
            raise ValueError("need exactly six strengths")
        return cls(*vals)

    def as_array(self) -> np.ndarray:
        return np.array([self.rx, self.rxp, self.ry, self.ryp, self.rz, self.rzp])

    @property
    def bars(self) -> np.ndarray:
        """Slack 1 - R of each observable, the maximal bias magnitudes."""
        return 1.0 - self.as_array()

    @property
    def equal_per_side(self) -> bool:
        return (abs(self.rx - self.rxp) <= RANGE_TOL
                and abs(self.ry - self.ryp) <= RANGE_TOL
                and abs(self.rz - self.rzp) <= RANGE_TOL)

    def swapped(self, pattern) -> "Strengths":
        vals = self.as_array()
        for party, flag in enumerate(pattern):
            if flag:
                i = 2 * party
                vals[i], vals[i + 1] = vals[i + 1], vals[i]
        return Strengths(*vals)


@dataclass(frozen=True)
class BoundReport:
    """One computed upper bound, with provenance and optional oracle data."""

    bound_value: float
    criterion: str
    achieving_angles: Optional[tuple[float, float, float]] = None
    oracle_value: Optional[float] = None
    gap: Optional[float] = field(default=None)
    notes: str = ""

    def with_oracle(self, oracle_value: float) -> "BoundReport":
        return replace(self, oracle_value=float(oracle_value),
                       gap=float(self.bound_value - oracle_value))
