"""Axis-aligned box domains and point arrays."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DimensionError


@dataclass(frozen=True)
class Box:
    """A finite axis-aligned box, lower[i] < upper[i] for every axis."""

    lower: tuple[float, ...]
    upper: tuple[float, ...]

    def __post_init__(self):
        lo = np.asarray(self.lower, dtype=float)
        hi = np.asarray(self.upper, dtype=float)
        if lo.ndim != 1 or lo.shape != hi.shape or lo.size == 0:
            raise DimensionError("box lower/upper must be equal-length 1-D sequences")
        if not (np.isfinite(lo).all() and np.isfinite(hi).all()):
            raise ValueError("box bounds must be finite")
        if not (lo < hi).all():
            raise ValueError("box requires lower < upper on every axis")
        object.__setattr__(self, "lower", tuple(float(v) for v in lo))
        object.__setattr__(self, "upper", tuple(float(v) for v in hi))

    @classmethod
    def cube(cls, lo: float, hi: float, d: int) -> "Box":
        return cls((lo,) * d, (hi,) * d)

    @property
    def d(self) -> int:
        return len(self.lower)

    @property
    def widths(self) -> np.ndarray:
        return np.asarray(self.upper) - np.asarray(self.lower)

    def contains(self, X: np.ndarray) -> bool:
        X = np.atleast_2d(np.asarray(X, dtype=float))
        return bool((X >= np.asarray(self.lower)).all()
                    and (X <= np.asarray(self.upper)).all())

    def from_unit(self, U: np.ndarray) -> np.ndarray:
        """Affinely map points in [0, 1]^d onto the box."""
        U = np.asarray(U, dtype=float)
        return np.asarray(self.lower) + U * self.widths

    def to_unit(self, X: np.ndarray) -> np.ndarray:
        X = np.asarray(X, dtype=float)
        return (X - np.asarray(self.lower)) / self.widths


def as_points(X, d: int) -> np.ndarray:
    """X as an (n, d) float array.  A flat array is a column of points
    when d = 1 and a single point otherwise."""
    X = np.asarray(X, dtype=float)
    if X.ndim == 1:
        X = X[:, None] if d == 1 else X[None, :]
    if X.ndim != 2 or X.shape[1] != d:
        raise DimensionError(
            f"expected points of dimension {d}, got shape {X.shape}")
    return X
