"""Space-filling designs: maximin Latin hypercubes and uniform test sets.

A Latin hypercube places exactly one point in each of n equal-width strata
per axis, uniformly within its stratum, so the projection property is
exact by construction and designs vary across seeds (in 1-D a
center-placed LHS would collapse to the same grid for every seed, which
defeats replicated benchmarking).  The maximin variant then anneals
within-column swaps to push points apart: a swap that increases the
minimum pairwise distance is always kept, a worsening one survives with
probability exp((d_new - d_old) / T) under a geometrically cooled
temperature.  Distances are measured on unit-box coordinates so axis
scaling cannot bias the criterion; the reported min_dist is in domain
units.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.spatial.distance import pdist

from .domain import Box
from .errors import ConfigError, DataError, DimensionError

#: annealing defaults: initial T = 0.1 * starting min_dist, cooling per
#: temperature step, within-column swaps tried per step
T0_FACTOR = 0.1
COOLING = 0.95
SWAPS_PER_TEMP = 50
DEFAULT_ITERS = 100


@dataclass(frozen=True)
class DesignSpec:
    """Request for a maximin LHS: size, dimension, domain, seed."""

    n: int
    d: int
    domain: Box
    seed: int = 0
    optimize_iters: int = DEFAULT_ITERS

    def __post_init__(self):
        if self.n < 2:
            raise ConfigError(f"n must be >= 2, got {self.n}")
        if self.d < 1:
            raise DimensionError(f"d must be >= 1, got {self.d}")
        if self.domain.d != self.d:
            raise DimensionError(
                f"domain dimension {self.domain.d} != d {self.d}")
        if self.optimize_iters < 0:
            raise ConfigError("optimize_iters must be >= 0")


@dataclass(frozen=True)
class Design:
    """Finished design: points in domain coordinates plus its min_dist."""

    points: np.ndarray
    min_dist: float
    seed: int
    box: Box


def _lhs_unit(n: int, d: int, rng: np.random.Generator) -> np.ndarray:
    """Random LHS on the unit box: per axis, one point uniform in each of
    the n strata, stratum order shuffled."""
    U = np.empty((n, d))
    for j in range(d):
        U[:, j] = (rng.permutation(n) + rng.random(n)) / n
    return U


def _min_dist(U: np.ndarray) -> float:
    return float(pdist(U).min())


def random_lhs(n: int, d: int, box: Box, seed: int = 0) -> np.ndarray:
    """Plain (unoptimized) LHS mapped into the box."""
    if n < 2:
        raise ConfigError(f"n must be >= 2, got {n}")
    if box.d != d:
        raise DimensionError(f"box dimension {box.d} != d {d}")
    rng = np.random.default_rng(seed)
    return box.from_unit(_lhs_unit(n, d, rng))


def maximin_lhs(spec: DesignSpec) -> Design:
    """Anneal within-column swaps to maximize the minimum pairwise
    distance.  Deterministic given the seed; the best state ever visited
    is returned, so the result is never worse than the initial LHS."""
    rng = np.random.default_rng(spec.seed)
    n, d = spec.n, spec.d
    cur = _lhs_unit(n, d, rng)
    cur_d = _min_dist(cur)
    best, best_d = cur.copy(), cur_d
    T = T0_FACTOR * cur_d
    for _ in range(spec.optimize_iters):
        for _ in range(SWAPS_PER_TEMP):
            j = int(rng.integers(d))
            i1, i2 = rng.choice(n, size=2, replace=False)
            cand = cur.copy()
            cand[i1, j], cand[i2, j] = cur[i2, j], cur[i1, j]
            cand_d = _min_dist(cand)
            if cand_d >= cur_d or rng.random() < np.exp((cand_d - cur_d) / T):
                cur, cur_d = cand, cand_d
                if cur_d > best_d:
                    best, best_d = cur.copy(), cur_d
        T *= COOLING
    points = spec.domain.from_unit(best)
    return Design(points=points, min_dist=_min_dist(points),
                  seed=spec.seed, box=spec.domain)


def uniform_test_set(n_t: int, d: int, box: Box, seed: int = 0) -> np.ndarray:
    """n_t i.i.d. uniform points in the box, deterministic given seed."""
    if n_t < 1:
        raise ConfigError(f"n_t must be >= 1, got {n_t}")
    if box.d != d:
        raise DimensionError(f"box dimension {box.d} != d {d}")
    rng = np.random.default_rng(seed)
    return box.from_unit(rng.random((n_t, d)))


def write_design_csv(design: Design, path, meta: dict | None = None) -> None:
    """Header ``x1,..,xd`` plus one full-precision row per point.  ``meta``
    entries become leading ``# key=value`` comment lines."""
    X = design.points
    d = X.shape[1]
    lines = []
    for k, v in (meta or {}).items():
        lines.append(f"# {k}={v}")
    lines.append(f"# min_dist={design.min_dist!r}")
    lines.append(f"# seed={design.seed}")
    lines.append(",".join(f"x{j + 1}" for j in range(d)))
    for row in X:
        lines.append(",".join(repr(float(v)) for v in row))
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")


def _read_csv(path) -> tuple[list[str], np.ndarray]:
    """Header and (n, width) rows of a numeric CSV; blank and ``#``
    comment lines are skipped."""
    rows = []
    header = None
    with open(path) as fh:
        for raw in fh:
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            if header is None:
                header = [c.strip() for c in line.split(",")]
                continue
            try:
                rows.append([float(c) for c in line.split(",")])
            except ValueError as e:
                raise DataError(f"{path}: bad row {line!r}") from e
    if header is None or not rows:
        raise DataError(f"{path}: no data rows")
    if any(len(row) != len(header) for row in rows):
        raise DataError(f"{path}: row width does not match header")
    return header, np.array(rows, dtype=float)


def read_points_csv(path) -> np.ndarray:
    """Read a points CSV written by :func:`write_design_csv` (comment lines
    ignored).  Returns the (n, d) array."""
    return _read_csv(path)[1]
