"""Maximum-likelihood estimation of kernel hyperparameters.

The profiled log-likelihood (constant mean replaced by its GLS estimate)

    L = -(n/2) ln(2 pi) - (1/2) ln|K| - (1/2) (y - mu_hat 1)' K^-1 (y - mu_hat 1)

is maximized with bounded Nelder-Mead restarted from a deterministic
Latin-hypercube of starting points.  Positive parameters are searched as
ln(value - shift), so no simplex move can propose an infeasible value.
Every evaluation factors K through ``gp._factor_solve``, the helper that
``gp.fit`` also uses, so both apply one nugget policy.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass

import numpy as np
from scipy.optimize import Bounds, minimize

from .domain import Box
from .errors import NumericsError, OptimizationError, ParameterError
from .gp import TrainingSet, _factor_solve
from .kernels import HyperParam, Kernel
from .kernels.params import Node, search_box

log = logging.getLogger(__name__)

#: a parameter is flagged "at boundary" when within this tolerance of a bound
BOUNDARY_ATOL = 1e-6
#: restarts are drawn in deterministic blocks of this many LHS rows, so a
#: run with more restarts reuses the starts of a run with fewer
_BLOCK = 10


def log_likelihood(kernel: Kernel, training: TrainingSet) -> float:
    """Profiled Gaussian log-likelihood of the training data."""
    L, _, _, _, mu, alpha = _factor_solve(kernel.gram(training.X), training.y)
    r = training.y - mu
    n = training.n
    return float(-0.5 * n * np.log(2.0 * np.pi)
                 - np.sum(np.log(np.diag(L)))
                 - 0.5 * (r @ alpha))


def _data_box(training: TrainingSet) -> Box:
    """The training box, or the data bounding box with degenerate axes
    padded to unit width."""
    if training.box is not None:
        return training.box
    lo = training.X.min(axis=0)
    hi = training.X.max(axis=0)
    flat = hi - lo <= 0
    lo = np.where(flat, lo - 0.5, lo)
    hi = np.where(flat, hi + 0.5, hi)
    return Box(tuple(float(v) for v in lo), tuple(float(v) for v in hi))


def default_bounds(kernel: Kernel, box: Box, y=None) -> tuple[HyperParam, ...]:
    """Search boxes for every hyperparameter of ``kernel``.

    Lengthscales get [0.01, 10] times the axis width, the output variance
    [1e-6, 1e3] times var(y) (1 when y is not given), network weight scales
    and sigmoid steepnesses [0.01, 1000], sigmoid offsets up to 100 above
    their hard limit, and shift coordinates the domain box itself.  Kernels
    downstream of a warp use the warped image's widths.  Each node states
    the boxes of its own parameters (``Node.default_bounds``).
    """
    yvar = 1.0
    if y is not None:
        v = float(np.var(np.asarray(y, dtype=float)))
        if np.isfinite(v) and v > 0:
            yvar = v
    return _with_bounds(kernel, box, yvar).params


def _with_bounds(node: Node, box: Box, yvar: float) -> Node:
    """``node`` with every hyperparameter replaced by its search box."""
    children = [_with_bounds(c, b, yvar)
                for c, b in zip(node.children, node.child_boxes(box))]
    return node.replaced(node.default_bounds(box, yvar), children)


@dataclass(frozen=True)
class RestartRecord:
    """Outcome of one Nelder-Mead restart."""

    index: int
    loglik: float
    converged: bool
    n_evals: int
    values: tuple[float, ...]


@dataclass(frozen=True)
class MLResult:
    """Best fit over all restarts.  ``jitter`` is the nugget the
    likelihood used at the best values, the one ``gp.fit`` picks there."""

    kernel: Kernel
    loglik: float
    converged: bool
    at_boundary: tuple[str, ...]
    restarts: tuple[RestartRecord, ...]
    n_evals: int
    seed: int
    jitter: float

    @property
    def values(self) -> dict[str, float]:
        return {p.name: p.value for p in self.kernel.params}


def _merge_bounds(kernel: Kernel, bounds) -> list[HyperParam]:
    """Intersect requested search bounds with each parameter's own box."""
    by_name = {p.name: p for p in bounds}
    own = {p.name: p for p in kernel.params}
    if set(by_name) != set(own):
        raise ParameterError(
            f"bounds names {sorted(by_name)} do not match kernel "
            f"parameters {sorted(own)}")
    out = []
    for p in kernel.params:
        b = by_name[p.name]
        lo, hi = max(b.lower, p.lower), min(b.upper, p.upper)
        if not lo <= hi:
            raise ParameterError(
                f"{p.name}: search bounds [{b.lower}, {b.upper}] do not "
                f"intersect parameter bounds [{p.lower}, {p.upper}]")
        out.append(search_box(b, lo, hi, b.scale, b.shift))
    return out


def _start_block(block: int, search: list[HyperParam], seed: int) -> np.ndarray:
    """One deterministic LHS block of _BLOCK starting points in the
    optimizer coordinates."""
    rng = np.random.default_rng([seed, block])
    p = len(search)
    lo = np.array([s.to_optim(s.lower) for s in search])
    hi = np.array([s.to_optim(s.upper) for s in search])
    U = np.empty((_BLOCK, p))
    for j in range(p):
        U[:, j] = (rng.permutation(_BLOCK) + 0.5) / _BLOCK
    return lo + U * (hi - lo)


def maximize_likelihood(kernel: Kernel, training: TrainingSet,
                        bounds=None, n_restarts: int = 10, seed: int = 0,
                        max_evals: int = 2000) -> MLResult:
    """Fit hyperparameters by restarted bounded Nelder-Mead.

    ``bounds`` replaces the default search boxes (one HyperParam per kernel
    parameter, matched by name).  Restart r draws its start from LHS block
    r // 10, so increasing ``n_restarts`` only appends restarts.  Raises
    OptimizationError when every restart fails to produce a finite
    likelihood.
    """
    if kernel.dim != training.d:
        raise ParameterError(
            f"kernel dimension {kernel.dim} != data dimension {training.d}")
    if n_restarts < 1:
        raise ParameterError("n_restarts must be >= 1")
    if bounds is None:
        bounds = default_bounds(kernel, _data_box(training), training.y)
    search = _merge_bounds(kernel, bounds)

    if not search:
        ll = log_likelihood(kernel, training)
        return MLResult(kernel=kernel, loglik=ll, converged=True,
                        at_boundary=(), restarts=(), n_evals=1, seed=seed,
                        jitter=_jitter_at(kernel, training))

    def neg_ll(theta):
        vals = [s.from_optim(t) for s, t in zip(search, theta)]
        try:
            ll = log_likelihood(kernel.with_values(vals), training)
        except (NumericsError, ParameterError):
            return np.inf
        return -ll if np.isfinite(ll) else np.inf

    lo_t = np.array([s.to_optim(s.lower) for s in search])
    hi_t = np.array([s.to_optim(s.upper) for s in search])
    nm_bounds = Bounds(lo_t, hi_t)

    records = []
    block = None
    for r in range(n_restarts):
        if r % _BLOCK == 0:
            block = _start_block(r // _BLOCK, search, seed)
        x0 = block[r % _BLOCK]
        res = minimize(neg_ll, x0, method="Nelder-Mead", bounds=nm_bounds,
                       options=dict(xatol=1e-8, fatol=1e-8,
                                    maxfev=max_evals, maxiter=max_evals))
        vals = tuple(s.from_optim(t) for s, t in zip(search, res.x))
        records.append(RestartRecord(
            index=r, loglik=float(-res.fun), converged=bool(res.success),
            n_evals=int(res.nfev), values=vals))

    finite = [rec for rec in records if np.isfinite(rec.loglik)]
    if not finite:
        raise OptimizationError(
            f"all {n_restarts} restarts failed to reach a finite likelihood")
    converged = [rec for rec in finite if rec.converged]
    pool = converged if converged else finite
    best = max(pool, key=lambda rec: rec.loglik)
    if not converged:
        log.warning("no restart converged; best non-converged restart used")

    at_boundary = []
    for s, v in zip(search, best.values):
        tol_lo = max(BOUNDARY_ATOL, BOUNDARY_ATOL * abs(s.lower))
        tol_hi = max(BOUNDARY_ATOL, BOUNDARY_ATOL * abs(s.upper))
        if abs(v - s.lower) <= tol_lo or abs(v - s.upper) <= tol_hi:
            at_boundary.append(s.name)

    best_kernel = kernel.with_values(best.values)
    return MLResult(kernel=best_kernel,
                    loglik=best.loglik,
                    converged=bool(converged),
                    at_boundary=tuple(at_boundary),
                    restarts=tuple(records),
                    n_evals=sum(rec.n_evals for rec in records),
                    seed=seed,
                    jitter=_jitter_at(best_kernel, training))


def _jitter_at(kernel: Kernel, training: TrainingSet) -> float:
    """The nugget the likelihood of ``kernel`` uses.  The factorization is
    deterministic, so this repeats the one behind the recorded
    log-likelihood instead of threading the nugget out of the objective."""
    return _factor_solve(kernel.gram(training.X), training.y)[1]
