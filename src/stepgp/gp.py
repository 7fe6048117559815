"""Gaussian-process regression with a constant mean estimated by
generalized least squares.

The model is y = mu + Z(x), Z a zero-mean GP with covariance k.  With
K the training Gram matrix and 1 the all-ones vector:

    mu_hat = 1' K^-1 y / 1' K^-1 1
    m(x)   = mu_hat + k(x)' K^-1 (y - mu_hat 1)
    s2(x)  = k(x,x) - k(x)' K^-1 k(x)
             + (1 - 1' K^-1 k(x))^2 / (1' K^-1 1)

The last variance term charges for not knowing the mean.  All solves go
through one Cholesky factorization of K plus a small diagonal nugget,
made by ``_factor_solve``, the helper that ``fit``, ``estimate_mu`` and
``mle.log_likelihood`` share.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, field

import numpy as np
from scipy.linalg.lapack import dpotrf, dpotrs
from scipy.spatial.distance import pdist

from .domain import Box, as_points
from .errors import DataError, DimensionError, NumericsError
from .kernels import Kernel

log = logging.getLogger(__name__)

#: initial nugget, as a fraction of the mean Gram diagonal
JITTER_INIT = 1e-10
#: each retry multiplies the nugget by this
JITTER_GROWTH = 10.0
#: give up after this many escalations (largest nugget tried: 1e-4)
JITTER_MAX_TRIES = 6


@dataclass(frozen=True)
class TrainingSet:
    """Immutable design/response pair, with an optional domain box."""

    X: np.ndarray
    y: np.ndarray
    box: Box | None = None

    def __post_init__(self):
        X = np.asarray(self.X, dtype=float)
        if X.ndim == 1:
            X = X[:, None]
        y = np.asarray(self.y, dtype=float).ravel()
        if X.ndim != 2:
            raise DimensionError(f"X must be 2-D, got shape {X.shape}")
        n, d = X.shape
        if n < 2:
            raise DataError("need at least two training points")
        if y.shape != (n,):
            raise DimensionError(
                f"y has length {y.shape[0]} but X has {n} rows")
        if not np.all(np.isfinite(X)) or not np.all(np.isfinite(y)):
            raise DataError("training data must be finite")
        if self.box is not None:
            if self.box.d != d:
                raise DimensionError(
                    f"box dimension {self.box.d} != data dimension {d}")
            if not self.box.contains(X):
                raise DataError("training points fall outside the given box")
        # near-coincident rows make the Gram matrix numerically singular
        # for any kernel, so reject them up front
        if n > 1:
            span = X.max(axis=0) - X.min(axis=0)
            tol = 1e-12 * float(np.linalg.norm(span))
            # pdist lists pairs in triu_indices(n, 1) order, so the first
            # close entry names the first offending pair (i, j)
            close = np.flatnonzero(pdist(X) <= tol)
            if close.size:
                iu = np.triu_indices(n, k=1)
                i, j = iu[0][close[0]], iu[1][close[0]]
                raise DataError(
                    f"training rows {i} and {j} coincide (within {tol:.3g})")
        object.__setattr__(self, "X", X)
        object.__setattr__(self, "y", y)

    @property
    def n(self) -> int:
        return self.X.shape[0]

    @property
    def d(self) -> int:
        return self.X.shape[1]


def _factor_solve(K: np.ndarray, y: np.ndarray,
                  fixed_jitter: float | None = None):
    """Factor K + jitter*I and solve for the GLS mean and the weights.

    The one factorization behind :func:`fit`, :func:`estimate_mu` and
    ``mle.log_likelihood``.  It calls LAPACK ``dpotrf``/``dpotrs`` directly
    and writes the nugget onto the diagonal of ``K``, which it therefore
    consumes.  The nugget starts at JITTER_INIT * mean(diag K) and grows
    tenfold on every failure, up to JITTER_MAX_TRIES escalations;
    ``fixed_jitter`` uses exactly that nugget instead.

    Returns ``(L, jitter, Kinv_one, one_Kinv_one, mu_hat, alpha)``: the
    lower Cholesky factor, the nugget, K^-1 1, 1' K^-1 1, the GLS mean and
    K^-1 (y - mu_hat 1).
    """
    n = K.shape[0]
    diag = K.diagonal().copy()
    # np.mean's arithmetic (sum, then divide by n) without its overhead
    mean_diag = float(diag.sum()) / n
    if not np.isfinite(mean_diag) or mean_diag <= 0:
        raise NumericsError(
            f"Gram diagonal is not positive (mean {mean_diag})")
    if not np.isfinite(K).all():
        raise NumericsError("Gram matrix has non-finite entries")
    # a view of the diagonal through the flat array needs C order
    K = np.ascontiguousarray(K)
    on_diag = K.reshape(-1)[::n + 1]
    if fixed_jitter is None:
        jitter, tries = JITTER_INIT * mean_diag, JITTER_MAX_TRIES + 1
    else:
        jitter, tries = float(fixed_jitter), 1
    for attempt in range(tries):
        np.add(diag, jitter, out=on_diag)
        L, info = dpotrf(K, lower=1)
        if info == 0:
            break
        jitter *= JITTER_GROWTH
    else:
        if fixed_jitter is not None:
            raise NumericsError(
                f"Cholesky failed at fixed jitter {fixed_jitter:.3g}")
        raise NumericsError(f"Cholesky failed for all nuggets up to "
                            f"{jitter / JITTER_GROWTH:.3g}")
    if attempt > 0:
        log.debug("Cholesky needed jitter %.3g (attempt %d)",
                  jitter, attempt + 1)
    one = np.ones(n)
    Kinv_one, _ = dpotrs(L, one, lower=1)
    denom = float(one @ Kinv_one)
    if denom <= 0 or not np.isfinite(denom):
        raise NumericsError(f"1' K^-1 1 must be positive, got {denom}")
    mu = float(Kinv_one @ y) / denom
    alpha, _ = dpotrs(L, y - mu, lower=1)
    return L, jitter, Kinv_one, denom, mu, alpha


def estimate_mu(kernel: Kernel, training: TrainingSet) -> float:
    """GLS estimate of the constant mean under the given kernel."""
    return _factor_solve(kernel.gram(training.X), training.y)[4]


@dataclass
class FittedGP:
    """A conditioned GP: kernel + training data + cached factorization."""

    kernel: Kernel
    training: TrainingSet
    mu_hat: float
    jitter_used: float
    L: np.ndarray = field(repr=False)
    alpha: np.ndarray = field(repr=False)
    Kinv_one: np.ndarray = field(repr=False)
    one_Kinv_one: float = field(repr=False)

    def predict(self, x) -> tuple[float, float]:
        """Posterior mean and variance at a single point."""
        x = np.atleast_1d(np.asarray(x, dtype=float))
        if x.shape != (self.training.d,):
            raise DimensionError(
                f"expected a point of dimension {self.training.d}, "
                f"got shape {x.shape}")
        k = self.kernel.cross(self.training.X, x[None, :]).ravel()
        kxx = self.kernel(x, x)
        mean = self.mu_hat + float(k @ self.alpha)
        Kinv_k, _ = dpotrs(self.L, k, lower=1)
        resid = 1.0 - float(k @ self.Kinv_one)
        var = kxx - float(k @ Kinv_k) + resid * resid / self.one_Kinv_one
        if var < 0.0:
            if var < -1e-10:
                log.warning("clamped negative predictive variance %.3g", var)
            var = 0.0
        return mean, var

    def predict_batch(self, X) -> tuple[np.ndarray, np.ndarray]:
        """predict() applied row by row; identical numbers, vector shape."""
        out = [self.predict(x) for x in as_points(X, self.training.d)]
        means = np.array([m for m, _ in out])
        variances = np.array([v for _, v in out])
        return means, variances


def fit(kernel: Kernel, training: TrainingSet,
        fixed_jitter: float | None = None) -> FittedGP:
    """Condition the GP on the training set.

    ``fixed_jitter`` skips the escalation loop and uses exactly that
    nugget; it exists so a stored model can be rebuilt bit for bit.
    """
    if kernel.dim != training.d:
        raise DimensionError(
            f"kernel dimension {kernel.dim} != data dimension {training.d}")
    L, jitter, Kinv_one, denom, mu, alpha = _factor_solve(
        kernel.gram(training.X), training.y, fixed_jitter)
    return FittedGP(kernel=kernel, training=training, mu_hat=mu,
                    jitter_used=jitter, L=L, alpha=alpha,
                    Kinv_one=Kinv_one, one_Kinv_one=denom)
