"""The likelihood factorization as first written, on scipy's ``cholesky``
and ``cho_solve``, kept as the reference that ``gp._factor_solve`` must
match bit for bit; the kernels to compare them on; and two test kernels,
one whose Gram needs the jitter ladder and one with a NaN in its Gram.
"""

import zlib

import numpy as np
from scipy.linalg import cho_solve, cholesky

import stepgp as sg
from stepgp.gp import JITTER_GROWTH, JITTER_INIT, JITTER_MAX_TRIES

from _instances import KIND_BUILDERS, random_points


def gram(kernel, X):
    """The Gram matrix with the upper triangle mirrored by ``np.triu``."""
    K = kernel.cross(X, X)
    return np.triu(K) + np.triu(K, 1).T


def chol_with_jitter(K, fixed_jitter=None):
    n = K.shape[0]
    mean_diag = float(np.mean(np.diag(K)))
    if not np.isfinite(mean_diag) or mean_diag <= 0:
        raise sg.NumericsError(
            f"Gram diagonal is not positive (mean {mean_diag})")
    if fixed_jitter is not None:
        try:
            L = cholesky(K + fixed_jitter * np.eye(n), lower=True)
            return L, float(fixed_jitter)
        except np.linalg.LinAlgError as e:
            raise sg.NumericsError(
                f"Cholesky failed at fixed jitter {fixed_jitter:.3g}") from e
    jitter = JITTER_INIT * mean_diag
    for _ in range(JITTER_MAX_TRIES + 1):
        try:
            return cholesky(K + jitter * np.eye(n), lower=True), jitter
        except np.linalg.LinAlgError:
            jitter *= JITTER_GROWTH
    raise sg.NumericsError(
        f"Cholesky failed for all nuggets up to {jitter / JITTER_GROWTH:.3g}")


def mu_from_factor(L, y):
    one = np.ones(y.shape[0])
    Kinv_one = cho_solve((L, True), one)
    denom = float(one @ Kinv_one)
    if denom <= 0 or not np.isfinite(denom):
        raise sg.NumericsError(f"1' K^-1 1 must be positive, got {denom}")
    return float(Kinv_one @ y) / denom, Kinv_one, denom


def fit_fields(kernel, ts, fixed_jitter=None):
    """``(L, alpha, Kinv_one, one_Kinv_one, mu_hat, jitter_used)``."""
    L, jitter = chol_with_jitter(gram(kernel, ts.X), fixed_jitter)
    mu, Kinv_one, denom = mu_from_factor(L, ts.y)
    alpha = cho_solve((L, True), ts.y - mu)
    return L, alpha, Kinv_one, denom, mu, jitter


def log_likelihood(kernel, ts):
    L, _ = chol_with_jitter(gram(kernel, ts.X))
    mu, _, _ = mu_from_factor(L, ts.y)
    r = ts.y - mu
    alpha = cho_solve((L, True), r)
    n = ts.n
    return float(-0.5 * n * np.log(2.0 * np.pi)
                 - np.sum(np.log(np.diag(L)))
                 - 0.5 * (r @ alpha))


def package_fit_fields(gp):
    return (gp.L, gp.alpha, gp.Kinv_one, gp.one_Kinv_one, gp.mu_hat,
            gp.jitter_used)


def assert_fields_equal(got, want):
    names = ("L", "alpha", "Kinv_one", "one_Kinv_one", "mu_hat",
             "jitter_used")
    for name, g, w in zip(names, got, want, strict=True):
        assert np.array_equal(g, w), name
        assert np.asarray(g).tobytes() == np.asarray(w).tobytes(), name


class DiagonalDeficit(sg.SquaredExponential):
    """A squared exponential with 1e-7 * sigma2 taken off k(x, x): with
    long lengthscales its Gram matrix is indefinite, so a factorization
    needs several steps of the jitter ladder."""

    def _cross(self, X1, X2):
        same = np.all(X1[:, None, :] == X2[None, :, :], axis=-1)
        return super()._cross(X1, X2) - 1e-7 * self.sigma2 * same


class NaNCorner(sg.SquaredExponential):
    """A squared exponential whose Gram has a NaN in one corner pair."""

    def _cross(self, X1, X2):
        K = super()._cross(X1, X2)
        K[0, -1] = np.nan
        return K


def drawn_kernels(kind, n_draws=12):
    """The builder's kernel and ``n_draws`` re-draws at random values in
    the default search boxes, each with its own training set."""
    rng = np.random.default_rng(zlib.crc32(kind.encode()))
    for _ in range(n_draws):
        k, box = KIND_BUILDERS[kind](rng)
        ts = sg.TrainingSet(random_points(rng, box, 12), rng.normal(size=12),
                            box=box)
        yield k, ts
        bounds = sg.default_bounds(k, box, ts.y)
        lo = np.array([b.to_optim(b.lower) for b in bounds])
        hi = np.array([b.to_optim(b.upper) for b in bounds])
        theta = lo + rng.random(len(bounds)) * (hi - lo)
        yield k.with_values([b.from_optim(t)
                             for b, t in zip(bounds, theta)]), ts
