"""Neural-network covariance kernels.

The kernel equals the covariance of an infinitely wide one-layer network
with probit activations and independent N(0, sigma_j^2) weights:

    k(x, x') = (2 sigma2 / pi) * arcsin( 2 u(x)' S u(x')
               / sqrt((1 + 2 u(x)' S u(x)) (1 + 2 u(x')' S u(x'))) )

where u(x) = (1, x_1, .., x_d)' and S = diag(sigma_0^2, .., sigma_d^2).
The shifted variant replaces u(x) by (1, x - tau)', moving the region of
fastest covariance change from the origin to tau.

Sample paths are step-like when some sigma_j is large, which is the whole
point: this kernel can track discontinuities that stationary kernels
smooth over.
"""

from __future__ import annotations

import numpy as np

from ..errors import DimensionError
from .base import Kernel
from .params import HyperParam, positive, search_box, steepness_box
from .params import variance_box

# keep the arcsin argument strictly inside (-1, 1)
_ARCSIN_EPS = 1e-15


def _as_list(v, n, what):
    if isinstance(v, (int, float)):
        v = [v] * n
    v = [float(x) for x in v]
    if len(v) != n:
        raise DimensionError(f"expected {n} {what}, got {len(v)}")
    return v


@Kernel.register
class NeuralNet(Kernel):
    """Arcsine kernel of a wide probit network centred at the origin.

    Parameters are ``variance`` (output scale), and the weight scales
    ``sigma0 .. sigmad`` (sigma0 multiplies the bias entry).  Bounds and
    values refer to sigma_j itself, not its square.
    """

    kind = "NeuralNet"

    def __init__(self, dim: int, sigma2=1.0, sigmas=1.0):
        super().__init__(dim)
        sig = _as_list(sigmas, self.dim + 1, "weight scales")
        self._params = tuple(
            [positive("variance", float(sigma2))]
            + [positive(f"sigma{j}", s) for j, s in enumerate(sig)]
        )

    @property
    def sigma2(self) -> float:
        return self._params[0].value

    @property
    def sigmas(self) -> np.ndarray:
        """Weight scales (sigma_0, .., sigma_d)."""
        return np.array([p.value for p in self._params[1:self.dim + 2]])

    def default_bounds(self, box, yvar):
        """Weight scales in [0.01, 1000]."""
        s2, *sig = self._params[:self.dim + 2]
        return (variance_box(s2, yvar),
                *(steepness_box(p) for p in sig))

    def _center(self, X: np.ndarray) -> np.ndarray:
        return X

    def _cross(self, X1, X2):
        sig = self.sigmas
        # scale inputs by sigma_j so each inner-product term is a product of
        # two identically rounded factors; k(x, x') then equals k(x', x)
        # bitwise
        B1 = self._center(X1) * sig[1:]
        B2 = self._center(X2) * sig[1:]
        s0sq = sig[0] * sig[0]
        S12 = s0sq + B1 @ B2.T
        S11 = s0sq + np.einsum("ij,ij->i", B1, B1)
        S22 = s0sq + np.einsum("ij,ij->i", B2, B2)
        denom = np.sqrt(np.outer(1.0 + 2.0 * S11, 1.0 + 2.0 * S22))
        arg = np.clip(2.0 * S12 / denom, -1.0 + _ARCSIN_EPS, 1.0 - _ARCSIN_EPS)
        return (2.0 * self.sigma2 / np.pi) * np.arcsin(arg)


@Kernel.register
class NeuralNetShifted(NeuralNet):
    """Neural-network kernel with the bias reference moved to ``tau``.

    Adds parameters ``tau1 .. taud``; the augmented input is (1, x - tau)'.
    """

    kind = "NeuralNetShifted"

    def __init__(self, dim: int, sigma2=1.0, sigmas=1.0, tau=0.0):
        super().__init__(dim, sigma2, sigmas)
        taus = _as_list(tau, self.dim, "shift coordinates")
        self._params = self._params + tuple(
            HyperParam(f"tau{j}", t, -1e6, 1e6)
            for j, t in enumerate(taus, start=1)
        )

    @property
    def tau(self) -> np.ndarray:
        return np.array([p.value for p in self._params[self.dim + 2:]])

    def default_bounds(self, box, yvar):
        """Shift coordinates range over the domain box."""
        taus = self._params[self.dim + 2:]
        return super().default_bounds(box, yvar) + tuple(
            search_box(p, lo, hi, scale="linear")
            for p, lo, hi in zip(taus, box.lower, box.upper))

    def _center(self, X):
        return X - self.tau
