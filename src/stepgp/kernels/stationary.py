"""Stationary covariance kernels.

Each kernel is a tensor product of one-dimensional correlation shapes
rho(|x_i - x_i'| / l_i) over the input axes, scaled by a shared variance:

    k(x, x') = sigma2 * prod_i rho_i(|x_i - x_i'| / l_i)

Hyperparameters are ``variance`` and one lengthscale ``l1 .. ld`` per axis.
"""

from __future__ import annotations

import numpy as np

from ..errors import DimensionError
from .base import Kernel
from .params import positive, search_box, variance_box


class _TensorStationary(Kernel):
    """Shared machinery: scaled absolute differences per axis, a subclass
    correlation shape, and the product over axes."""

    def __init__(self, dim: int, sigma2=1.0, lengthscales=1.0):
        super().__init__(dim)
        s2 = positive("variance", float(sigma2))
        if isinstance(lengthscales, (int, float)):
            lengthscales = [lengthscales] * self.dim
        ls = [positive(f"l{i}", float(l))
              for i, l in enumerate(lengthscales, start=1)]
        if len(ls) != self.dim:
            raise DimensionError(
                f"expected {self.dim} lengthscales, got {len(ls)}")
        self._params = (s2, *ls)

    @property
    def sigma2(self) -> float:
        return self._params[0].value

    @property
    def lengthscales(self) -> np.ndarray:
        return np.array([p.value for p in self._params[1:]])

    def default_bounds(self, box, yvar):
        """Lengthscales in [0.01, 10] times the axis width."""
        widths = np.asarray(box.widths, dtype=float)
        return (variance_box(self._params[0], yvar),
                *(search_box(p, 1e-2 * w, 10.0 * w)
                  for p, w in zip(self._params[1:], widths)))

    @staticmethod
    def _rho(T: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def _cross(self, X1, X2):
        T = np.abs(X1[:, None, :] - X2[None, :, :]) / self.lengthscales
        return self.sigma2 * np.prod(self._rho(T), axis=-1)


@Kernel.register
class Exponential(_TensorStationary):
    """k = sigma2 * prod_i exp(-|dx_i| / l_i)"""

    kind = "Exponential"

    @staticmethod
    def _rho(T):
        return np.exp(-T)


@Kernel.register
class Matern32(_TensorStationary):
    """k = sigma2 * prod_i (1 + sqrt(3)|dx_i|/l_i) exp(-sqrt(3)|dx_i|/l_i)"""

    kind = "Matern32"

    @staticmethod
    def _rho(T):
        S = np.sqrt(3.0) * T
        return (1.0 + S) * np.exp(-S)


@Kernel.register
class Matern52(_TensorStationary):
    """k = sigma2 * prod_i (1 + sqrt(5)|dx_i|/l_i + 5 dx_i^2 / (3 l_i^2))
    * exp(-sqrt(5)|dx_i|/l_i)"""

    kind = "Matern52"

    @staticmethod
    def _rho(T):
        S = np.sqrt(5.0) * T
        return (1.0 + S + (5.0 / 3.0) * T * T) * np.exp(-S)


@Kernel.register
class SquaredExponential(_TensorStationary):
    """k = sigma2 * prod_i exp(-dx_i^2 / (2 l_i^2))"""

    kind = "SquaredExp"

    @staticmethod
    def _rho(T):
        return np.exp(-0.5 * T * T)
