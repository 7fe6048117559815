"""Gibbs covariance with a shared input-dependent lengthscale.

    k(x, x') = sigma2 * ( 2 l(x) l(x') / (l(x)^2 + l(x')^2) )^{d/2}
               * exp( - sum_i (x_i - x_i')^2 / (l(x)^2 + l(x')^2) )

l is a positive scalar function shared by all axes.  A sigmoid-shaped l
that drops near a point makes the process wiggle there and stay smooth
elsewhere, which mimics a step without actually breaking continuity.
With constant l the kernel reduces exactly to the squared-exponential.
"""

from __future__ import annotations

from abc import ABC, abstractmethod

import numpy as np

from ..errors import DimensionError, ParameterError
from .base import Kernel
from .params import SIGMOIDS, AxisNode, HyperParam, Node, offset_above
from .params import positive, search_box, steepness_box, variance_box


class LengthScaleFn(Node, ABC):
    """Positive scalar field l(x) used by :class:`GibbsKernel`."""

    kinds = {}
    #: lower limit every l value must exceed (sigmoid offset constraint)
    c2_limit: float = 0.0

    @abstractmethod
    def values(self, X: np.ndarray) -> np.ndarray:
        """l at each row of X, shape (n,)."""

    def default_bounds(self, box, yvar):
        """Steepness c1 in [0.01, 1000], offset c2 up to 100 above its
        limit."""
        *c1, c2 = self._params
        lim = self.c2_limit
        return (*(steepness_box(p) for p in c1),
                search_box(c2, lim + 1e-2, lim + 100.0, shift=lim))


@LengthScaleFn.register
class ConstantLS(LengthScaleFn):
    """l(x) = c2 with c2 > 0."""

    kind = "Constant"

    def __init__(self, c2=1.0):
        self._params = (positive("c2", float(c2)),)

    def values(self, X):
        return np.full(X.shape[0], self._params[0].value)


class _AxisLS(AxisNode, LengthScaleFn):
    """Lengthscale functions of a single coordinate x[axis]; unless a
    subclass overrides :meth:`values`, l(x) = g(c1 * x[axis]) + c2 for the
    sigmoid g of ``SIGMOIDS[kind]``, with c2 > -inf g so that l > 0."""

    noun = "lengthscale"

    def __init__(self, c1=1.0, c2=None, axis=0):
        super().__init__(axis)
        if c2 is None:
            c2 = self.c2_limit + 1.0
        self._params = (self._default_c1("c1", float(c1)),
                        offset_above("c2", float(c2), self.c2_limit))

    @staticmethod
    def _default_c1(name, v):
        return HyperParam(name, v, -1e6, 1e6)

    @property
    def c2_limit(self) -> float:
        # 0.0 - inf g, not -inf g: Logistic's limit is +0.0, not -0.0
        return 0.0 - SIGMOIDS[self.kind][1]

    @property
    def c1(self) -> float:
        return self._params[0].value

    @property
    def c2(self) -> float:
        return self._params[1].value

    def values(self, X):
        return SIGMOIDS[self.kind][0](self.c1 * self._coord(X)) + self.c2


@LengthScaleFn.register
class QuadraticLS(_AxisLS):
    """l(x) = c1 * x[axis]^2 + c2 with c1 >= 0, c2 > 0.

    Grows away from the origin: short lengthscales near 0, long far out.
    """

    kind = "Quadratic"
    c2_limit = 0.0

    @staticmethod
    def _default_c1(name, v):
        if v < 0:
            raise ParameterError(f"quadratic coefficient must be >= 0, got {v}")
        return HyperParam(name, v, 0.0, 1e6)

    def values(self, X):
        t = self._coord(X)
        return self.c1 * t * t + self.c2


@LengthScaleFn.register
class ErfLS(_AxisLS):
    """l(x) = erf(c1 * x[axis]) + c2 with c2 > 1."""

    kind = "Erf"


@LengthScaleFn.register
class LogisticLS(_AxisLS):
    """l(x) = 1 / (1 + exp(c1 * x[axis])) + c2 with c2 > 0."""

    kind = "Logistic"


@LengthScaleFn.register
class TanhLS(_AxisLS):
    """l(x) = tanh(c1 * x[axis]) + c2 with c2 > 1."""

    kind = "Tanh"


@LengthScaleFn.register
class ArctanLS(_AxisLS):
    """l(x) = arctan(c1 * x[axis]) + c2 with c2 > pi/2."""

    kind = "Arctan"


@Kernel.register
class GibbsKernel(Kernel):
    """Nonstationary squared-exponential with lengthscale field ``lsfn``."""

    kind = "Gibbs"
    slots = (("lsfn", "", LengthScaleFn),)

    def __init__(self, dim: int, lsfn: LengthScaleFn, sigma2=1.0):
        super().__init__(dim)
        if not isinstance(lsfn, LengthScaleFn):
            raise ParameterError("lsfn must be a LengthScaleFn")
        self.lsfn = lsfn
        self._params = (positive("variance", float(sigma2)),)
        self._assert_unique_names()

    @property
    def sigma2(self) -> float:
        return self._params[0].value

    def default_bounds(self, box, yvar):
        return (variance_box(self._params[0], yvar),)

    def _ls(self, X):
        l = np.asarray(self.lsfn.values(X), dtype=float)
        if l.shape != (X.shape[0],):
            raise DimensionError(
                f"lengthscale fn returned shape {l.shape} for {X.shape[0]} points")
        if np.any(l <= 0):
            raise ParameterError("lengthscale must be positive at every point")
        return l

    def _cross(self, X1, X2):
        l1 = self._ls(X1)
        l2 = self._ls(X2)
        L2 = l1[:, None] ** 2 + l2[None, :] ** 2
        pref = (2.0 * np.outer(l1, l2) / L2) ** (0.5 * self.dim)
        sq = np.sum((X1[:, None, :] - X2[None, :, :]) ** 2, axis=-1)
        return self.sigma2 * pref * np.exp(-sq / L2)
