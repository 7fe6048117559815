"""Input warping: k~(x, x') = k(M(x), M(x')).

A sigmoid map M squashes one axis through g(c1 * x), so points on the same
side of the steep region land close together in warped space and points on
opposite sides land far apart.  A stationary kernel applied there behaves
like a step-aware kernel in the original space.  PeriodicPair wraps a
1-D input onto a circle, giving exact periodicity with any base kernel.
"""

from __future__ import annotations

from abc import ABC, abstractmethod

import numpy as np

from ..domain import Box
from ..errors import DimensionError, ParameterError
from .base import Kernel
from .params import SIGMOIDS, AxisNode, Node, positive, steepness_box


class WarpMap(Node, ABC):
    """Deterministic map R^in_dim -> R^out_dim applied before a kernel."""

    kinds = {}

    @abstractmethod
    def transform(self, X: np.ndarray) -> np.ndarray:
        ...

    def out_dim(self, in_dim: int) -> int:
        return in_dim

    @abstractmethod
    def output_box(self, box: Box) -> Box:
        """Bounding box of the warped image; used to scale lengthscale
        bounds for the kernel downstream of the warp."""


class _SigmoidWarp(AxisNode, WarpMap):
    """Replace x[axis] by g(c1 * x[axis]) for the sigmoid g of
    ``SIGMOIDS[kind]``, all other axes untouched."""

    noun = "warp"

    def __init__(self, c1=1.0, axis=0):
        super().__init__(axis)
        self._params = (positive("c1", float(c1)),)

    @property
    def c1(self) -> float:
        return self._params[0].value

    def default_bounds(self, box, yvar):
        """Steepness c1 in [0.01, 1000]."""
        return (steepness_box(self._params[0]),)

    def transform(self, X):
        t = self.c1 * self._coord(X)
        out = np.array(X, dtype=float)
        out[:, self.axis] = SIGMOIDS[self.kind][0](t)
        return out

    def output_box(self, box):
        lo = list(box.lower)
        hi = list(box.upper)
        _, lo[self.axis], hi[self.axis] = SIGMOIDS[self.kind]
        return Box(tuple(lo), tuple(hi))


@WarpMap.register
class ErfWarp(_SigmoidWarp):
    """g(t) = erf(t), range (-1, 1)."""

    kind = "Erf"


@WarpMap.register
class LogisticWarp(_SigmoidWarp):
    """g(t) = 1 / (1 + exp(t)), range (0, 1)."""

    kind = "Logistic"


@WarpMap.register
class TanhWarp(_SigmoidWarp):
    """g(t) = tanh(t), range (-1, 1)."""

    kind = "Tanh"


@WarpMap.register
class ArctanWarp(_SigmoidWarp):
    """g(t) = arctan(t), range (-pi/2, pi/2)."""

    kind = "Arctan"


@WarpMap.register
class PeriodicPairWarp(WarpMap):
    """1-D input onto the circle of circumference ``period``:
    M(x) = (cos(2 pi x / T), sin(2 pi x / T)).  No hyperparameters."""

    kind = "PeriodicPair"
    fields = ("period",)

    def __init__(self, period: float):
        period = float(period)
        if not period > 0:
            raise ParameterError(f"period must be > 0, got {period}")
        self.period = period

    def out_dim(self, in_dim):
        if in_dim != 1:
            raise DimensionError("PeriodicPair warps 1-D inputs only")
        return 2

    def transform(self, X):
        if X.shape[1] != 1:
            raise DimensionError("PeriodicPair warps 1-D inputs only")
        ang = (2.0 * np.pi / self.period) * X[:, 0]
        return np.column_stack([np.cos(ang), np.sin(ang)])

    def output_box(self, box):
        return Box((-1.0, -1.0), (1.0, 1.0))


@Kernel.register
class WarpedKernel(Kernel):
    """k(M(x), M(x')) for a warp map M and a base kernel k.

    Warps stack: when k is itself warped, its parameters take the prefix
    ``base.`` (``warp.c1``, ``base.warp.c1``, ``base.variance``, ...), so
    the two warps' names stay apart.
    """

    kind = "Warped"
    slots = (("warp", "warp.", WarpMap), ("child", "", Kernel))

    def __init__(self, warp: WarpMap, child: Kernel, dim: int | None = None):
        if not isinstance(warp, WarpMap):
            raise ParameterError("warp must be a WarpMap")
        if dim is None:
            # sigmoid warps preserve dimension; PeriodicPair needs 1
            dim = 1 if isinstance(warp, PeriodicPairWarp) else child.dim
        super().__init__(dim)
        if warp.out_dim(self.dim) != child.dim:
            raise DimensionError(
                f"warp maps {self.dim}-D points to {warp.out_dim(self.dim)}-D "
                f"but the base kernel expects {child.dim}-D")
        self.warp = warp
        self.child = child
        if isinstance(child, WarpedKernel):
            self.slots = (("warp", "warp.", WarpMap),
                          ("child", "base.", Kernel))
        self._assert_unique_names()

    def child_boxes(self, box):
        """The base kernel sees the warped image of the domain."""
        return (box, self.warp.output_box(box))

    def _cross(self, X1, X2):
        return self.child._cross(self.warp.transform(X1),
                                 self.warp.transform(X2))
