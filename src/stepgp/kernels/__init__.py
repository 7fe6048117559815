"""Covariance kernels: stationary families, step-capable constructions
(neural-network, Gibbs, input warping) and the composition algebra.

Kernels, warp maps and lengthscale functions are nodes of one tree
(:class:`~.params.Node`); each family's file kinds are in its ``kinds``
table: ``Kernel.kinds``, ``WarpMap.kinds`` and ``LengthScaleFn.kinds``."""

from .base import (
    Kernel,
    OuterFnKernel,
    ProductKernel,
    ScaledKernel,
    ShiftedKernel,
    SumKernel,
    compose,
    gram_matrix,
)
from .gibbs import (
    ArctanLS,
    ConstantLS,
    ErfLS,
    GibbsKernel,
    LengthScaleFn,
    LogisticLS,
    QuadraticLS,
    TanhLS,
)
from .neural import NeuralNet, NeuralNetShifted
from .params import HyperParam, offset_above, positive
from .stationary import Exponential, Matern32, Matern52, SquaredExponential
from .warping import (
    ArctanWarp,
    ErfWarp,
    LogisticWarp,
    PeriodicPairWarp,
    TanhWarp,
    WarpedKernel,
    WarpMap,
)

__all__ = [
    "ArctanLS",
    "ArctanWarp",
    "ConstantLS",
    "ErfLS",
    "ErfWarp",
    "Exponential",
    "GibbsKernel",
    "HyperParam",
    "Kernel",
    "LengthScaleFn",
    "LogisticLS",
    "LogisticWarp",
    "Matern32",
    "Matern52",
    "NeuralNet",
    "NeuralNetShifted",
    "OuterFnKernel",
    "PeriodicPairWarp",
    "ProductKernel",
    "QuadraticLS",
    "ScaledKernel",
    "ShiftedKernel",
    "SquaredExponential",
    "SumKernel",
    "TanhLS",
    "TanhWarp",
    "WarpMap",
    "WarpedKernel",
    "compose",
    "gram_matrix",
    "offset_above",
    "positive",
]
