"""Named, bounded kernel hyperparameters and the kernel-tree node protocol."""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Iterator, Sequence

import numpy as np
from scipy import special

from ..errors import DimensionError, ParameterError


@dataclass(frozen=True)
class HyperParam:
    """A scalar hyperparameter with box bounds.

    ``scale`` controls the coordinate an optimizer should search in:
    ``"linear"`` searches the value itself, ``"log"`` searches
    ``ln(value - shift)``.  ``shift`` is the open lower limit of the
    feasible range (0 for plain positive parameters such as variances and
    length-scales; e.g. 1 for a sigmoid offset constrained to exceed 1).
    Searching the shifted-log coordinate means no optimizer step can ever
    produce an infeasible value.
    """

    name: str
    value: float
    lower: float
    upper: float
    scale: str = "linear"
    shift: float = 0.0

    def __post_init__(self):
        if self.scale not in ("linear", "log"):
            raise ParameterError(f"{self.name}: scale must be 'linear' or 'log'")
        for field in ("value", "lower", "upper", "shift"):
            v = getattr(self, field)
            if not math.isfinite(v):
                raise ParameterError(f"{self.name}: {field} must be finite")
        if not self.lower <= self.value <= self.upper:
            raise ParameterError(
                f"{self.name}: value {self.value} outside bounds "
                f"[{self.lower}, {self.upper}]"
            )
        if self.scale == "log" and self.lower <= self.shift:
            raise ParameterError(
                f"{self.name}: log scale requires lower bound > {self.shift}"
            )

    def with_value(self, value: float) -> "HyperParam":
        # the constructor directly, not dataclasses.replace: this runs for
        # every parameter of every likelihood evaluation
        return HyperParam(self.name, float(value), self.lower, self.upper,
                          self.scale, self.shift)

    def with_bounds(self, lower: float, upper: float) -> "HyperParam":
        value = min(max(self.value, lower), upper)
        return replace(self, lower=float(lower), upper=float(upper), value=value)

    def to_optim(self, value: float | None = None) -> float:
        """Map a natural value to the optimizer coordinate."""
        v = self.value if value is None else value
        if self.scale == "log":
            return math.log(v - self.shift)
        return v

    def from_optim(self, theta: float) -> float:
        """Inverse of :meth:`to_optim`, clipped back into the bounds."""
        v = self.shift + math.exp(theta) if self.scale == "log" else theta
        return min(max(v, self.lower), self.upper)


def positive(name: str, value: float) -> HyperParam:
    """A positive parameter in [1e-12, 1e12], searched in log space."""
    return HyperParam(name, value, 1e-12, 1e12, scale="log")


def offset_above(name: str, value: float, limit: float) -> HyperParam:
    """A parameter in [limit + 1e-2, limit + 1e6], searched as
    ln(v - limit)."""
    return HyperParam(name, value, limit + 1e-2, limit + 1e6, scale="log",
                      shift=limit)


def search_box(p: HyperParam, lower: float, upper: float,
               scale: str = "log", shift: float = 0.0) -> HyperParam:
    """``p`` as the search range [lower, upper], its value clipped into it."""
    return HyperParam(p.name, float(min(max(p.value, lower), upper)),
                      lower, upper, scale, shift)


def variance_box(p: HyperParam, yvar: float) -> HyperParam:
    """Output variance searched in [1e-6, 1e3] times the data variance."""
    return search_box(p, 1e-6 * yvar, 1e3 * yvar)


def steepness_box(p: HyperParam) -> HyperParam:
    """A sigmoid steepness or network weight scale searched in
    [0.01, 1000]."""
    return search_box(p, 1e-2, 1e3)


#: The sigmoids g behind the Gibbs lengthscales g(c1 x) + c2 and the warps
#: g(c1 x), by kind: (g, inf g, sup g).  Logistic is the falling
#: 1 / (1 + exp(t)).
SIGMOIDS = {
    "Erf": (special.erf, -1.0, 1.0),
    "Logistic": (lambda t: special.expit(-t), 0.0, 1.0),
    "Tanh": (np.tanh, -1.0, 1.0),
    "Arctan": (np.arctan, -np.pi / 2, np.pi / 2),
}


class Node:
    """One node of a kernel tree: a kernel, a warp map or a lengthscale
    function.

    A node holds its own hyperparameters in ``_params`` and its children in
    the attributes named by ``slots``.  Its flattened ``params`` are its own
    followed by each child's, renamed with that child's prefix; every
    generic operation below walks the tree in that one order.

    Subclasses declare:

    - ``kind``: the name a file uses for the class, registered with
      :meth:`register` in its family's ``kinds`` table (one table each for
      kernels, warp maps and lengthscale functions);
    - ``fields``: structural constructor arguments, kept as attributes of
      the same name (``dim``, ``axis``, ``c``, ``period``);
    - ``slots``: ``(attribute, name prefix, family)`` per child, in
      parameter order; the attribute is also the constructor argument;
    - ``listed_children``: files keep the children in one ``children``
      list instead of under their attribute names;
    - :meth:`default_bounds` for its own parameters, and
      :meth:`child_boxes` when a child sees another domain than its parent.
    """

    kind: str = "?"
    kinds: dict[str, type]
    fields: tuple[str, ...] = ()
    slots: tuple[tuple[str, str, type], ...] = ()
    listed_children: bool = False
    _params: tuple[HyperParam, ...] = ()

    @classmethod
    def register(cls, sub: type) -> type:
        """Class decorator: file kind ``sub.kind`` names ``sub``."""
        if sub.kind in cls.kinds:
            raise ValueError(f"kind {sub.kind!r} registered twice")
        cls.kinds[sub.kind] = sub
        return sub

    @property
    def own_params(self) -> tuple[HyperParam, ...]:
        return self._params

    @property
    def children(self) -> tuple["Node", ...]:
        return tuple(getattr(self, attr) for attr, _, _ in self.slots)

    @property
    def params(self) -> tuple[HyperParam, ...]:
        """Flattened hyperparameters with names unique across the tree."""
        out = list(self._params)
        for attr, prefix, _ in self.slots:
            for p in getattr(self, attr).params:
                out.append(replace(p, name=prefix + p.name) if prefix else p)
        return tuple(out)

    @property
    def n_params(self) -> int:
        return len(self._params) + sum(c.n_params for c in self.children)

    def with_values(self, values: Sequence[float]) -> "Node":
        """Copy with parameter values replaced, in ``params`` order."""
        values = list(values)
        # consume the values while walking instead of counting them first:
        # counting walks the tree a second time on the optimizer's hot path
        rest = iter(values)
        try:
            out = self._take(rest)
        except StopIteration:
            out = None
        if out is None or any(True for _ in rest):
            raise ParameterError(
                f"expected {self.n_params} values, got {len(values)}")
        return out

    def _take(self, values: Iterator[float]) -> "Node":
        out = self._copy(tuple([p.with_value(next(values))
                                for p in self._params]))
        for attr, _, _ in self.slots:
            setattr(out, attr, getattr(self, attr)._take(values))
        return out

    def replaced(self, params: Sequence[HyperParam],
                 children: Sequence["Node"] | None = None) -> "Node":
        """Copy with own hyperparameters (same names, same order) and,
        if given, children replaced.  The constructor does not run again,
        so children must have the structure of the ones they replace."""
        params = tuple(params)
        if [p.name for p in params] != [p.name for p in self._params]:
            raise ParameterError(
                f"{self.kind} needs parameters "
                f"{[p.name for p in self._params]}, got "
                f"{[p.name for p in params]}")
        out = self._copy(params)
        if children is not None:
            for (attr, _, _), child in zip(self.slots, children, strict=True):
                setattr(out, attr, child)
        return out

    def _copy(self, params: tuple[HyperParam, ...]) -> "Node":
        out = object.__new__(type(self))
        out.__dict__.update(self.__dict__)
        out._params = params
        return out

    def default_bounds(self, box, yvar: float) -> tuple[HyperParam, ...]:
        """Search boxes for the own parameters on domain ``box`` with data
        variance ``yvar``; by default each parameter's declared bounds."""
        return self._params

    def child_boxes(self, box) -> tuple:
        """The domain each child sees, in slot order."""
        return (box,) * len(self.slots)


class AxisNode(Node):
    """A node that reads one input coordinate, x[axis]."""

    fields = ("axis",)
    #: what the node is called in the dimension error of :meth:`_coord`
    noun = "node"

    def __init__(self, axis: int):
        self.axis = int(axis)
        if self.axis < 0:
            raise DimensionError("axis must be >= 0")

    def _coord(self, X: np.ndarray) -> np.ndarray:
        if X.shape[1] <= self.axis:
            raise DimensionError(
                f"{self.noun} reads axis {self.axis} but points have "
                f"dimension {X.shape[1]}")
        return X[:, self.axis]
