"""Composition rules: sum, product, positive scaling, constant shift, and
the outer-function sandwich."""

import numpy as np
import pytest

import stepgp as sg
from stepgp import ParameterError
from stepgp.kernels.base import Kernel


def _se(s2=1.0, l=1.0):
    return sg.SquaredExponential(1, sigma2=s2, lengthscales=l)


def test_sum_at_zero_distance():
    k = sg.compose("Sum", _se(1.5), sg.Matern32(1, sigma2=2.5))
    assert k(0.3, 0.3) == 4.0


def test_product_at_zero_distance():
    k = sg.compose("Product", _se(1.5), _se(2.0))
    assert k(0.3, 0.3) == 3.0


def test_scaled():
    k = sg.compose("Scaled", 3.0, _se(1.0))
    assert k(0.1, 0.1) == 3.0
    assert k(0.0, 1.0) == pytest.approx(3.0 * np.exp(-0.5), rel=1e-15)


def test_shifted_const():
    k = sg.compose("ShiftedConst", _se(1.0), 1.5)
    assert k(0.2, 0.2) == 2.5


def test_outer_fn_sandwich():
    k = sg.compose("OuterFn", _se(1.0), lambda x: float(x[0]))
    # g(2) * exp(-0.5) * g(3)
    assert k(2.0, 3.0) == pytest.approx(3.6391839582758005, abs=1e-14)


def test_scale_and_shift_require_positive_constant():
    with pytest.raises(ParameterError):
        sg.compose("Scaled", 0.0, _se())
    with pytest.raises(ParameterError):
        sg.compose("Scaled", -1.0, _se())
    with pytest.raises(ParameterError):
        sg.compose("ShiftedConst", _se(), 0.0)


def test_operator_sugar():
    a, b = _se(1.0), sg.Matern32(1)
    assert (a + b).kind == "Sum"
    assert (a * b).kind == "Product"
    assert (a * 2.0).kind == "Scaled"
    assert (2.0 * a).kind == "Scaled"
    assert (a + 1.5).kind == "ShiftedConst"
    assert (a + b)(0.1, 0.1) == a(0.1, 0.1) + b(0.1, 0.1)


def test_param_prefixes_and_with_values():
    k = sg.compose("Sum", _se(1.0, 0.5), sg.Matern32(1, sigma2=2.0))
    names = [p.name for p in k.params]
    assert names == ["k1.variance", "k1.l1", "k2.variance", "k2.l1"]
    k2 = k.with_values((3.0, 1.0, 4.0, 2.0))
    assert k2(0.5, 0.5) == 7.0


def test_nested_composition():
    k = sg.compose("Scaled", 2.0, sg.compose("Sum", _se(1.0), _se(1.0)))
    assert k(0.0, 0.0) == 4.0
    names = [p.name for p in k.params]
    assert names == ["k1.variance", "k1.l1", "k2.variance", "k2.l1"]


def test_dim_mismatch_rejected():
    with pytest.raises(Exception):
        sg.compose("Sum", _se(), sg.SquaredExponential(2))


def test_duplicate_param_names_rejected():
    class Dup(Kernel):
        kind = "Dup"

        def __init__(self):
            super().__init__(1)
            self._params = (sg.HyperParam("a", 1.0, 0.0, 2.0),
                            sg.HyperParam("a", 1.0, 0.0, 2.0))
            self._assert_unique_names()

        @property
        def params(self):
            return self._params

        def with_values(self, values):
            return self

        def _cross(self, X1, X2):
            return np.zeros((len(X1), len(X2)))

    with pytest.raises(ParameterError):
        Dup()


def test_outer_fn_g_not_cached():
    calls = []

    def g(x):
        calls.append(float(x[0]))
        return 1.0

    k = sg.compose("OuterFn", _se(), g)
    k(0.1, 0.2)
    n_first = len(calls)
    k(0.1, 0.2)
    assert len(calls) == 2 * n_first


@pytest.mark.parametrize("kind,args,expected", [
    ("Sum", (_se(),), "k1, k2"),
    ("Product", (_se(), _se(), _se()), "k1, k2"),
    ("Scaled", (2.0,), "c, k"),
    ("ShiftedConst", (_se(), 1.0, 2.0), "k, c"),
    ("OuterFn", (_se(),), "k, g"),
])
def test_compose_wrong_arity_names_kind_and_arguments(kind, args, expected):
    with pytest.raises(ParameterError) as exc:
        sg.compose(kind, *args)
    msg = str(exc.value)
    assert kind in msg and f"({expected})" in msg
    assert f"got {len(args)}" in msg


def test_compose_unknown_kind():
    with pytest.raises(ParameterError):
        sg.compose("Quotient", _se(), _se())
