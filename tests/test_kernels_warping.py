"""Input warping: saturation and degenerate limits, periodicity, image
boxes, and dimension wiring."""

import dataclasses

import numpy as np
import pytest

import stepgp as sg
from stepgp import DimensionError
from stepgp.config import kernel_to_dict, load_kernel, save_kernel

from _instances import KIND_BUILDERS, random_points


def test_saturating_tanh_reaches_child_at_distance_two():
    # tanh(+-50) = +-1 exactly in doubles, so the warped distance is 2
    child = sg.SquaredExponential(1, sigma2=1.0, lengthscales=1.0)
    k = sg.WarpedKernel(sg.TanhWarp(c1=50.0), child)
    assert k(-1.0, 1.0) == pytest.approx(0.1353352832366127, abs=1e-15)


def test_near_zero_steepness_collapses_inputs():
    # with c1 = 1e-12 every input maps to ~0, so the kernel is ~sigma2
    child = sg.SquaredExponential(1, sigma2=1.7, lengthscales=1.0)
    k = sg.WarpedKernel(sg.TanhWarp(c1=1e-12), child)
    for x, xp in ((-2.0, 2.0), (0.3, -1.1)):
        assert k(x, xp) == pytest.approx(1.7, abs=1e-8)


def test_periodic_pair_shift_invariance():
    rng = np.random.default_rng(21)
    for _ in range(20):
        k, box = KIND_BUILDERS["Warped-PeriodicPair"](rng)
        T = k.warp.period
        for _ in range(5):
            x, xp = random_points(rng, box, 2)
            assert abs(k(x, xp) - k(x + T, xp)) <= 1e-12
            assert abs(k(x, xp) - k(x, xp + T)) <= 1e-12


def test_sigmoid_warps_transform_one_axis():
    child = sg.SquaredExponential(2, sigma2=1.0, lengthscales=(1.0, 1.0))
    k = sg.WarpedKernel(sg.ArctanWarp(c1=100.0, axis=0), child)
    # axis 0 saturates: points on the same side of 0 become nearly equal
    same_side = k(np.array([0.5, 0.0]), np.array([1.5, 0.0]))
    across = k(np.array([-0.5, 0.0]), np.array([0.5, 0.0]))
    assert same_side > 0.99
    assert across < same_side
    # axis 1 passes through untouched
    moved = k(np.array([0.5, 0.0]), np.array([0.5, 1.0]))
    assert moved == pytest.approx(np.exp(-0.5), rel=1e-12)


def test_output_boxes():
    box = sg.Box.cube(-2.0, 2.0, 1)
    tanh_img = sg.TanhWarp(c1=3.0).output_box(box)
    assert tanh_img.lower[0] == pytest.approx(-1.0)
    assert tanh_img.upper[0] == pytest.approx(1.0)
    erf_img = sg.ErfWarp(c1=3.0).output_box(box)
    assert erf_img.upper[0] - erf_img.lower[0] == pytest.approx(2.0)
    logi_img = sg.LogisticWarp(c1=3.0).output_box(box)
    assert logi_img.upper[0] - logi_img.lower[0] == pytest.approx(1.0)
    atan_img = sg.ArctanWarp(c1=3.0).output_box(box)
    assert atan_img.upper[0] - atan_img.lower[0] == pytest.approx(np.pi)
    pp_img = sg.PeriodicPairWarp(1.0).output_box(box)
    assert pp_img.d == 2
    assert tuple(pp_img.lower) == (-1.0, -1.0)
    assert tuple(pp_img.upper) == (1.0, 1.0)


def test_periodic_pair_dimension_wiring():
    child2 = sg.SquaredExponential(2)
    k = sg.WarpedKernel(sg.PeriodicPairWarp(2.0), child2)
    assert k.dim == 1
    with pytest.raises(DimensionError):
        sg.WarpedKernel(sg.PeriodicPairWarp(2.0), sg.SquaredExponential(1))


def test_param_prefixing_and_with_values():
    child = sg.SquaredExponential(1, sigma2=1.0, lengthscales=0.5)
    k = sg.WarpedKernel(sg.ErfWarp(c1=2.0), child)
    assert [p.name for p in k.params] == ["warp.c1", "variance", "l1"]
    k2 = k.with_values((5.0, 2.0, 1.0))
    assert [p.value for p in k2.params] == [5.0, 2.0, 1.0]
    assert k2.warp.kind == "Erf"


def test_warp_kinds():
    assert sg.ErfWarp(c1=1.0).kind == "Erf"
    assert sg.LogisticWarp(c1=1.0).kind == "Logistic"
    assert sg.TanhWarp(c1=1.0).kind == "Tanh"
    assert sg.ArctanWarp(c1=1.0).kind == "Arctan"
    assert sg.PeriodicPairWarp(1.0).kind == "PeriodicPair"


def _stacked():
    inner = sg.WarpedKernel(sg.ArctanWarp(c1=3.0, axis=1),
                            sg.SquaredExponential(2, sigma2=1.3,
                                                  lengthscales=(0.4, 0.7)))
    return sg.WarpedKernel(sg.LogisticWarp(c1=2.0, axis=0), inner)


def test_stacked_warps_have_unique_names():
    k = _stacked()
    assert [p.name for p in k.params] == [
        "warp.c1", "base.warp.c1", "base.variance", "base.l1", "base.l2"]
    k_axes = sg.WarpedKernel(sg.ErfWarp(axis=0), sg.WarpedKernel(
        sg.TanhWarp(axis=1), sg.SquaredExponential(2)))
    assert len({p.name for p in k_axes.params}) == k_axes.n_params == 5
    # a single warp keeps its names
    assert [p.name for p in k.child.params] == [
        "warp.c1", "variance", "l1", "l2"]
    k2 = k.with_values([5.0, 0.5, 2.0, 0.3, 0.9])
    assert (k2.warp.c1, k2.child.warp.c1, k2.child.child.sigma2) == \
        (5.0, 0.5, 2.0)


def test_stacked_warps_gram_is_base_gram_at_twice_warped_points():
    rng = np.random.default_rng(23)
    k = _stacked()
    X = random_points(rng, sg.Box.cube(-2.0, 2.0, 2), 9)
    Z = k.child.warp.transform(k.warp.transform(X))
    assert np.array_equal(k.gram(X), k.child.child.gram(Z))
    # each warp moved only its own axis
    assert np.array_equal(Z[:, 0], sg.LogisticWarp._g(2.0 * X[:, 0]))
    assert np.array_equal(Z[:, 1], sg.ArctanWarp._g(3.0 * X[:, 1]))


def test_stacked_warps_default_bounds_use_both_image_boxes():
    box = sg.Box.cube(-2.0, 2.0, 2)
    b = {p.name: p for p in sg.default_bounds(_stacked(), box)}
    # the logistic image of axis 0 has width 1, the arctan image of axis 1
    # width pi
    assert (b["base.l1"].lower, b["base.l1"].upper) == \
        pytest.approx((1e-2, 10.0))
    assert (b["base.l2"].lower, b["base.l2"].upper) == \
        pytest.approx((1e-2 * np.pi, 10.0 * np.pi))
    for name in ("warp.c1", "base.warp.c1"):
        assert (b[name].lower, b[name].upper) == pytest.approx((1e-2, 1e3))


def test_stacked_warps_yaml_round_trip_bitwise(tmp_path):
    rng = np.random.default_rng(24)
    k = _stacked()
    path = tmp_path / "stacked.yaml"
    save_kernel(k, path)
    k2 = load_kernel(path)
    assert [dataclasses.astuple(p) for p in k2.params] == \
        [dataclasses.astuple(p) for p in k.params]
    X = random_points(rng, sg.Box.cube(-2.0, 2.0, 2), 9)
    assert k2.gram(X).tobytes() == k.gram(X).tobytes()
    assert kernel_to_dict(k2) == kernel_to_dict(k)
