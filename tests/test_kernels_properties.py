"""Cross-cutting kernel properties: symmetry, positive semidefiniteness,
and Gram-matrix construction, over every kind and composition rule."""

import dataclasses
import zlib

import numpy as np
import pytest

import stepgp as sg

from _instances import KIND_BUILDERS, random_points

ALL_KINDS = sorted(KIND_BUILDERS)


@pytest.mark.parametrize("kind", ALL_KINDS)
def test_pointwise_symmetry(kind):
    rng = np.random.default_rng(zlib.crc32(kind.encode()))
    build = KIND_BUILDERS[kind]
    checked = 0
    while checked < 1000:
        k, box = build(rng)
        X = random_points(rng, box, 20)
        for i in range(0, 20, 2):
            x, xp = X[i], X[i + 1]
            assert abs(k(x, xp) - k(xp, x)) <= 1e-12
            checked += 1


@pytest.mark.parametrize("kind", ALL_KINDS)
def test_gram_psd(kind):
    rng = np.random.default_rng(zlib.crc32(kind.encode()) + 1)
    build = KIND_BUILDERS[kind]
    for _ in range(200):
        k, box = build(rng)
        n = int(rng.integers(2, 31))
        X = random_points(rng, box, n)
        K = sg.gram_matrix(k, X)
        assert np.array_equal(K, K.T)
        eig = np.linalg.eigvalsh(K)
        assert eig[0] >= -1e-8 * max(eig[-1], 0.0), \
            f"{kind}: min eig {eig[0]:.3e} vs max {eig[-1]:.3e}"


@pytest.mark.parametrize("kind", ALL_KINDS)
def test_with_values(kind):
    rng = np.random.default_rng(zlib.crc32(kind.encode()) + 2)
    k, box = KIND_BUILDERS[kind](rng)
    X = random_points(rng, box, 10)
    same = k.with_values([p.value for p in k.params])
    assert [dataclasses.astuple(p) for p in same.params] == \
        [dataclasses.astuple(p) for p in k.params]
    assert np.array_equal(same.gram(X), k.gram(X))

    search = sg.default_bounds(k, box)
    new = [max(p.lower, s.lower) + u * (min(p.upper, s.upper)
                                         - max(p.lower, s.lower))
           for p, s, u in zip(k.params, search, rng.random(k.n_params))]
    moved = k.with_values(new)
    assert [p.value for p in moved.params] == new
    for p, q in zip(k.params, moved.params):
        assert (q.name, q.lower, q.upper, q.scale, q.shift) == \
            (p.name, p.lower, p.upper, p.scale, p.shift)


def test_gram_single_point():
    k = sg.SquaredExponential(1, sigma2=2.0)
    K = sg.gram_matrix(k, np.array([0.4]))
    assert K.shape == (1, 1)
    assert K[0, 0] == 2.0


def test_gram_well_separated_se():
    rng = np.random.default_rng(99)
    X = np.linspace(-2.0, 2.0, 9)
    K = sg.gram_matrix(sg.SquaredExponential(1, lengthscales=0.3), X)
    eig = np.linalg.eigvalsh(K)
    assert eig[0] > -1e-10 * eig[-1]


def test_gram_duplicated_row_is_singular():
    X = np.array([0.5, 0.5, 1.5, -1.0])
    K = sg.gram_matrix(sg.SquaredExponential(1), X)
    eig = np.linalg.eigvalsh(K)
    assert abs(eig[0]) <= 1e-12 * eig[-1]


def test_cross_matrix_shape_and_agreement():
    rng = np.random.default_rng(17)
    k = sg.Matern52(2, sigma2=1.3, lengthscales=(0.7, 1.1))
    A = rng.uniform(-2, 2, size=(4, 2))
    B = rng.uniform(-2, 2, size=(6, 2))
    C = k.cross(A, B)
    assert C.shape == (4, 6)
    for i in range(4):
        for j in range(6):
            assert C[i, j] == k(A[i], B[j])
