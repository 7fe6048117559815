"""Fitting and prediction: interpolation, the generalized-least-squares
mean, jitter policy, the dense-algebra oracle, and bitwise agreement with
the scipy reference factorization in ``_reference.py``."""

import logging

import numpy as np
import pytest

import stepgp as sg
from stepgp import DataError, DimensionError
from stepgp.gp import JITTER_INIT

import _reference as ref
from _instances import KIND_BUILDERS, STATIONARY_KINDS, random_points


def _train(rng, kind, n=8):
    k, box = KIND_BUILDERS[kind](rng)
    X = random_points(rng, box, n)
    y = rng.normal(size=n)
    return k, sg.TrainingSet(X, y, box=box)


_STATIONARY_CLS = {"Exponential": sg.Exponential, "Matern32": sg.Matern32,
                   "Matern52": sg.Matern52, "SquaredExp": sg.SquaredExponential}


def _moderate_stationary(kind, rng, d):
    # lengthscales well inside the domain scale keep the Gram matrix far
    # from singular; extreme draws are covered by the jitter-policy tests
    cls = _STATIONARY_CLS[kind]
    ls = [float(rng.uniform(0.2, 1.0)) for _ in range(d)]
    return cls(d, sigma2=float(rng.uniform(0.5, 2.0)), lengthscales=ls)


@pytest.mark.parametrize("kind", STATIONARY_KINDS)
def test_interpolation_at_training_points(kind):
    rng = np.random.default_rng(31)
    for rep in range(10):
        d = 1 + rep % 2
        box = sg.Box.cube(-2.0, 2.0, d)
        k = _moderate_stationary(kind, rng, d)
        X = sg.maximin_lhs(sg.DesignSpec(8, d, box, seed=rep)).points
        y = rng.normal(size=8)
        ts = sg.TrainingSet(X, y, box=box)
        gp = sg.fit(k, ts)
        s2 = k.params[0].value
        for x, yj in zip(ts.X, ts.y):
            m, v = gp.predict(x)
            assert abs(m - yj) <= 1e-6 * max(1.0, np.max(np.abs(ts.y)))
            assert 0.0 <= v <= 1e-6 * s2


@pytest.mark.parametrize("kind", STATIONARY_KINDS)
def test_interpolation_tight_when_well_conditioned(kind):
    rng = np.random.default_rng(41)
    cls = {"Exponential": sg.Exponential, "Matern32": sg.Matern32,
           "Matern52": sg.Matern52, "SquaredExp": sg.SquaredExponential}[kind]
    k = cls(1, sigma2=1.0, lengthscales=0.5)
    X = np.linspace(-2.0, 2.0, 8).reshape(-1, 1)
    y = rng.normal(size=8)
    gp = sg.fit(k, sg.TrainingSet(X, y))
    for x, yj in zip(X, y):
        m, v = gp.predict(x)
        assert abs(m - yj) <= 1e-8 * np.max(np.abs(y))
        assert 0.0 <= v <= 1e-8


def test_nn_training_variance_positive():
    rng = np.random.default_rng(32)
    k, ts = _train(rng, "NeuralNet")
    gp = sg.fit(k, ts)
    for x in ts.X:
        _, v = gp.predict(x)
        assert v > 0.0


def test_mu_hat_constant_y():
    # far-apart points under a tiny lengthscale: K is the identity
    X = np.linspace(-2.0, 2.0, 5)
    ts = sg.TrainingSet(X.reshape(-1, 1), np.full(5, 3.25))
    k = sg.SquaredExponential(1, sigma2=1.0, lengthscales=1e-3)
    assert sg.estimate_mu(k, ts) == pytest.approx(3.25, abs=1e-10)


def test_mu_hat_identity_gram_is_mean():
    rng = np.random.default_rng(33)
    X = np.linspace(-2.0, 2.0, 6)
    y = rng.normal(size=6)
    ts = sg.TrainingSet(X.reshape(-1, 1), y)
    k = sg.SquaredExponential(1, sigma2=1.0, lengthscales=1e-3)
    assert sg.estimate_mu(k, ts) == pytest.approx(float(y.mean()), abs=1e-10)


def test_mu_hat_two_point_hand_value():
    # K = [[1, 0.5], [0.5, 1]] via SE with l = 1/sqrt(2 ln 2); y = (0, 1)
    l = 1.0 / np.sqrt(2.0 * np.log(2.0))
    k = sg.SquaredExponential(1, sigma2=1.0, lengthscales=l)
    ts = sg.TrainingSet(np.array([[0.0], [1.0]]), np.array([0.0, 1.0]))
    assert sg.estimate_mu(k, ts) == pytest.approx(0.5, abs=1e-12)


def test_far_field_limits():
    rng = np.random.default_rng(34)
    X = rng.uniform(-1.0, 1.0, size=(6, 1))
    y = rng.normal(size=6)
    k = sg.SquaredExponential(1, sigma2=2.0, lengthscales=0.05)
    ts = sg.TrainingSet(X, y)
    gp = sg.fit(k, ts)
    m, v = gp.predict(np.array([50.0]))
    assert m == pytest.approx(gp.mu_hat, abs=1e-6)
    # k(x) -> 0, so s2 -> k(x,x) + (1 - 0)^2 / (1' K^-1 1)
    want_v = 2.0 + 1.0 / gp.one_Kinv_one
    assert v == pytest.approx(want_v, rel=1e-6)


def test_dense_solve_oracle():
    """Predictions must match the textbook formulas computed with plain
    dense solves at the same jitter."""
    rng = np.random.default_rng(35)
    for kind in ("SquaredExp", "Matern32", "NeuralNet"):
        for rep in range(7):
            box = sg.Box.cube(-2.0, 2.0, 1)
            if kind == "NeuralNet":
                sig = np.exp(rng.uniform(np.log(0.1), np.log(20.0), size=2))
                k = sg.NeuralNet(1, sigma2=float(rng.uniform(0.5, 2.0)),
                                 sigmas=sig)
            else:
                k = _moderate_stationary(kind, rng, 1)
            n = int(rng.integers(3, 9))
            X = sg.maximin_lhs(sg.DesignSpec(n, 1, box, seed=rep)).points
            y = rng.normal(size=n)
            ts = sg.TrainingSet(X, y, box=box)
            gp = sg.fit(k, ts)

            K = sg.gram_matrix(k, X) + gp.jitter_used * np.eye(n)
            one = np.ones(n)
            Ki_y = np.linalg.solve(K, y)
            Ki_1 = np.linalg.solve(K, one)
            mu = float(one @ Ki_y) / float(one @ Ki_1)
            r = y - mu
            Ki_r = np.linalg.solve(K, r)
            for x in random_points(rng, box, 5):
                kx = np.array([k(x, xj) for xj in X])
                m_o = mu + float(kx @ Ki_r)
                extra = (1.0 - float(one @ np.linalg.solve(K, kx))) ** 2 \
                    / float(one @ Ki_1)
                v_o = float(k(x, x)) - float(kx @ np.linalg.solve(K, kx)) \
                    + extra
                m, v = gp.predict(x)
                assert m == pytest.approx(m_o, rel=1e-8, abs=1e-10)
                assert v == pytest.approx(max(v_o, 0.0), rel=1e-8, abs=1e-10)


def test_constant_shift_invariance():
    rng = np.random.default_rng(36)
    X = rng.uniform(-2.0, 2.0, size=(7, 1))
    y = rng.normal(size=7)
    k = sg.Matern52(1, sigma2=1.0, lengthscales=0.8)
    gp0 = sg.fit(k, sg.TrainingSet(X, y))
    gp1 = sg.fit(k, sg.TrainingSet(X, y + 10.0), fixed_jitter=gp0.jitter_used)
    assert gp1.mu_hat == pytest.approx(gp0.mu_hat + 10.0, abs=1e-12)
    for x in np.linspace(-2, 2, 9):
        m0, v0 = gp0.predict(np.array([x]))
        m1, v1 = gp1.predict(np.array([x]))
        assert m1 - m0 == pytest.approx(10.0, abs=1e-9)
        assert v1 == pytest.approx(v0, abs=1e-12)


def test_predict_batch_matches_single_bitwise():
    rng = np.random.default_rng(37)
    k, ts = _train(rng, "Matern32", n=10)
    gp = sg.fit(k, ts)
    Xq = random_points(rng, ts.box, 1000)
    mb, vb = gp.predict_batch(Xq)
    for i in range(0, 1000, 37):
        m, v = gp.predict(Xq[i])
        assert mb[i] == m
        assert vb[i] == v


def test_predict_batch_edges():
    rng = np.random.default_rng(38)
    k, ts = _train(rng, "SquaredExp")
    gp = sg.fit(k, ts)
    m0, v0 = gp.predict_batch(np.empty((0, ts.X.shape[1])))
    assert m0.shape == (0,) and v0.shape == (0,)
    x = ts.X[:1]
    m1, v1 = gp.predict_batch(x)
    m, v = gp.predict(x[0])
    assert m1[0] == m and v1[0] == v


def test_jitter_not_escalated_when_well_conditioned():
    X = np.linspace(-2.0, 2.0, 5).reshape(-1, 1)
    y = np.sin(X[:, 0])
    k = sg.SquaredExponential(1, sigma2=1.0, lengthscales=0.3)
    gp = sg.fit(k, sg.TrainingSet(X, y))
    K = sg.gram_matrix(k, X)
    assert gp.jitter_used == pytest.approx(1e-10 * np.mean(np.diag(K)))


def test_near_duplicates_never_silently_wrong():
    # two points 1e-9 apart: either the jitter ladder rescues the solve or
    # a clean error comes out; a fitted model must still reproduce y
    X = np.array([[0.0], [1e-9], [1.0], [2.0]])
    y = np.array([1.0, 1.0, -1.0, 0.5])
    k = sg.SquaredExponential(1, sigma2=1.0, lengthscales=0.5)
    try:
        gp = sg.fit(k, sg.TrainingSet(X, y))
    except (sg.NumericsError, DataError):
        return
    for x, yj in zip(X, y):
        m, _ = gp.predict(x)
        assert abs(m - yj) <= 1e-4
    assert gp.jitter_used >= 1e-10


def test_exact_duplicates_rejected():
    X = np.array([[0.0], [0.0], [1.0]])
    with pytest.raises(DataError):
        sg.TrainingSet(X, np.zeros(3))
    # pairs (0, 4) and (1, 3) both coincide; the first in row-major
    # upper-triangle order is named
    X = np.array([[0.0, 1.0], [1.0, 0.0], [2.0, 2.0], [1.0, 0.0], [0.0, 1.0]])
    with pytest.raises(DataError, match=r"training rows 0 and 4 coincide"):
        sg.TrainingSet(X, np.zeros(5))


def test_single_point_rejected():
    with pytest.raises(DataError):
        sg.TrainingSet(np.array([[0.0]]), np.array([1.0]))


def test_non_finite_y_rejected():
    X = np.array([[0.0], [1.0]])
    with pytest.raises(DataError):
        sg.TrainingSet(X, np.array([np.nan, 1.0]))


def test_points_outside_box_rejected():
    X = np.array([[0.0], [3.0]])
    with pytest.raises(DataError):
        sg.TrainingSet(X, np.zeros(2), box=sg.Box.cube(-2.0, 2.0, 1))


def test_fixed_jitter_gives_bitwise_reproducible_fit():
    rng = np.random.default_rng(39)
    k, ts = _train(rng, "Matern52")
    gp = sg.fit(k, ts)
    gp2 = sg.fit(k, ts, fixed_jitter=gp.jitter_used)
    assert gp2.jitter_used == gp.jitter_used
    assert np.array_equal(gp2.L, gp.L)
    assert np.array_equal(gp2.alpha, gp.alpha)


def test_predict_dimension_mismatch():
    rng = np.random.default_rng(40)
    k, ts = _train(rng, "SquaredExp")
    gp = sg.fit(k, ts)
    with pytest.raises(DimensionError):
        gp.predict(np.zeros(ts.X.shape[1] + 1))


# -- factorization and predict against the scipy cho_solve reference -------


def _outcome(compute):
    try:
        return compute()
    except sg.NumericsError as e:
        return type(e)


@pytest.mark.parametrize("kind", sorted(KIND_BUILDERS))
def test_factorization_bitwise_equals_scipy_reference(kind):
    fitted = 0
    for k, ts in ref.drawn_kernels(kind):
        assert k.gram(ts.X).tobytes() == ref.gram(k, ts.X).tobytes()
        want = _outcome(lambda: ref.fit_fields(k, ts))
        got = _outcome(lambda: ref.package_fit_fields(sg.fit(k, ts)))
        mu = _outcome(lambda: sg.estimate_mu(k, ts))
        if want is sg.NumericsError:
            assert got is sg.NumericsError and mu is sg.NumericsError
            continue
        ref.assert_fields_equal(got, want)
        assert mu == want[4]
        gp = sg.fit(k, ts)
        for x in 0.5 * (ts.X[:3] + ts.X[3:6]):
            assert gp.predict(x) == ref.predict(k, ts, x)
        fitted += 1
    assert fitted > 0


class _SignedZeros(sg.SquaredExponential):
    """A squared exponential with -0.0 at (0, 1) and (2, 0)."""

    def _cross(self, X1, X2):
        K = super()._cross(X1, X2)
        K[0, 1] = K[2, 0] = -0.0
        return K


def test_gram_mirror_bytes_with_negative_zeros():
    X = np.linspace(-2.0, 2.0, 4).reshape(-1, 1)
    k = _SignedZeros(1)
    K = k.gram(X)
    assert K.tobytes() == ref.gram(k, X).tobytes()
    assert not np.any(np.signbit(K))


def test_factorization_bitwise_through_jitter_escalation(caplog):
    box = sg.Box.cube(-2.0, 2.0, 1)
    X = sg.maximin_lhs(sg.DesignSpec(10, 1, box, seed=0)).points
    ts = sg.TrainingSet(X, X[:, 0] ** 2, box=box)
    k = ref.DiagonalDeficit(1, sigma2=2.0, lengthscales=5.0)
    with caplog.at_level(logging.DEBUG, logger="stepgp.gp"):
        gp = sg.fit(k, ts)
    assert [r.getMessage() for r in caplog.records] == \
        ["Cholesky needed jitter 2e-06 (attempt 5)"]
    # four escalations past the first nugget
    assert gp.jitter_used == pytest.approx(
        1e4 * JITTER_INIT * np.mean(np.diag(k.gram(X))), rel=1e-12)
    ref.assert_fields_equal(ref.package_fit_fields(gp), ref.fit_fields(k, ts))
    assert sg.estimate_mu(k, ts) == gp.mu_hat


def test_factorization_bitwise_at_fixed_jitter():
    rng = np.random.default_rng(42)
    k, ts = _train(rng, "Matern52")
    for jitter in (0.0, 1e-8, 1e-3):
        ref.assert_fields_equal(
            ref.package_fit_fields(sg.fit(k, ts, fixed_jitter=jitter)),
            ref.fit_fields(k, ts, fixed_jitter=jitter))
    # an indefinite Gram fails at a nugget too small to lift it, on both
    box = sg.Box.cube(-2.0, 2.0, 1)
    X = sg.maximin_lhs(sg.DesignSpec(10, 1, box, seed=0)).points
    ts = sg.TrainingSet(X, X[:, 0], box=box)
    k = ref.DiagonalDeficit(1, sigma2=2.0, lengthscales=5.0)
    match = r"Cholesky failed at fixed jitter 1e-10"
    with pytest.raises(sg.NumericsError, match=match):
        ref.fit_fields(k, ts, fixed_jitter=1e-10)
    with pytest.raises(sg.NumericsError, match=match):
        sg.fit(k, ts, fixed_jitter=1e-10)


def test_non_positive_gram_diagonal_raises():
    X = np.linspace(-2.0, 2.0, 5).reshape(-1, 1)
    ts = sg.TrainingSet(X, np.sin(X[:, 0]))
    k = sg.compose("OuterFn", sg.SquaredExponential(1), lambda x: 0.0)
    match = r"Gram diagonal is not positive \(mean 0.0\)"
    with pytest.raises(sg.NumericsError, match=match):
        ref.fit_fields(k, ts)
    for compute in (sg.fit, sg.estimate_mu, sg.log_likelihood):
        with pytest.raises(sg.NumericsError, match=match):
            compute(k, ts)


def test_non_finite_off_diagonal_gram_raises_numerics_error():
    X = np.linspace(-2.0, 2.0, 5).reshape(-1, 1)
    ts = sg.TrainingSet(X, np.sin(X[:, 0]))
    k = ref.NaNCorner(1)
    K = k.gram(X)
    assert np.isnan(K[0, -1]) and np.isnan(K[-1, 0])
    assert np.all(np.isfinite(np.diag(K)))
    for compute in (sg.fit, sg.estimate_mu, sg.log_likelihood):
        with pytest.raises(sg.NumericsError, match="non-finite"):
            compute(k, ts)
