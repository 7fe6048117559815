"""Likelihood evaluation and bounded multi-start estimation."""

import zlib

import numpy as np
import pytest

import stepgp as sg
from stepgp import OptimizationError
from stepgp.mle import default_bounds

from _instances import KIND_BUILDERS


def test_loglik_identity_gram_hand_value():
    # far-apart points, tiny lengthscale: K is the identity in doubles,
    # y = 0 makes the quadratic term vanish: -(n/2) ln(2 pi) with n = 2
    X = np.array([[-2.0], [2.0]])
    ts = sg.TrainingSet(X, np.zeros(2))
    k = sg.SquaredExponential(1, sigma2=1.0, lengthscales=0.01)
    assert sg.log_likelihood(k, ts) == \
        pytest.approx(-1.8378770664093453, abs=1e-8)


def test_loglik_matches_mvn_density_oracle():
    rng = np.random.default_rng(51)
    box = sg.Box.cube(-2.0, 2.0, 1)
    for rep in range(100):
        n = int(rng.integers(2, 11))
        # spread designs keep the comparison about the math, not about
        # which factorization degrades more gracefully near singularity
        X = sg.maximin_lhs(sg.DesignSpec(n, 1, box, seed=rep)).points
        y = rng.normal(size=n)
        ts = sg.TrainingSet(X, y)
        pick = rep % 3
        if pick == 0:
            k = sg.SquaredExponential(1, sigma2=float(rng.uniform(0.5, 2.0)),
                                      lengthscales=float(rng.uniform(0.2, 1.0)))
        elif pick == 1:
            k = sg.Matern32(1, sigma2=float(rng.uniform(0.5, 2.0)),
                            lengthscales=float(rng.uniform(0.2, 1.0)))
        else:
            k = sg.NeuralNet(1, sigma2=float(rng.uniform(0.5, 2.0)),
                             sigmas=(1.0, float(rng.uniform(0.5, 5.0))))
        got = sg.log_likelihood(k, ts)

        # dense determinant + solve, an LU path independent of the
        # package's Cholesky factorization
        gp = sg.fit(k, ts)
        K = sg.gram_matrix(k, X) + gp.jitter_used * np.eye(n)
        one = np.ones(n)
        mu = float(one @ np.linalg.solve(K, y)) / \
            float(one @ np.linalg.solve(K, one))
        r = y - mu
        sign, logdet = np.linalg.slogdet(K)
        assert sign > 0
        want = float(-0.5 * n * np.log(2.0 * np.pi) - 0.5 * logdet
                     - 0.5 * (r @ np.linalg.solve(K, r)))
        assert got == pytest.approx(want, rel=1e-8)


def _sine_training(n=12, seed=0):
    box = sg.Box.cube(-2.0, 2.0, 1)
    X = sg.maximin_lhs(sg.DesignSpec(n, 1, box, seed=seed)).points
    return sg.TrainingSet(X, np.sin(2.0 * X[:, 0]), box=box)


def test_determinism_bitwise():
    ts = _sine_training()
    k = sg.Matern32(1)
    a = sg.maximize_likelihood(k, ts, n_restarts=3, seed=5)
    b = sg.maximize_likelihood(k, ts, n_restarts=3, seed=5)
    assert a.loglik == b.loglik
    assert a.values == b.values
    assert a.n_evals == b.n_evals
    assert a.at_boundary == b.at_boundary


def test_restarts_monotone_under_nested_seeds():
    ts = _sine_training()
    k = sg.Matern32(1)
    best = -np.inf
    for n_restarts in (1, 3, 6, 10):
        res = sg.maximize_likelihood(k, ts, n_restarts=n_restarts, seed=2)
        assert res.loglik >= best - 1e-12
        best = max(best, res.loglik)


def test_boundary_flagging():
    # data demand a long lengthscale, the search box forbids it
    ts = _sine_training()
    k = sg.SquaredExponential(1)
    b = [p.with_bounds(1e-2, 0.05) if p.name == "l1" else p
         for p in default_bounds(k, ts.box, ts.y)]
    res = sg.maximize_likelihood(k, ts, bounds=tuple(b), n_restarts=4, seed=1)
    assert "l1" in res.at_boundary
    assert res.values["l1"] == pytest.approx(0.05, abs=1e-6)


def test_recovers_known_lengthscale():
    """Self-consistency: data drawn from a known SE process recover the
    lengthscale within a factor two in at least 18 of 20 seeded trials."""
    box = sg.Box.cube(-2.0, 2.0, 1)
    true_l = 0.2
    kgen = sg.SquaredExponential(1, sigma2=1.0, lengthscales=true_l)
    hits = 0
    for trial in range(20):
        rng = np.random.default_rng(900 + trial)
        X = np.sort(rng.uniform(-2.0, 2.0, size=(40, 1)), axis=0)
        K = sg.gram_matrix(kgen, X) + 1e-10 * np.eye(40)
        y = np.linalg.cholesky(K) @ rng.normal(size=40)
        ts = sg.TrainingSet(X, y, box=box)
        res = sg.maximize_likelihood(sg.SquaredExponential(1), ts,
                                     n_restarts=5, seed=trial)
        l_hat = res.values["l1"]
        hits += true_l / 2.0 <= l_hat <= true_l * 2.0
    assert hits >= 18, f"recovered in only {hits}/20 trials"


def test_default_bounds_rules():
    box = sg.Box.cube(0.0, 1.0, 1)
    k = sg.SquaredExponential(1)
    b = {p.name: p for p in default_bounds(k, box)}
    assert b["l1"].lower == pytest.approx(1e-2)
    assert b["l1"].upper == pytest.approx(10.0)
    assert b["variance"].lower == pytest.approx(1e-6)
    assert b["variance"].upper == pytest.approx(1e3)

    y = np.array([0.0, 2.0, 4.0])  # var = 8/3
    b = {p.name: p for p in default_bounds(k, box, y)}
    yvar = float(np.var(y))
    assert b["variance"].lower == pytest.approx(1e-6 * yvar)
    assert b["variance"].upper == pytest.approx(1e3 * yvar)

    wide = sg.Box.cube(-2.0, 2.0, 1)
    b = {p.name: p for p in default_bounds(k, wide)}
    assert b["l1"].lower == pytest.approx(4e-2)
    assert b["l1"].upper == pytest.approx(40.0)


def test_default_bounds_network_scales():
    box = sg.Box.cube(-2.0, 2.0, 1)
    b = {p.name: p for p in default_bounds(sg.NeuralNetShifted(1), box)}
    for name in ("sigma0", "sigma1"):
        assert b[name].lower == pytest.approx(1e-2)
        assert b[name].upper == pytest.approx(1e3)
    assert b["tau1"].lower == -2.0
    assert b["tau1"].upper == 2.0


def test_default_bounds_sigmoid_offsets():
    box = sg.Box.cube(-2.0, 2.0, 1)
    k = sg.GibbsKernel(1, sg.ArctanLS(c1=1.0, c2=2.0))
    b = {p.name: p for p in default_bounds(k, box)}
    lim = np.pi / 2
    assert b["c2"].lower == pytest.approx(lim + 1e-2)
    assert b["c2"].upper == pytest.approx(lim + 100.0)
    assert b["c1"].lower == pytest.approx(1e-2)
    assert b["c1"].upper == pytest.approx(1e3)


def test_default_bounds_warped_child_uses_image_box():
    box = sg.Box.cube(-2.0, 2.0, 1)
    k = sg.WarpedKernel(sg.TanhWarp(c1=1.0), sg.SquaredExponential(1))
    b = {p.name: p for p in default_bounds(k, box)}
    # the tanh image has width 2, so child lengthscale bounds follow that
    assert b["l1"].lower == pytest.approx(2e-2)
    assert b["l1"].upper == pytest.approx(20.0)
    assert b["warp.c1"].lower == pytest.approx(1e-2)
    assert b["warp.c1"].upper == pytest.approx(1e3)


@pytest.mark.parametrize("kind", sorted(KIND_BUILDERS))
def test_default_bounds_names_follow_kernel_order(kind):
    rng = np.random.default_rng(zlib.crc32(kind.encode()))
    k, box = KIND_BUILDERS[kind](rng)
    b = default_bounds(k, box, rng.normal(size=5))
    assert [p.name for p in b] == [p.name for p in k.params]
    # maximize_likelihood searches the intersection with each own box
    for p, q in zip(k.params, b):
        assert max(p.lower, q.lower) <= min(p.upper, q.upper), p.name


@pytest.mark.filterwarnings("ignore:invalid value encountered")
def test_all_restarts_failing_raises():
    ts = _sine_training(n=6)
    # every Gram this kernel can produce is non-finite, so no restart can
    # ever reach a finite likelihood
    k = sg.compose("OuterFn", sg.SquaredExponential(1), lambda x: float("nan"))
    with pytest.raises(OptimizationError):
        sg.maximize_likelihood(k, ts, n_restarts=2, seed=0)


def test_non_intersecting_bounds_rejected():
    ts = _sine_training()
    k = sg.GibbsKernel(1, sg.ArctanLS(c1=1.0, c2=2.0))
    # search region entirely below the offset's hard limit
    bad = []
    for p in default_bounds(k, ts.box, ts.y):
        if p.name == "c2":
            bad.append(sg.HyperParam("c2", 0.5, 0.1, 1.0))
        else:
            bad.append(p)
    with pytest.raises(sg.ParameterError):
        sg.maximize_likelihood(k, ts, bounds=tuple(bad), n_restarts=2, seed=0)


def test_result_reports_restart_records():
    ts = _sine_training()
    res = sg.maximize_likelihood(sg.Matern32(1), ts, n_restarts=3, seed=7)
    assert len(res.restarts) == 3
    assert res.converged
    assert res.n_evals == sum(r.n_evals for r in res.restarts)
    best = max(r.loglik for r in res.restarts if r.converged)
    assert res.loglik == best
