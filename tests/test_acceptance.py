"""End-to-end acceptance checks.

Each test covers one headline capability and prints a one-line verdict,
so a full run yields a compact scorecard.  The two benchmark-scale checks
are marked ``slow``; the 5-D variant only runs when STEPGP_RUN_5D is set.
"""

import os
import zlib

import numpy as np
import pytest
from scipy.spatial.distance import pdist
from scipy.special import erf

import stepgp as sg
from stepgp.benchmark import MethodSpec, default_methods, summarize

from _instances import KIND_BUILDERS, random_points

BASELINE_KERNELS = (sg.Exponential, sg.Matern32, sg.Matern52,
                 sg.SquaredExponential)


def _verdict(capsys, num, label, ok):
    with capsys.disabled():
        print(f"criterion {num:>2} {label}: {'PASS' if ok else 'FAIL'}")


def _random_training(cls, i):
    """One moderately-scaled random training set for a stationary kernel:
    spread design, unit-order hyperparameters."""
    d = 1 if i < 10 else 2
    rng = np.random.default_rng(zlib.crc32(cls.__name__.encode()) + i)
    box = sg.Box.cube(-2.0, 2.0, d)
    n = 8 if d == 1 else 12
    X = sg.maximin_lhs(sg.DesignSpec(n, d, box, seed=i)).points
    y = rng.normal(size=n)
    k = cls(d, sigma2=float(rng.uniform(0.5, 2.0)),
            lengthscales=rng.uniform(0.2, 1.0, size=d))
    return k, sg.TrainingSet(X, y, box=box)


def test_criterion_01_stationary_interpolation(capsys):
    ok = True
    for cls in BASELINE_KERNELS:
        for i in range(20):
            k, ts = _random_training(cls, i)
            gp = sg.fit(k, ts)
            m, v = gp.predict_batch(ts.X)
            sigma2 = k.params[0].value
            ok &= bool(np.all(np.abs(m - ts.y) <= 1e-6 * np.max(np.abs(ts.y))))
            ok &= bool(np.all(v <= 1e-6 * sigma2))
    _verdict(capsys, 1, "stationary kernels interpolate", ok)
    assert ok


def test_criterion_02_network_kernel_keeps_variance(capsys):
    ok = True
    for i in range(20):
        d = 1 if i < 10 else 2
        rng = np.random.default_rng(200 + i)
        box = sg.Box.cube(-2.0, 2.0, d)
        n = 8 if d == 1 else 12
        X = sg.maximin_lhs(sg.DesignSpec(n, d, box, seed=i)).points
        y = rng.normal(size=n)
        k = sg.NeuralNet(d, sigma2=float(rng.uniform(0.5, 2.0)),
                         sigmas=rng.uniform(0.5, 5.0, size=d + 1))
        gp = sg.fit(k, sg.TrainingSet(X, y, box=box))
        _, v = gp.predict_batch(X)
        ok &= bool(np.all(v > 0.0))
    _verdict(capsys, 2, "network kernel variance stays positive", ok)
    assert ok


def _step_fit(kernel_cls, jump, box, r):
    des = sg.maximin_lhs(sg.DesignSpec(10, 1, box, seed=1000 * r))
    y = np.where(des.points[:, 0] <= jump, -1.0, 1.0)
    ts = sg.TrainingSet(des.points, y, box=box)
    return sg.maximize_likelihood(kernel_cls(1), ts, n_restarts=10,
                                  seed=1000 * r + 1)


def test_criterion_03_step_drives_weight_scale_to_bound(capsys):
    box = sg.Box.cube(-2.0, 2.0, 1)
    hits = 0
    for r in range(20):
        res = _step_fit(sg.NeuralNet, 0.0, box, r)
        # within 0.1% of the 1e3 search ceiling counts as "at the bound"
        hits += res.values["sigma1"] >= 999.0
    ok = hits >= 15
    _verdict(capsys, 3,
             f"weight scale reaches its ceiling in {hits}/20 fits", ok)
    assert ok


def test_criterion_04_shifted_network_locates_jump(capsys):
    box = sg.Box.cube(0.0, 1.0, 1)
    hits = 0
    for r in range(20):
        res = _step_fit(sg.NeuralNetShifted, 0.5, box, r)
        hits += abs(res.values["tau1"] - 0.5) <= 0.1
    ok = hits >= 15
    _verdict(capsys, 4,
             f"jump located within 0.1 in {hits}/20 fits", ok)
    assert ok


@pytest.mark.slow
def test_criterion_05_varying_lengthscale_beats_matern(capsys):
    methods = [
        next(m for m in default_methods() if m.label == "Mat32"),
        MethodSpec("GibbsQuad",
                   lambda d: [sg.GibbsKernel(d, sg.QuadraticLS())]),
    ]
    results = sg.run_experiment([sg.nonstationary_function()], methods,
                                replicates=20, n_train=15, n_t=1000,
                                master_seed=0, n_restarts=10, jobs=2)
    med = {s.method: s.median for s in summarize(results)}
    ok = med["GibbsQuad"] < med["Mat32"]
    _verdict(capsys, 5,
             f"median rmse {med['GibbsQuad']:.5f} < {med['Mat32']:.5f}", ok)
    assert ok


def _ordering_holds(results):
    med = {s.method: s.median for s in summarize(results)}
    base = min(med["SquarExp"], med["Mat32"])
    winners = ("NeurNet", "GibbsArctan", "WarpArctan")
    return all(med[m] < base for m in winners), med


@pytest.mark.slow
def test_criterion_06_step_benchmark_ordering(capsys):
    keep = {"SquarExp", "Mat32", "NeurNet", "GibbsArctan", "WarpArctan"}
    methods = [m for m in default_methods() if m.label in keep]
    results = sg.run_experiment([sg.step_function(2)], methods,
                                replicates=20, n_train=20, n_t=1000,
                                master_seed=0, n_restarts=10, jobs=2)
    ok, med = _ordering_holds(results)
    _verdict(capsys, 6,
             "discontinuity methods beat stationary baselines "
             + "{NeurNet:.4f}/{GibbsArctan:.4f}/{WarpArctan:.4f} vs "
               "{SquarExp:.4f}/{Mat32:.4f}".format(**med), ok)
    assert ok


@pytest.mark.opt5d
@pytest.mark.skipif(not os.environ.get("STEPGP_RUN_5D"),
                    reason="long 5-D benchmark; set STEPGP_RUN_5D=1")
def test_criterion_06_step_benchmark_ordering_5d(capsys):
    keep = {"SquarExp", "Mat32", "NeurNet", "GibbsArctan", "WarpArctan"}
    methods = [m for m in default_methods() if m.label in keep]
    results = sg.run_experiment([sg.step_function(5)], methods,
                                replicates=20, n_train=50, n_t=1000,
                                master_seed=0, n_restarts=10)
    ok, med = _ordering_holds(results)
    _verdict(capsys, 6, "5-D ordering holds", ok)
    assert ok


def test_criterion_07_network_kernel_monte_carlo(capsys):
    rng = np.random.default_rng(77)
    d = 2
    sigma2 = 1.7
    sigmas = np.array([0.8, 2.5, 1.2])
    k = sg.NeuralNet(d, sigma2=sigma2, sigmas=sigmas)
    box = sg.Box.cube(-2.0, 2.0, d)
    n_draws = 1_000_000
    ok = True
    for _ in range(10):
        x, xp = random_points(rng, box, 2)
        u = rng.normal(size=(n_draws, d + 1)) * sigmas
        hx = erf(u[:, 0] + u[:, 1:] @ x)
        hxp = erf(u[:, 0] + u[:, 1:] @ xp)
        prod = hx * hxp
        est = sigma2 * float(np.mean(prod))
        se = sigma2 * float(np.std(prod)) / np.sqrt(n_draws)
        ok &= abs(est - k(x, xp)) <= 4.0 * se
    _verdict(capsys, 7, "closed form matches sampled expectation", ok)
    assert ok


def test_criterion_08_likelihood_equals_dense_oracle(capsys):
    rng = np.random.default_rng(88)
    box = sg.Box.cube(-2.0, 2.0, 1)
    ok = True
    for rep in range(100):
        n = int(rng.integers(2, 11))
        X = sg.maximin_lhs(sg.DesignSpec(n, 1, box, seed=rep)).points
        y = rng.normal(size=n)
        ts = sg.TrainingSet(X, y)
        cls = BASELINE_KERNELS[rep % 4]
        k = cls(1, sigma2=float(rng.uniform(0.5, 2.0)),
                lengthscales=float(rng.uniform(0.2, 1.0)))
        got = sg.log_likelihood(k, ts)

        K = sg.gram_matrix(k, X) + sg.fit(k, ts).jitter_used * np.eye(n)
        one = np.ones(n)
        mu = float(one @ np.linalg.solve(K, y)) / \
            float(one @ np.linalg.solve(K, one))
        r = y - mu
        _, logdet = np.linalg.slogdet(K)
        want = float(-0.5 * n * np.log(2.0 * np.pi) - 0.5 * logdet
                     - 0.5 * (r @ np.linalg.solve(K, r)))
        ok &= abs(got - want) <= 1e-8 * abs(want)
    _verdict(capsys, 8, "log-likelihood matches dense oracle", ok)
    assert ok


def test_criterion_09_gram_matrices_stay_psd(capsys):
    ok = True
    for kind, build in KIND_BUILDERS.items():
        rng = np.random.default_rng(zlib.crc32(kind.encode()) ^ 0x5D)
        for _ in range(200):
            k, box = build(rng)
            n = int(rng.integers(2, 31))
            X = random_points(rng, box, n)
            K = sg.gram_matrix(k, X)
            eig = np.linalg.eigvalsh(K)
            ok &= bool(eig[0] >= -1e-8 * max(eig[-1], 0.0))
    _verdict(capsys, 9, "all kernel grams positive semidefinite", ok)
    assert ok


def test_criterion_10_design_quality(capsys):
    box = sg.Box.cube(0.0, 1.0, 2)
    des = sg.maximin_lhs(sg.DesignSpec(20, 2, box, seed=0))
    baseline = np.median([pdist(sg.random_lhs(20, 2, box, seed=s)).min()
                          for s in range(1000)])
    proj_ok = True
    for j in range(2):
        strata = np.floor(des.points[:, j] * 20).astype(int)
        proj_ok &= sorted(strata) == list(range(20))
    ok = des.min_dist >= 0.95 * float(baseline) and proj_ok
    _verdict(capsys, 10,
             f"min_dist {des.min_dist:.4f} vs baseline {baseline:.4f}", ok)
    assert ok
