"""Benchmark harness: step / nonstationary test functions, replicated
maximin designs, per-method ML fits, RMSE aggregation.

Protocol per test function: draw `replicates` maximin LHS training sets
(default size 10 d), evaluate the target, fit every method by maximum
likelihood, predict at one shared uniform test set and record the RMSE

    rmse = sqrt( sum_t (f(x_t) - m(x_t))^2 / n_t ).

Deterministic seeding, with replicate r (0-based) and method m (1-based):

    design_seed = master_seed + 1000 r
    fit_seed    = master_seed + 1000 r + m
    test_seed   = master_seed + 999999

so all methods within a replicate share one design, reruns are exactly
reproducible, and cells are independent (safe to run in parallel).
A method failure is recorded as a failed row; the sweep never aborts.
"""

from __future__ import annotations

import logging
import multiprocessing
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

from .design import DesignSpec, maximin_lhs, uniform_test_set
from .domain import Box, as_points
from .errors import ConfigError, DataError, DimensionError
from .gp import TrainingSet, fit
from .kernels import (
    ArctanLS,
    ArctanWarp,
    ErfLS,
    ErfWarp,
    GibbsKernel,
    Kernel,
    LogisticLS,
    LogisticWarp,
    Matern32,
    NeuralNet,
    SquaredExponential,
    TanhLS,
    TanhWarp,
    WarpedKernel,
)
from .mle import maximize_likelihood

log = logging.getLogger(__name__)

RESULT_COLUMNS = ("function", "dim", "method", "replicate", "seed", "rmse",
                  "n_train", "n_test", "jitter", "wall_ms", "status")
SUMMARY_COLUMNS = ("method", "min", "q1", "median", "q3", "max", "mean",
                   "failures")

_TEST_SEED_OFFSET = 999_999


@dataclass(frozen=True)
class TestFunction:
    """A target to emulate: exact, cheap, defined on a box."""

    kind: str
    d: int
    domain: Box
    label: str
    fn: Callable[[np.ndarray], np.ndarray] | None = None

    def __post_init__(self):
        if self.kind not in ("StepFn", "NonstatFn", "UserDefined"):
            raise ConfigError(f"unknown test function kind {self.kind!r}")
        if self.kind == "UserDefined" and self.fn is None:
            raise ConfigError("UserDefined test function needs fn")
        if self.domain.d != self.d:
            raise DimensionError(
                f"domain dimension {self.domain.d} != d {self.d}")


def step_function(d: int, domain: Box | None = None) -> TestFunction:
    """f(x) = -1 where x_1 <= 0, +1 where x_1 > 0 (jump on the first
    axis; the boundary itself belongs to the low branch)."""
    if domain is None:
        domain = Box.cube(-2.0, 2.0, d)
    return TestFunction(kind="StepFn", d=d, domain=domain,
                        label=f"step{d}d")


def nonstationary_function() -> TestFunction:
    """f(x) = sin(30 (x - 0.9)^4) cos(2 (x - 0.9)) + (x - 0.9) / 2 on
    [0, 1]: rapid oscillation near 0, nearly linear past 0.9."""
    return TestFunction(kind="NonstatFn", d=1,
                        domain=Box.cube(0.0, 1.0, 1), label="nonstat1d")


def user_function(label: str, fn: Callable, d: int, domain: Box) -> TestFunction:
    """Wrap an arbitrary vectorized function f: (n, d) -> (n,)."""
    return TestFunction(kind="UserDefined", d=d, domain=domain,
                        label=label, fn=fn)


def evaluate(tf: TestFunction, X) -> np.ndarray:
    """Exact target values at rows of X; rejects out-of-domain points."""
    X = as_points(X, tf.d)
    if not tf.domain.contains(X):
        raise DataError("points fall outside the test function domain")
    if tf.kind == "StepFn":
        return np.where(X[:, 0] <= 0.0, -1.0, 1.0)
    if tf.kind == "NonstatFn":
        t = X[:, 0] - 0.9
        return np.sin(30.0 * t ** 4) * np.cos(2.0 * t) + 0.5 * t
    return np.asarray(tf.fn(X), dtype=float).ravel()


def eval_test_function(tf: TestFunction, x) -> float:
    """Scalar evaluation at a single point."""
    x = np.atleast_1d(np.asarray(x, dtype=float))
    return float(evaluate(tf, x[None, :] if x.ndim == 1 else x)[0])


def rmse(truth, pred) -> float:
    truth = np.asarray(truth, dtype=float).ravel()
    pred = np.asarray(pred, dtype=float).ravel()
    if truth.shape != pred.shape:
        raise DimensionError(
            f"length mismatch: {truth.shape[0]} vs {pred.shape[0]}")
    if truth.size < 1:
        raise DataError("need at least one value")
    return float(np.sqrt(np.mean((truth - pred) ** 2)))


@dataclass(frozen=True)
class MethodSpec:
    """A labelled kernel recipe.  ``build(d)`` returns the candidate
    kernels to fit; nonstationary methods return one candidate per axis
    and the max-likelihood candidate wins."""

    label: str
    build: Callable[[int], Sequence[Kernel]]


def _stationary(ctor):
    return lambda d: [ctor(d)]


def _gibbs(ls_ctor):
    return lambda d: [GibbsKernel(d, ls_ctor(axis=a)) for a in range(d)]


def _warp(warp_ctor):
    return lambda d: [WarpedKernel(warp_ctor(axis=a), SquaredExponential(d))
                      for a in range(d)]


def default_methods() -> tuple[MethodSpec, ...]:
    """The eleven benchmark methods: two stationary baselines, the
    neural-network kernel, four Gibbs sigmoids, four warp sigmoids
    (squared-exponential base)."""
    return (
        MethodSpec("SquarExp", _stationary(SquaredExponential)),
        MethodSpec("Mat32", _stationary(Matern32)),
        MethodSpec("NeurNet", _stationary(NeuralNet)),
        MethodSpec("GibbsErf", _gibbs(ErfLS)),
        MethodSpec("GibbsLogistic", _gibbs(LogisticLS)),
        MethodSpec("GibbsTanh", _gibbs(TanhLS)),
        MethodSpec("GibbsArctan", _gibbs(ArctanLS)),
        MethodSpec("WarpErf", _warp(ErfWarp)),
        MethodSpec("WarpLogistic", _warp(LogisticWarp)),
        MethodSpec("WarpTanh", _warp(TanhWarp)),
        MethodSpec("WarpArctan", _warp(ArctanWarp)),
    )


@dataclass(frozen=True)
class ExperimentResult:
    """One (function, replicate, method) cell."""

    function: str
    dim: int
    method: str
    replicate: int
    seed: int
    rmse: float
    n_train: int
    n_test: int
    jitter: float
    wall_ms: float
    status: str
    params: dict = field(default_factory=dict)

    @property
    def ok(self) -> bool:
        return self.status == "ok"


def _run_cell(tf, method, training, Xtest, truth, seed, n_restarts,
              replicate) -> ExperimentResult:
    t0 = time.perf_counter()
    try:
        candidates = list(method.build(tf.d))
        if not candidates:
            raise ConfigError(f"method {method.label} built no kernels")
        best = None
        for kern in candidates:
            res = maximize_likelihood(kern, training, n_restarts=n_restarts,
                                      seed=seed)
            if best is None or res.loglik > best.loglik:
                best = res
        gp = fit(best.kernel, training)
        pred, _ = gp.predict_batch(Xtest)
        err = rmse(truth, pred)
        wall = 1000.0 * (time.perf_counter() - t0)
        return ExperimentResult(
            function=tf.label, dim=tf.d, method=method.label,
            replicate=replicate, seed=seed, rmse=err,
            n_train=training.n, n_test=Xtest.shape[0],
            jitter=gp.jitter_used, wall_ms=wall, status="ok",
            params=dict(best.values))
    except Exception as e:
        wall = 1000.0 * (time.perf_counter() - t0)
        log.warning("cell failed: fn=%s method=%s replicate=%d: %s",
                    tf.label, method.label, replicate, e)
        return ExperimentResult(
            function=tf.label, dim=tf.d, method=method.label,
            replicate=replicate, seed=seed, rmse=float("nan"),
            n_train=training.n, n_test=Xtest.shape[0],
            jitter=float("nan"), wall_ms=wall,
            status=f"failed:{type(e).__name__}")


# The cell list of a forked sweep worker.  Only _init_worker assigns it,
# and only inside a worker process; the parent's copy stays empty.
_worker_cells: list = []


def _init_worker(cells) -> None:
    global _worker_cells
    _worker_cells = cells


def _run_index(i: int) -> ExperimentResult:
    return _run_cell(*_worker_cells[i])


def sweep_start_method(jobs: int, n_cells: int) -> str:
    """How :func:`run_experiment` runs ``n_cells`` cells at ``jobs``:
    ``"fork"`` when it forks worker processes, else ``"serial"``."""
    if min(jobs, n_cells) > 1 and \
            "fork" in multiprocessing.get_all_start_methods():
        return "fork"
    return "serial"


def run_experiment(tfs: Sequence[TestFunction],
                   methods: Sequence[MethodSpec] | None = None,
                   replicates: int = 20, n_train: int | None = None,
                   n_t: int = 1000, master_seed: int = 0,
                   n_restarts: int = 10, jobs: int = 1,
                   on_result: Callable[[ExperimentResult], None] | None = None,
                   ) -> list[ExperimentResult]:
    """Full sweep over (function, replicate, method) cells.

    Returns exactly len(tfs) * replicates * len(methods) rows, failures
    included, in deterministic (function, replicate, method) order.
    ``on_result`` is invoked once per row, in that same order, as soon as
    the row is available.

    ``jobs`` > 1 forks ``min(jobs, cells)`` worker processes.  They
    inherit the cell list through the fork, so designs, methods and
    target functions are never pickled, and lambdas work: only a cell
    index goes to a worker and only its :class:`ExperimentResult` comes
    back.  If ``on_result`` raises, cells not yet started are cancelled.
    Where the platform has no ``fork`` start method the cells run
    serially.  Seeds are per-cell, so the rows do not depend on ``jobs``
    apart from ``wall_ms``.
    """
    if methods is None:
        methods = default_methods()
    if replicates < 1:
        raise ConfigError("replicates must be >= 1")
    labels = [m.label for m in methods]
    if len(set(labels)) != len(labels):
        raise ConfigError(f"duplicate method labels: {labels}")

    cells = []
    for tf in tfs:
        nt = 10 * tf.d if n_train is None else int(n_train)
        Xtest = uniform_test_set(n_t, tf.d, tf.domain,
                                 seed=master_seed + _TEST_SEED_OFFSET)
        truth = evaluate(tf, Xtest)
        for r in range(replicates):
            design = maximin_lhs(DesignSpec(
                n=nt, d=tf.d, domain=tf.domain,
                seed=master_seed + 1000 * r))
            training = TrainingSet(design.points, evaluate(tf, design.points),
                                   box=tf.domain)
            for m, method in enumerate(methods, start=1):
                seed = master_seed + 1000 * r + m
                cells.append((tf, method, training, Xtest, truth, seed,
                              n_restarts, r))

    results: list[ExperimentResult] = []

    def emit(res):
        results.append(res)
        if on_result is not None:
            on_result(res)

    if sweep_start_method(jobs, len(cells)) == "fork":
        # fork, not spawn: the cells hold lambdas and local functions.
        # Under fork the executor starts every worker before its manager
        # thread, so the pool adds no thread that a fork could copy
        # mid-operation.  A dead worker raises BrokenProcessPool.
        pool = ProcessPoolExecutor(
            max_workers=min(jobs, len(cells)),
            mp_context=multiprocessing.get_context("fork"),
            initializer=_init_worker, initargs=(cells,))
        try:
            for res in pool.map(_run_index, range(len(cells))):
                emit(res)
        finally:
            pool.shutdown(cancel_futures=True)
    else:
        for cell in cells:
            emit(_run_cell(*cell))
    return results


@dataclass(frozen=True)
class MethodSummary:
    """Five-number RMSE summary plus mean and failure count."""

    method: str
    min: float
    q1: float
    median: float
    q3: float
    max: float
    mean: float
    failures: int


def summarize(results: Sequence[ExperimentResult]) -> list[MethodSummary]:
    """Per-method box-plot numbers over successful rows.  Quantiles use
    linear interpolation between order statistics; failed rows are
    excluded from the statistics but counted."""
    if not results:
        raise DataError("no results to summarize")
    order: list[str] = []
    for res in results:
        if res.method not in order:
            order.append(res.method)
    out = []
    for label in order:
        vals = [r.rmse for r in results if r.method == label and r.ok]
        failures = sum(1 for r in results if r.method == label and not r.ok)
        if vals:
            q = np.quantile(vals, [0.0, 0.25, 0.5, 0.75, 1.0])
            out.append(MethodSummary(label, float(q[0]), float(q[1]),
                                     float(q[2]), float(q[3]), float(q[4]),
                                     float(np.mean(vals)), failures))
        else:
            nan = float("nan")
            out.append(MethodSummary(label, nan, nan, nan, nan, nan, nan,
                                     failures))
    return out


def result_row(res: ExperimentResult) -> str:
    """One results-CSV data line, full double precision."""
    return ",".join([
        res.function, str(res.dim), res.method, str(res.replicate),
        str(res.seed), repr(float(res.rmse)), str(res.n_train),
        str(res.n_test), repr(float(res.jitter)), repr(float(res.wall_ms)),
        res.status,
    ])


def _meta_lines(meta: dict | None) -> list[str]:
    return [f"# {k}={v}" for k, v in (meta or {}).items()]


def write_summary_csv(summaries: Sequence[MethodSummary], path,
                      meta: dict | None = None) -> None:
    lines = _meta_lines(meta)
    lines.append(",".join(SUMMARY_COLUMNS))
    for s in summaries:
        lines.append(",".join([
            s.method, repr(s.min), repr(s.q1), repr(s.median), repr(s.q3),
            repr(s.max), repr(s.mean), str(s.failures),
        ]))
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")
