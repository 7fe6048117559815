"""The stepgp benchmark: workloads, timing, output checks and reports.

Workloads (one client, closed loop, driven from one process):

``sweep-step2d``
    ``run_experiment`` on ``step_function(2)``: 1 replicate, all eleven
    default methods, ``n_train`` 20, ``n_t`` 1000, 10 restarts, ``jobs=1``.
    The paper's headline benchmark and the single-threaded baseline.
    Nearly all of its time is Nelder-Mead likelihood evaluations on 20x20
    Gram matrices.
``sweep-1d``
    ``step_function(1)`` and ``nonstationary_function()``, 1 replicate each,
    all eleven methods, ``n_train`` 10, ``jobs=2`` (what the CLI's
    ``jobs: 0`` resolves to on a 2-core machine).  The user's default
    parallel path, and the likelihood at n = 10, where Python overhead
    rather than linear algebra dominates.
``emulate-query``
    Set-up builds emulators with pinned hyperparameters (no MLE) through
    ``maximin_lhs``, ``TrainingSet``, ``fit`` and ``save_model``: five on the
    2-D step target at n = 20 (SquaredExponential, Matern32, NeuralNet,
    Gibbs(ArctanLS), Warped(ErfWarp o SE)) and one SquaredExponential on the
    5-D step target at n = 400.  A pass then loads every model with
    ``load_model`` and answers single-point ``predict`` queries and
    1000-point ``predict_batch`` calls.  The two sizes vary the working set:
    per-call Python overhead dominates at n = 20, O(n^2) solves at n = 400.

Inputs.  The sweeps and the emulators' training designs are pinned to the
sweep protocol's master seed 0 (the seed of acceptance criterion 6): one
replicate's wall time and RMSE change by tens of percent and by orders of
magnitude between designs, so a sweep whose design followed ``--seed`` could
not be compared run to run.  ``--seed`` draws the emulators' query points,
which is where an emulator's inputs vary in use.

A run first sets up at least ``SETUP_REPEATS`` times and for at least
``SETUP_MIN_S`` seconds (``setup_s`` is the median), then runs passes at
the stated size while the next pass is expected to end within
``--seconds``, at least one.

End-to-end metrics, reported by every workload:

``wall_s``       pass time: the mean sweep time on the sweeps; on
                 ``emulate-query`` the sum over a pass's operations (model
                 loads, single queries, batch calls) of each one's fastest
                 time over the run's passes
``setup_s``      median set-up time
``peak_rss_mb``  peak resident memory of the process
``ok_ratio``     1 - failed / attempted; failed cells, queries and output
                 checks count as failures
``rmse_median``  median RMSE over the cells, or over the emulators
``op_ms_mean``   mean latency of the workload's unit operation: a benchmark
                 cell on the sweeps; on ``emulate-query`` a single-point
                 ``predict``, each query at its fastest over the passes

On the shared host each CPU switches, independently of the other, between
speed regimes up to 1.8x apart that last from seconds to minutes.  Two
measures follow.  A single-threaded workload runs on whichever allowed CPU
a fixed probe finds fastest, re-chosen every ``STEER_S`` seconds
(:class:`CpuSteering`).  And ``emulate-query``, which repeats the same
operations in every pass, times each operation at its fastest over the
run's passes: the work is deterministic, so contention only adds to an
operation's time, and one fast spell anywhere in the run is enough, where
the mean pass time follows the mix of spells the run met and moved by up
to 40% between runs.  The sweeps, one long pass per run, report its wall
time.  The mean pass times and the medians and tail percentiles
(``cell_s`` p50/p90, ``query_us`` p50/p99, ``batch_ms`` p50/p90), each
with its sample count, are printed and kept in the run record.

With ``--trace 1`` the run measures the passes untraced, then installs the
span wrappers of :mod:`spans`, sets up and measures again, and reports the
per-layer metrics of the traced part together with
``trace.overhead_ratio`` (traced over untraced ``wall_s``).  A layer
that does not run on a workload reads 0.

Every result also records the machine facts and the limits of the
measurement: a shared 2-core machine, only this process measured, no
system-wide tracing and no cache dropping.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import json
import math
import os
import platform
import resource
import shutil
import signal
import statistics
import sys
import time
import traceback
from collections import defaultdict
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np
import scipy

import stepgp.benchmark as sgbench
import stepgp.config as sgconfig
import stepgp.design as sgdesign
import stepgp.gp as sggp
import stepgp.mle as sgmle
from stepgp.domain import Box
from stepgp.kernels import (
    ArctanLS,
    ErfWarp,
    GibbsKernel,
    Matern32,
    NeuralNet,
    SquaredExponential,
    WarpedKernel,
)

from spans import Tracer

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = Path(__file__).resolve().parent / "out"

#: a single-threaded run re-chooses its CPU this often (seconds)
STEER_S = 0.1
#: set up at least SETUP_REPEATS times and until SETUP_MIN_S seconds are spent
SETUP_REPEATS = 3
SETUP_MIN_S = 2.0
#: master seed of the sweep protocol; pins the sweeps and the emulator designs
PROTOCOL_SEED = 0
STATIONARY = ("SquarExp", "Mat32")
ORACLE_RTOL = 1e-8
THREAD_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
              "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS",
              "NUMEXPR_NUM_THREADS")
LIMITS = ("shared 2-core machine; only this process (and its threads) is "
          "measured; no system-wide tracing; no cache dropping")

GRAM_KINDS = ("SquaredExponential", "Matern32", "NeuralNet", "GibbsKernel",
              "WarpedKernel")

#: name -> (unit, better) for --trace 0
END_TO_END = {
    "wall_s": ("s", "lower"),
    "setup_s": ("s", "lower"),
    "peak_rss_mb": ("MB", "lower"),
    "ok_ratio": ("ratio", "higher"),
    "rmse_median": ("1", "lower"),
    "op_ms_mean": ("ms", "lower"),
}

#: name -> (unit, better) for --trace 1
PER_LAYER = {
    "mle.loglik_us_p50": ("us", "lower"),
    "mle.loglik_self_us_p50": ("us", "lower"),
    "mle.loglik_calls": ("count", "lower"),
    "mle.self_ms": ("ms", "lower"),
    "mle.maximize_ms_p50": ("ms", "lower"),
    "mle.evals_per_restart": ("count", "lower"),
    "mle.converged_ratio": ("ratio", "higher"),
    "mle.loglik_failed": ("count", "lower"),
    "mle.at_boundary": ("count", "lower"),
    **{f"kernels.gram_us_p50.{k}": ("us", "lower") for k in GRAM_KINDS},
    "kernels.gram_calls": ("count", "lower"),
    "kernels.gram_ms": ("ms", "lower"),
    "kernels.cross_us_p50": ("us", "lower"),
    "gp.predict_us_p50": ("us", "lower"),
    "gp.predict_batch_ms_p50": ("ms", "lower"),
    "gp.fit_ms_p50": ("ms", "lower"),
    "gp.trainingset_ms": ("ms", "lower"),
    "gp.jitter_escalations": ("count", "lower"),
    "gp.variance_clamps": ("count", "lower"),
    "design.maximin_lhs_ms_p50": ("ms", "lower"),
    "design.maximin_lhs_calls": ("count", "lower"),
    "config.load_model_ms_p50": ("ms", "lower"),
    "config.save_model_ms_p50": ("ms", "lower"),
    "benchmark.cpu_per_wall": ("ratio", "higher"),
    "benchmark.self_ms": ("ms", "lower"),
    "benchmark.cells": ("count", "higher"),
    "benchmark.cells_failed": ("count", "lower"),
    "trace.overhead_ratio": ("ratio", "lower"),
}

# -- small helpers --------------------------------------------------------


def quantile(values, q: float) -> float:
    """Linear-interpolation quantile; 0.0 for an empty sample."""
    return float(np.quantile(values, q)) if len(values) else 0.0


def timing(values, scale: float, qs=(0.5,)) -> dict:
    """Quantiles of a sample of seconds, in the unit given by ``scale``,
    with the sample count."""
    out = {f"p{round(100 * q)}": scale * quantile(values, q) for q in qs}
    out["n"] = len(values)
    return out


def cpu_seconds() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + kids.ru_utime + kids.ru_stime


@dataclass
class Pass:
    """What one pass at the stated size did."""

    wall: float = 0.0
    ops: list = field(default_factory=list)       # seconds per unit op
    batches: list = field(default_factory=list)   # seconds per batch call
    loads: list = field(default_factory=list)     # seconds per model load
    attempted: int = 0
    failed: int = 0
    outputs: object = None   # kept for the first pass only
    digest: str = ""         # hash of the outputs, for bitwise reruns


def digest(*arrays) -> str:
    h = hashlib.sha256()
    for a in arrays:
        h.update(np.ascontiguousarray(a, dtype=float).tobytes())
    return h.hexdigest()


# -- sweeps ---------------------------------------------------------------


@dataclass(frozen=True)
class SweepWorkload:
    """``run_experiment`` over fixed functions; one pass is one sweep."""

    name: str
    functions: tuple
    n_train: int
    jobs: int
    n_t: int = 1000
    n_restarts: int = 10
    methods: tuple | None = None   # labels; None means all default methods

    op_name = "cell"

    @property
    def threads(self) -> int:
        return self.jobs

    def _functions(self):
        make = {"step1d": lambda: sgbench.step_function(1),
                "step2d": lambda: sgbench.step_function(2),
                "nonstat1d": sgbench.nonstationary_function}
        return [make[f]() for f in self.functions]

    def _methods(self):
        methods = sgbench.default_methods()
        if self.methods is None:
            return methods
        return tuple(m for m in methods if m.label in self.methods)

    def setup(self, seed: int, workdir: Path):
        """Build the functions, methods and candidate kernels, and evaluate
        each candidate's likelihood once on the protocol's replicate-0
        design, so lazy first-call work is done before timing."""
        tfs = self._functions()
        methods = self._methods()
        for tf in tfs:
            design = sgdesign.maximin_lhs(sgdesign.DesignSpec(
                n=self.n_train, d=tf.d, domain=tf.domain, seed=PROTOCOL_SEED))
            ts = sggp.TrainingSet(design.points,
                                  sgbench.evaluate(tf, design.points),
                                  box=tf.domain)
            for m in methods:
                for kern in m.build(tf.d):
                    sgmle.log_likelihood(kern, ts)
        return {"tfs": tfs, "methods": methods}

    def run_pass(self, state) -> Pass:
        p = Pass()
        t0 = time.perf_counter()
        rows = sgbench.run_experiment(
            state["tfs"], state["methods"], replicates=1,
            n_train=self.n_train, n_t=self.n_t, master_seed=PROTOCOL_SEED,
            n_restarts=self.n_restarts, jobs=self.jobs)
        p.wall = time.perf_counter() - t0
        p.ops = [r.wall_ms / 1e3 for r in rows]
        p.attempted = len(rows)
        p.failed = sum(not r.ok for r in rows)
        p.outputs = rows
        p.digest = digest([r.rmse for r in rows],
                          [v for r in rows for v in r.params.values()])
        return p

    def wall_parts(self, passes) -> dict:
        return {}

    def wall(self, passes) -> float:
        """Mean sweep time."""
        return statistics.fmean(p.wall for p in passes)

    def op_seconds(self, passes) -> float:
        """Mean cell time."""
        return statistics.fmean(t for p in passes for t in p.ops)

    def checks(self, state, passes) -> list[tuple[str, bool, str]]:
        rows = passes[0].outputs
        want = [(tf.label, 0, m.label)
                for tf in state["tfs"] for m in state["methods"]]
        got = [(r.function, r.replicate, r.method) for r in rows]
        bad = [r.method for r in rows if not math.isfinite(r.rmse)]
        out = [("rows_in_order", got == want,
                f"{len(got)} rows, {len(want)} expected"),
               ("rmse_finite", not bad,
                f"non-finite: {bad}" if bad else "all finite"),
               bitwise_check(passes)]
        labels = {m.label for m in state["methods"]}
        if set(STATIONARY) <= labels and len(labels) > len(STATIONARY):
            for tf in state["tfs"]:
                if tf.kind != "StepFn":
                    continue
                med = {s.method: s.median for s in sgbench.summarize(
                    [r for r in rows if r.function == tf.label])}
                best = min((v, k) for k, v in med.items()
                           if k not in STATIONARY)
                base = min(med[k] for k in STATIONARY)
                out.append((f"{tf.label}.step_aware_beats_stationary",
                            best[0] < base,
                            f"best {best[1]} {best[0]:.4g} vs stationary "
                            f"{base:.4g}"))
        return out

    def quality(self, state, passes) -> dict:
        """RMSE of every successful cell, by function/method."""
        return {f"{r.function}/{r.method}": r.rmse
                for r in passes[0].outputs if r.ok}


# -- emulator queries -----------------------------------------------------


def _emulators(n_small: int, n_large: int, d_large: int):
    """(label, d, n, kernel) with pinned hyperparameters; the 2-D
    step-aware ones are rounded from maximum-likelihood fits on the
    protocol design."""
    return (
        ("SE", 2, n_small,
         SquaredExponential(2, sigma2=1.0, lengthscales=[0.4, 3.0])),
        ("Mat32", 2, n_small,
         Matern32(2, sigma2=1.0, lengthscales=[0.4, 3.0])),
        ("NeurNet", 2, n_small,
         NeuralNet(2, sigma2=1.0, sigmas=[1.0, 50.0, 1.0])),
        ("GibbsArctan", 2, n_small,
         GibbsKernel(2, ArctanLS(c1=1000.0, c2=np.pi / 2 + 0.01, axis=0),
                     sigma2=0.4)),
        ("WarpErf", 2, n_small,
         WarpedKernel(ErfWarp(c1=100.0, axis=0),
                      SquaredExponential(2, sigma2=0.15,
                                         lengthscales=[0.36, 40.0]))),
        (f"SE{d_large}d", d_large, n_large,
         SquaredExponential(d_large, sigma2=1.0,
                            lengthscales=[0.8] * d_large)),
    )


def _oracle(gp, Q):
    """Dense ``numpy.linalg.solve`` evaluation of the formulas in the
    ``stepgp.gp`` docstring, on K plus the nugget the model reports."""
    X, y = gp.training.X, gp.training.y
    n = X.shape[0]
    K = gp.kernel.gram(X) + gp.jitter_used * np.eye(n)
    one = np.ones(n)
    Kinv_one = np.linalg.solve(K, one)
    mu = float(one @ np.linalg.solve(K, y)) / float(one @ Kinv_one)
    kx = gp.kernel.cross(X, Q)
    mean = mu + kx.T @ np.linalg.solve(K, y - mu * one)
    prior = np.array([gp.kernel(q, q) for q in Q])
    resid = 1.0 - Kinv_one @ kx
    var = (prior - np.sum(kx * np.linalg.solve(K, kx), axis=0)
           + resid * resid / float(one @ Kinv_one))
    return mean, np.maximum(var, 0.0), prior


@dataclass(frozen=True)
class EmulateWorkload:
    """Load saved emulators and answer queries; one pass loads every model
    once and runs its single and batch queries."""

    name: str
    n_small: int = 20
    n_large: int = 400
    d_large: int = 5
    singles: int = 50         # single-point queries per model per pass
    batches: int = 1          # predict_batch calls per model per pass
    batch_size: int = 1000

    op_name = "query"
    threads = 1

    def setup(self, seed: int, workdir: Path):
        """Design, condition and save every emulator; draw the queries."""
        models = []
        for i, (label, d, n, kern) in enumerate(_emulators(
                self.n_small, self.n_large, self.d_large)):
            tf = sgbench.step_function(d)
            design = sgdesign.maximin_lhs(sgdesign.DesignSpec(
                n=n, d=d, domain=tf.domain, seed=PROTOCOL_SEED))
            ts = sggp.TrainingSet(design.points,
                                  sgbench.evaluate(tf, design.points),
                                  box=tf.domain)
            path = workdir / f"{label}.yaml"
            sgconfig.save_model(sggp.fit(kern, ts), path)
            rng = np.random.default_rng([seed, i])
            box: Box = tf.domain
            singles = box.from_unit(rng.random((self.singles, d)))
            batch = box.from_unit(rng.random((self.batches,
                                              self.batch_size, d)))
            models.append({"label": label, "path": path, "tf": tf,
                           "singles": singles, "batch": batch})
        return {"models": models}

    def run_pass(self, state) -> Pass:
        p = Pass(outputs={})
        t0 = time.perf_counter()
        for m in state["models"]:
            p.attempted += 1
            try:
                t = time.perf_counter()
                gp = sgconfig.load_model(m["path"])
                p.loads.append(time.perf_counter() - t)
            except Exception:
                p.loads.append(math.nan)
                p.failed += 1
                traceback.print_exc(file=sys.stderr)
                continue
            for x in m["singles"]:
                p.attempted += 1
                try:
                    t = time.perf_counter()
                    gp.predict(x)
                    p.ops.append(time.perf_counter() - t)
                except Exception:
                    p.ops.append(math.nan)
                    p.failed += 1
                    traceback.print_exc(file=sys.stderr)
            res = []
            for Q in m["batch"]:
                p.attempted += 1
                try:
                    t = time.perf_counter()
                    res.append(gp.predict_batch(Q))
                    p.batches.append(time.perf_counter() - t)
                except Exception:
                    p.batches.append(math.nan)
                    p.failed += 1
                    traceback.print_exc(file=sys.stderr)
            p.outputs[m["label"]] = (gp, res)
        p.wall = time.perf_counter() - t0
        p.digest = digest(*(a for _, res in p.outputs.values()
                            for pair in res for a in pair))
        return p

    def wall_parts(self, passes) -> dict:
        """Seconds a pass spends in model loads, single queries and batch
        calls, each operation at its fastest over the run."""
        return {kind: float(np.sum(fastest(passes, kind)))
                for kind in ("loads", "ops", "batches")}

    def wall(self, passes) -> float:
        """A pass with every operation at its fastest over the run."""
        return sum(self.wall_parts(passes).values())

    def op_seconds(self, passes) -> float:
        """Mean over the single queries of each one's fastest time."""
        return float(np.mean(fastest(passes, "ops")))

    def checks(self, state, passes) -> list[tuple[str, bool, str]]:
        out = []
        first = passes[0].outputs
        for m in state["models"]:
            label = m["label"]
            if label not in first or len(first[label][1]) != self.batches:
                out.append((f"{label}.answered", False, "missing outputs"))
                continue
            gp, res = first[label]
            worst_m = worst_v = 0.0
            for Q, (mean, var) in zip(m["batch"], res):
                want_m, want_v, prior = _oracle(gp, Q)
                worst_m = max(worst_m, float(np.max(np.abs(mean - want_m)))
                              / max(float(np.max(np.abs(want_m))), 1e-300))
                worst_v = max(worst_v, float(np.max(np.abs(var - want_v)))
                              / float(np.max(prior)))
            out.append((f"{label}.mean_vs_oracle", worst_m <= ORACLE_RTOL,
                        f"relative error {worst_m:.3g}"))
            out.append((f"{label}.variance_vs_oracle", worst_v <= ORACLE_RTOL,
                        f"relative error {worst_v:.3g} of the prior variance"))
        out.append(bitwise_check(passes))
        return out

    def quality(self, state, passes) -> dict:
        """RMSE of each emulator's batch means against the step target."""
        out = {}
        first = passes[0].outputs
        for m in state["models"]:
            res = first.get(m["label"], (None, []))[1]
            if len(res) == self.batches:
                truth = np.concatenate([sgbench.evaluate(m["tf"], Q)
                                        for Q in m["batch"]])
                pred = np.concatenate([mean for mean, _ in res])
                out[m["label"]] = sgbench.rmse(truth, pred)
        return out


WORKLOADS = {
    w.name: w for w in (
        SweepWorkload("sweep-step2d", functions=("step2d",), n_train=20,
                      jobs=1),
        SweepWorkload("sweep-1d", functions=("step1d", "nonstat1d"),
                      n_train=10, jobs=2),
        EmulateWorkload("emulate-query"),
    )
}


def fastest(passes, kind: str) -> np.ndarray:
    """Per-operation minimum over the passes of the timings in ``kind``;
    every pass runs the same operations in the same order, and a failed
    one is timed as NaN."""
    with np.errstate(all="ignore"):
        return np.nanmin([getattr(p, kind) for p in passes], axis=0)


def bitwise_check(passes):
    same = all(p.digest == passes[0].digest for p in passes)
    return ("passes_bitwise_equal", same, f"{len(passes)} passes")


# -- running --------------------------------------------------------------


def probe_seconds(reps: int = 30) -> float:
    """Median of ``reps`` timings of a fixed pure-Python computation on the
    current CPU; it uses nothing from stepgp."""
    times = []
    for _ in range(reps):
        t = time.perf_counter()
        sum(range(300))
        times.append(time.perf_counter() - t)
    return statistics.median(times)


class CpuSteering:
    """Every ``period`` seconds, from a SIGALRM handler, time a fixed probe
    on each allowed CPU and move the calling thread to the fastest.

    On the shared host each CPU's speed changes by up to 1.8x in spells
    lasting from seconds to minutes, independently of the other CPU, and a
    run-long average moves with the mix of spells the run happened to
    meet.  At most moments one of the CPUs is in a fast spell, so running
    on whichever probes fastest keeps the measurement off the contended
    CPU.  Probing both CPUs takes about 0.3 ms, under 0.5% of the run.
    """

    def __init__(self, period: float):
        self.period = period
        self.cpus = sorted(os.sched_getaffinity(0))
        self._old = None

    def _steer(self, signum, frame):
        times = {}
        for cpu in self.cpus:
            os.sched_setaffinity(0, {cpu})
            times[cpu] = probe_seconds()
        best = min(times, key=times.get)
        if best != self.cpus[-1]:
            os.sched_setaffinity(0, {best})

    def __enter__(self):
        if len(self.cpus) > 1:
            self._old = signal.signal(signal.SIGALRM, self._steer)
            signal.setitimer(signal.ITIMER_REAL, self.period, self.period)
        return self

    def __exit__(self, *exc):
        if self._old is not None:
            signal.setitimer(signal.ITIMER_REAL, 0.0)
            signal.signal(signal.SIGALRM, self._old)
            os.sched_setaffinity(0, self.cpus)


def measure(workload, seed: int, seconds: float, workdir: Path,
            setup_repeats: int, setup_min_s: float = 0.0):
    """Set up at least ``setup_repeats`` times and until ``setup_min_s``
    seconds are spent, then run passes while the next one is expected to
    end within ``seconds`` (at least one)."""
    setups = []
    passes = []
    steering = (CpuSteering(STEER_S) if workload.threads == 1
                else contextlib.nullcontext())
    with steering:
        while len(setups) < setup_repeats or sum(setups) < setup_min_s:
            t = time.perf_counter()
            state = workload.setup(seed, workdir)
            setups.append(time.perf_counter() - t)
        cpu0, t0 = cpu_seconds(), time.perf_counter()
        while True:
            passes.append(workload.run_pass(state))
            if len(passes) > 1:
                # later passes are only compared by digest; keeping their
                # outputs would make memory grow with the pass count
                passes[-1].outputs = None
            elapsed = time.perf_counter() - t0
            if elapsed + passes[-1].wall > seconds:
                break
    cpu_per_wall = (cpu_seconds() - cpu0) / elapsed
    return setups, state, passes, cpu_per_wall


def layer_metrics(tracer: Tracer, workload, passes, cpu_per_wall: float,
                  overhead: float) -> dict:
    """Per-layer values from the spans of a traced run."""
    selfs = tracer.self_times()
    named = defaultdict(list)
    for s in tracer.spans:
        named[s.name].append(s)
    ll = named["mle.log_likelihood"]
    mx = named["mle.maximize_likelihood"]
    infos = [s.info for s in mx if s.info]
    restarts = sum(i["restarts"] for i in infos)
    grams = [s for name, spans in named.items()
             if name.startswith("kernels.gram.") for s in spans]
    sweep = workload.op_name == "cell"

    def p50(name, scale):
        return scale * quantile([s.duration for s in named[name]], 0.5)

    out = {
        "mle.loglik_us_p50": p50("mle.log_likelihood", 1e6),
        "mle.loglik_self_us_p50": 1e6 * quantile([selfs[s.id] for s in ll],
                                                 0.5),
        "mle.loglik_calls": len(ll),
        "mle.self_ms": 1e3 * sum(selfs[s.id] for s in mx),
        "mle.maximize_ms_p50": p50("mle.maximize_likelihood", 1e3),
        "mle.evals_per_restart": (sum(i["evals"] for i in infos) / restarts
                                  if restarts else 0.0),
        "mle.converged_ratio": (sum(i["converged"] for i in infos) / restarts
                                if restarts else 0.0),
        "mle.loglik_failed": sum(1 for s in ll if s.error or s.info),
        "mle.at_boundary": sum(i["at_boundary"] for i in infos),
        **{f"kernels.gram_us_p50.{k}": p50(f"kernels.gram.{k}", 1e6)
           for k in GRAM_KINDS},
        "kernels.gram_calls": len(grams),
        "kernels.gram_ms": 1e3 * sum(s.duration for s in grams),
        "kernels.cross_us_p50": p50("kernels.cross", 1e6),
        "gp.predict_us_p50": p50("gp.predict", 1e6),
        "gp.predict_batch_ms_p50": p50("gp.predict_batch", 1e3),
        "gp.fit_ms_p50": p50("gp.fit", 1e3),
        "gp.trainingset_ms": 1e3 * sum(s.duration
                                       for s in named["gp.TrainingSet"]),
        "gp.jitter_escalations": tracer.logs.counts["jitter_escalations"],
        "gp.variance_clamps": tracer.logs.counts["variance_clamps"],
        "design.maximin_lhs_ms_p50": p50("design.maximin_lhs", 1e3),
        "design.maximin_lhs_calls": len(named["design.maximin_lhs"]),
        "config.load_model_ms_p50": p50("config.load_model", 1e3),
        "config.save_model_ms_p50": p50("config.save_model", 1e3),
        "benchmark.cpu_per_wall": cpu_per_wall,
        "benchmark.self_ms": 1e3 * sum(
            selfs[s.id] for s in named["benchmark.run_experiment"]),
        "benchmark.cells": sum(p.attempted for p in passes) if sweep else 0,
        "benchmark.cells_failed": sum(p.failed for p in passes) if sweep else 0,
        "trace.overhead_ratio": overhead,
    }
    return out


def _git_commit(root: Path):
    """HEAD commit read from the .git directory, or None outside a clone."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        loose = git / ref
        if loose.is_file():
            return loose.read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def _source_digest(root: Path) -> str:
    h = hashlib.sha256()
    for path in sorted((root / "src" / "stepgp").rglob("*.py")):
        h.update(path.relative_to(root).as_posix().encode())
        h.update(path.read_bytes())
    return h.hexdigest()


def machine_facts() -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "blas": {"name": blas.get("name"), "version": blas.get("version"),
                 "config": blas.get("openblas configuration")},
        "thread_env": {k: os.environ.get(k) for k in THREAD_ENV},
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "platform": platform.platform(),
        "commit": _git_commit(ROOT),
        "src_sha256": _source_digest(ROOT),
        "limits": LIMITS,
    }


def run(workload, seed: int, seconds: float, trace: bool,
        out_dir: Path = OUT_DIR) -> dict:
    """One benchmark run; returns the full result record."""
    out_dir.mkdir(parents=True, exist_ok=True)
    workdir = out_dir / f"work-{os.getpid()}"
    workdir.mkdir(exist_ok=True)
    try:
        return _run(workload, seed, seconds, trace, out_dir, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def _run(workload, seed, seconds, trace, out_dir, workdir) -> dict:
    budget = seconds / 2 if trace else seconds
    repeats, min_s = (1, 0.0) if trace else (SETUP_REPEATS, SETUP_MIN_S)
    setups, state, passes, cpu_per_wall = measure(
        workload, seed, budget, workdir, repeats, min_s)
    base_wall = workload.wall(passes)
    stem = f"{workload.name}-seed{seed}-trace{int(trace)}"
    record = {"workload": workload.name, "seed": seed, "seconds": seconds,
              "trace": trace, "facts": machine_facts()}
    if trace:
        tracer = Tracer()
        with tracer:
            _, state, traced, _ = measure(workload, seed, budget, workdir, 1)
        overhead = workload.wall(traced) / base_wall
        metrics = layer_metrics(tracer, workload, traced, cpu_per_wall,
                                overhead)
        units = PER_LAYER
        tracer.dump(out_dir / f"{stem}-spans.jsonl")
        table = tracer.self_time_table()
        (out_dir / f"{stem}-selftime.txt").write_text(format_table(table))
        record["self_time"] = table
        passes = traced
    checks = workload.checks(state, passes)
    quality = workload.quality(state, passes)
    attempted = sum(p.attempted for p in passes) + len(checks)
    failed = sum(p.failed for p in passes) + sum(not ok for _, ok, _ in checks)
    ops = [t for p in passes for t in p.ops if not math.isnan(t)]
    detail = {
        "wall_s": {"value": workload.wall(passes),
                   "mean": statistics.fmean(p.wall for p in passes),
                   "parts": workload.wall_parts(passes),
                   **timing([p.wall for p in passes], 1.0), "unit": "s"},
        "setup_s": {"p50": statistics.median(setups), "n": len(setups),
                    "unit": "s"},
        "failed_ratio": {"value": failed / attempted, "failed": failed,
                         "attempted": attempted},
        "rmse_median": {"value": statistics.median(quality.values())
                        if quality else float("nan"), "n": len(quality)},
    }
    if workload.op_name == "cell":
        detail["cell_s"] = {**timing(ops, 1.0, (0.5, 0.9)), "unit": "s"}
    else:
        detail["query_us"] = {**timing(ops, 1e6, (0.5, 0.99)), "unit": "us"}
        for name, kind, qs in (("batch_ms", "batches", (0.5, 0.9)),
                               ("load_model_ms", "loads", (0.5,))):
            times = [t for p in passes for t in getattr(p, kind)
                     if not math.isnan(t)]
            detail[name] = {**timing(times, 1e3, qs), "unit": "ms"}
    if not trace:
        metrics = {
            "wall_s": workload.wall(passes),
            "setup_s": statistics.median(setups),
            "peak_rss_mb":
                resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "ok_ratio": 1.0 - failed / attempted,
            "rmse_median": detail["rmse_median"]["value"],
            "op_ms_mean": 1e3 * workload.op_seconds(passes),
        }
        units = END_TO_END
    record.update({
        "correct": all(ok for _, ok, _ in checks),
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": metrics[k], "unit": units[k][0]}
                    for k in units},
        "detail": detail,
        "checks": [{"name": n, "ok": ok, "detail": d} for n, ok, d in checks],
        "rmse": quality,
        "setup_samples_s": setups,
        "pass_walls_s": [p.wall for p in passes],
    })
    (out_dir / f"{stem}.json").write_text(json.dumps(record, indent=1))
    return record


def format_table(table) -> str:
    lines = [f"{'span':<34}{'calls':>9}{'total_ms':>13}{'self_ms':>13}"]
    for r in table:
        lines.append(f"{r['name']:<34}{r['calls']:>9}{r['total_ms']:>13.1f}"
                     f"{r['self_ms']:>13.1f}")
    return "\n".join(lines) + "\n"


def report(record) -> list[str]:
    """Human-readable lines: every metric with its unit and sample count,
    then the output checks."""
    lines = [f"workload {record['workload']} seed {record['seed']} "
             f"trace {int(record['trace'])}",
             f"limits: {record['facts']['limits']}",
             "facts: " + json.dumps({k: v for k, v in record["facts"].items()
                                     if k != "limits"})]
    for name, m in record["metrics"].items():
        lines.append(f"  {name:<34} {m['value']:.6g} {m['unit']}")
    for name, d in record["detail"].items():
        lines.append(f"  detail {name}: {json.dumps(d)}")
    for c in record["checks"]:
        lines.append(f"  check {'ok  ' if c['ok'] else 'FAIL'} {c['name']}: "
                     f"{c['detail']}")
    if record["trace"]:
        lines.append(format_table(record["self_time"][:20]).rstrip())
    return lines


def result_line(record) -> str:
    """The last line of standard output."""
    return json.dumps({k: record[k] for k in
                       ("correct", "attempted", "failed", "metrics")})


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    record = run(WORKLOADS[args.workload], args.seed, args.seconds,
                 bool(args.trace))
    for line in report(record):
        print(line)
    print(result_line(record))
    return 0
