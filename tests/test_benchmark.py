"""Test functions, RMSE protocol, and experiment bookkeeping."""

import dataclasses
import multiprocessing
import warnings

import numpy as np
import pytest

import stepgp as sg
from stepgp import ConfigError, DataError, DimensionError
from stepgp.benchmark import (
    ExperimentResult,
    MethodSpec,
    default_methods,
    result_row,
    summarize,
)


def test_step_function_branch_values():
    tf = sg.step_function(2)
    # the jump boundary belongs to the low branch
    assert sg.eval_test_function(tf, (0.0, 1.7)) == -1.0
    assert sg.eval_test_function(tf, (0.5, -2.0)) == 1.0
    got = sg.evaluate(tf, [[-1.0, 0.0], [1e-12, 0.0]])
    assert got.tolist() == [-1.0, 1.0]


def test_nonstationary_function_values():
    tf = sg.nonstationary_function()
    assert sg.eval_test_function(tf, 0.9) == 0.0
    assert sg.eval_test_function(tf, 0.2) == \
        pytest.approx(-0.21479294906879998, abs=1e-15)
    assert sg.eval_test_function(tf, 0.55) == \
        pytest.approx(0.1578091158914703, abs=1e-15)


def test_evaluate_rejects_out_of_domain():
    tf = sg.step_function(1)
    with pytest.raises(DataError):
        sg.evaluate(tf, [[2.5]])
    with pytest.raises(DimensionError):
        sg.evaluate(tf, [[0.0, 0.0]])


def test_rmse_identities():
    truth = np.array([-1.0, 0.5, 2.0, 1.0])
    assert sg.rmse(truth, truth) == 0.0
    assert sg.rmse(truth, truth + 0.3) == pytest.approx(0.3, abs=1e-15)
    assert sg.rmse([-1.0, 1.0], [0.0, 0.0]) == 1.0
    with pytest.raises(DimensionError):
        sg.rmse([1.0, 2.0], [1.0])


def test_default_method_labels():
    labels = [m.label for m in default_methods()]
    assert labels == [
        "SquarExp", "Mat32", "NeurNet",
        "GibbsErf", "GibbsLogistic", "GibbsTanh", "GibbsArctan",
        "WarpErf", "WarpLogistic", "WarpTanh", "WarpArctan",
    ]


def _cheap_methods():
    return [m for m in default_methods() if m.label in ("SquarExp", "Mat32")]


def _sine_tf():
    return sg.user_function("sine1d", lambda X: np.sin(2.0 * X[:, 0]),
                            1, sg.Box.cube(-2.0, 2.0, 1))


def test_row_conservation_and_seed_scheme():
    results = sg.run_experiment([_sine_tf()], _cheap_methods(),
                                replicates=2, n_train=6, n_t=40,
                                master_seed=10, n_restarts=1)
    assert len(results) == 1 * 2 * 2
    for res in results:
        assert res.ok
        assert res.rmse >= 0.0
        assert res.n_train == 6 and res.n_test == 40
    # seed = master + 1000*replicate + 1-based method index
    got = [(r.replicate, r.method, r.seed) for r in results]
    assert got == [
        (0, "SquarExp", 11), (0, "Mat32", 12),
        (1, "SquarExp", 1011), (1, "Mat32", 1012),
    ]


def test_constant_target_is_interpolated():
    tf = sg.user_function("flat1d", lambda X: np.full(X.shape[0], 2.5),
                          1, sg.Box.cube(0.0, 1.0, 1))
    results = sg.run_experiment([tf], _cheap_methods(), replicates=1,
                                n_train=6, n_t=50, master_seed=0,
                                n_restarts=1)
    for res in results:
        assert res.ok
        assert res.rmse <= 1e-6


def test_determinism_and_parallel_equivalence():
    kw = dict(replicates=2, n_train=6, n_t=30, master_seed=3, n_restarts=1)
    runs = [sg.run_experiment([_sine_tf()], _cheap_methods(), **kw),
            sg.run_experiment([_sine_tf()], _cheap_methods(), **kw),
            sg.run_experiment([_sine_tf()], _cheap_methods(), jobs=2, **kw)]

    def strip(rows):
        return [dataclasses.replace(r, wall_ms=0.0) for r in rows]

    assert strip(runs[0]) == strip(runs[1])
    assert strip(runs[0]) == strip(runs[2])


def test_on_result_streams_in_order():
    seen = []
    results = sg.run_experiment([_sine_tf()], _cheap_methods(),
                                replicates=1, n_train=6, n_t=20,
                                master_seed=0, n_restarts=1,
                                on_result=seen.append)
    assert seen == results


def test_failed_cells_recorded_not_raised():
    def broken(d):
        raise RuntimeError("no kernel today")

    methods = [MethodSpec("Broken", broken)] + _cheap_methods()[:1]
    results = sg.run_experiment([_sine_tf()], methods, replicates=1,
                                n_train=6, n_t=20, master_seed=0,
                                n_restarts=1)
    assert len(results) == 2
    bad, good = results
    assert bad.method == "Broken" and not bad.ok
    assert bad.status == "failed:RuntimeError"
    assert np.isnan(bad.rmse)
    assert good.ok


def test_forked_workers_match_serial_rows_in_order():
    # a lambda target and a local method: neither can be pickled, so the
    # rows come out right only if the workers inherit the cells by fork
    def broken(d):
        raise RuntimeError("no kernel today")

    methods = [MethodSpec("Broken", broken)] + _cheap_methods()
    kw = dict(replicates=2, n_train=6, n_t=30, master_seed=3, n_restarts=1)
    serial = sg.run_experiment([_sine_tf()], methods, **kw)
    seen = []
    forked = sg.run_experiment([_sine_tf()], methods, jobs=2,
                               on_result=seen.append, **kw)

    def strip(rows):
        # repr, because a failed row's NaN rmse never compares equal
        return [repr(dataclasses.replace(r, wall_ms=0.0)) for r in rows]

    assert strip(forked) == strip(serial)
    assert strip(seen) == strip(serial)
    assert [r.status for r in serial].count("failed:RuntimeError") == 2


def test_more_jobs_than_cells_leaves_no_workers_or_warnings():
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        results = sg.run_experiment([_sine_tf()], _cheap_methods(),
                                    replicates=1, n_train=6, n_t=20,
                                    master_seed=0, n_restarts=1, jobs=8)
    assert [r.method for r in results] == ["SquarExp", "Mat32"]
    assert all(r.ok for r in results)
    assert multiprocessing.active_children() == []


def test_on_result_error_cancels_pending_cells(tmp_path):
    def counted(d):
        # one "x" per started cell, one file per process
        pid = multiprocessing.current_process().pid
        with open(tmp_path / str(pid), "a") as fh:
            fh.write("x")
        return [sg.SquaredExponential(d)]

    def stop(res):
        raise KeyError("stop")

    n_cells = 20
    with pytest.raises(KeyError):
        sg.run_experiment([_sine_tf()], [MethodSpec("Counted", counted)],
                          replicates=n_cells, n_train=6, n_t=20,
                          master_seed=0, n_restarts=1, jobs=2,
                          on_result=stop)
    started = sum(len(f.read_text()) for f in tmp_path.iterdir())
    assert 1 <= started < n_cells
    assert multiprocessing.active_children() == []


def test_experiment_validation():
    with pytest.raises(ConfigError):
        sg.run_experiment([_sine_tf()], _cheap_methods(), replicates=0)
    dup = _cheap_methods() + _cheap_methods()
    with pytest.raises(ConfigError):
        sg.run_experiment([_sine_tf()], dup, replicates=1)


def _row(method, rmse, status="ok"):
    return ExperimentResult(function="f", dim=1, method=method, replicate=0,
                            seed=0, rmse=rmse, n_train=10, n_test=100,
                            jitter=1e-10, wall_ms=1.0, status=status)


def test_summarize_single_result():
    s, = summarize([_row("M", 0.37)])
    assert (s.min, s.q1, s.median, s.q3, s.max, s.mean) == (0.37,) * 6
    assert s.failures == 0


def test_summarize_quantiles_match_sorted_oracle():
    vals = [3.1, 0.7, 1.9, 4.2, 2.8, 0.3, 3.9, 1.1, 2.2, 5.0,
            0.9, 3.3, 1.6, 2.5, 4.8, 0.5, 3.7, 1.4, 2.0, 4.5]
    s, = summarize([_row("M", v) for v in vals])
    # linear interpolation between order statistics
    assert s.min == 0.3 and s.max == 5.0
    assert s.q1 == pytest.approx(1.325, abs=1e-12)
    assert s.median == pytest.approx(2.35, abs=1e-12)
    assert s.q3 == pytest.approx(3.75, abs=1e-12)
    assert s.mean == pytest.approx(2.52, abs=1e-12)


def test_summarize_counts_failures_without_polluting_quantiles():
    rows = [_row("M", 1.0), _row("M", 3.0),
            _row("M", float("nan"), status="failed:NumericsError"),
            _row("N", float("nan"), status="failed:NumericsError")]
    sm, sn = summarize(rows)
    assert sm.method == "M" and sm.failures == 1
    assert sm.median == 2.0 and sm.min == 1.0 and sm.max == 3.0
    assert sn.failures == 1 and np.isnan(sn.median)
    with pytest.raises(DataError):
        summarize([])


def test_result_row_round_trips_precision():
    row = _row("M", 0.1234567890123456789)
    txt = result_row(row)
    cells = txt.split(",")
    assert cells[2] == "M"
    assert float(cells[5]) == row.rmse


def test_step_rmse_markov_cross_check():
    """Errors on the step target are bounded by 2, so the fraction of test
    points missed by more than 0.5 can never exceed 4 rmse^2."""
    tf = sg.step_function(2)
    des = sg.maximin_lhs(sg.DesignSpec(20, 2, tf.domain, seed=0))
    ts = sg.TrainingSet(des.points, sg.evaluate(tf, des.points),
                        box=tf.domain)
    res = sg.maximize_likelihood(sg.SquaredExponential(2), ts,
                                 n_restarts=2, seed=1)
    gp = sg.fit(res.kernel, ts)
    Xt = sg.uniform_test_set(400, 2, tf.domain, seed=99)
    pred, _ = gp.predict_batch(Xt)
    truth = sg.evaluate(tf, Xt)
    err = np.abs(truth - pred)
    assert np.max(err) <= 2.0 + 1e-9
    r = sg.rmse(truth, pred)
    frac = float(np.mean(err > 0.5))
    assert frac <= 4.0 * r * r + 1e-12
