"""Command-line interface: flags, files, exit codes, atomicity."""

import multiprocessing
import os
import signal
import subprocess
import sys
import time

import numpy as np
import pytest

import stepgp as sg
from stepgp import cli
from stepgp.config import load_yaml, save_kernel, save_yaml


def _write_xy_csv(path, X, y):
    d = X.shape[1]
    lines = [",".join(f"x{j + 1}" for j in range(d)) + ",y"]
    for row, v in zip(X, y):
        lines.append(",".join(repr(float(c)) for c in row) + f",{float(v)!r}")
    path.write_text("\n".join(lines) + "\n")


def _write_x_csv(path, X):
    d = X.shape[1]
    lines = [",".join(f"x{j + 1}" for j in range(d))]
    for row in X:
        lines.append(",".join(repr(float(c)) for c in row))
    path.write_text("\n".join(lines) + "\n")


# -- design -------------------------------------------------------------


def test_design_writes_csv_and_prints_min_dist(tmp_path, capsys):
    out = tmp_path / "d.csv"
    rc = cli.main(["design", "--n", "20", "--d", "2", "--domain", "-2,2",
                   "--seed", "7", "--out", str(out)])
    assert rc == 0
    assert "min_dist=" in capsys.readouterr().out
    data = [l for l in out.read_text().splitlines()
            if l and not l.startswith("#")]
    assert data[0] == "x1,x2"
    assert len(data) == 21
    pts = sg.read_points_csv(out)
    assert pts.shape == (20, 2)
    assert sg.Box.cube(-2.0, 2.0, 2).contains(pts)


def test_design_rerun_is_byte_identical(tmp_path):
    args = ["design", "--n", "8", "--d", "1", "--seed", "3"]
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    assert cli.main(args + ["--out", str(a)]) == 0
    assert cli.main(args + ["--out", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()


def test_design_bad_flags_exit_2(tmp_path, capsys):
    out = str(tmp_path / "d.csv")
    assert cli.main(["design", "--n", "1", "--d", "1", "--out", out]) == 2
    assert cli.main(["design", "--n", "5", "--d", "1",
                     "--domain", "2,-2", "--out", out]) == 2
    assert cli.main(["design", "--n", "5", "--d", "1",
                     "--domain", "0,1,2", "--out", out]) == 2
    assert "error:" in capsys.readouterr().err


# -- fit ----------------------------------------------------------------


def _fit_fixture(tmp_path, kernel):
    box = sg.Box.cube(-2.0, 2.0, 1)
    X = sg.maximin_lhs(sg.DesignSpec(10, 1, box, seed=2)).points
    y = np.where(X[:, 0] <= 0.0, -1.0, 1.0)
    train = tmp_path / "train.csv"
    test = tmp_path / "test.csv"
    kpath = tmp_path / "kernel.yaml"
    _write_xy_csv(train, X, y)
    _write_x_csv(test, X)
    save_kernel(kernel, kpath)
    return train, test, kpath


def _run_fit(tmp_path, train, test, kpath, restarts="3"):
    pred = tmp_path / "pred.csv"
    model = tmp_path / "model.yaml"
    rc = cli.main(["fit", "--train", str(train), "--kernel", str(kpath),
                   "--test", str(test), "--pred-out", str(pred),
                   "--model-out", str(model), "--restarts", restarts,
                   "--seed", "1"])
    return rc, pred, model


def test_fit_stationary_reproduces_training_points(tmp_path, capsys):
    train, test, kpath = _fit_fixture(tmp_path, sg.SquaredExponential(1))
    rc, pred, model = _run_fit(tmp_path, train, test, kpath)
    assert rc == 0
    assert "loglik=" in capsys.readouterr().out

    rows = [l for l in pred.read_text().splitlines()
            if l and not l.startswith("#")]
    assert rows[0] == "mean,variance"
    vals = np.array([[float(c) for c in r.split(",")] for r in rows[1:]])
    assert vals.shape == (10, 2)
    stored = load_yaml(model)
    sigma2 = next(p["value"] for p in stored["kernel"]["params"]
                  if p["name"] == "variance")
    # at the training points a stationary interpolator is exact
    assert np.all(vals[:, 1] <= 1e-8 * sigma2)
    assert "fit" in stored and stored["fit"]["seed"] == 1


def test_fit_network_kernel_keeps_positive_variance(tmp_path):
    train, test, kpath = _fit_fixture(tmp_path, sg.NeuralNet(1))
    rc, pred, _ = _run_fit(tmp_path, train, test, kpath)
    assert rc == 0
    rows = [l for l in pred.read_text().splitlines()
            if l and not l.startswith("#")]
    variances = np.array([float(r.split(",")[1]) for r in rows[1:]])
    assert np.all(variances > 0.0)


def test_fit_malformed_csv_leaves_no_output(tmp_path, capsys):
    train, test, kpath = _fit_fixture(tmp_path, sg.SquaredExponential(1))
    train.write_text("a,b\n1.0,2.0\n")  # wrong header
    rc, pred, model = _run_fit(tmp_path, train, test, kpath)
    assert rc == 2
    assert "error:" in capsys.readouterr().err
    assert not pred.exists()
    assert not model.exists()


def test_fit_dimension_mismatch_exits_2(tmp_path):
    train, test, kpath = _fit_fixture(tmp_path, sg.SquaredExponential(1))
    _write_x_csv(test, np.zeros((3, 2)))
    rc, pred, model = _run_fit(tmp_path, train, test, kpath)
    assert rc == 2
    assert not pred.exists() and not model.exists()


# -- benchmark ----------------------------------------------------------


def _smoke_config(tmp_path, out_dir, **over):
    data = {
        "functions": [{"kind": "StepFn", "d": 1}],
        "methods": ["SquarExp", "Mat32"],
        "replicates": 2,
        "n_train": 6,
        "n_t": 100,
        "n_restarts": 1,
        "jobs": 1,
        "out_dir": str(out_dir),
    }
    data.update(over)
    path = tmp_path / "run.yaml"
    save_yaml(data, path)
    return path


def _data_rows(path):
    return [l for l in path.read_text().splitlines()
            if l and not l.startswith("#")]


def _strip_wall(lines):
    out = []
    for line in lines:
        cells = line.split(",")
        if len(cells) == 11 and cells[0] != "function":
            cells[9] = "_"
        out.append(",".join(cells))
    return out


def test_benchmark_smoke_run(tmp_path, capsys):
    out_dir = tmp_path / "out"
    cfg = _smoke_config(tmp_path, out_dir)
    rc = cli.main(["benchmark", "--config", str(cfg)])
    assert rc == 0
    printed = capsys.readouterr().out
    assert "SquarExp" in printed and "Mat32" in printed

    results = out_dir / "results.csv"
    summary = out_dir / "summary.csv"
    head = results.read_text().splitlines()[:5]
    assert head[0].startswith("# tool=stepgp-")
    assert head[1] == "# master_seed=0"
    assert head[2].startswith("# config_hash=")
    assert head[3:] == ["# jobs=1", "# start_method=serial"]
    assert summary.read_text().splitlines()[:5] == head
    rows = _data_rows(results)
    assert rows[0].split(",")[:3] == ["function", "dim", "method"]
    assert len(rows) == 1 + 4
    srows = _data_rows(summary)
    assert srows[0].startswith("method,min,q1,median")
    assert len(srows) == 1 + 2


def test_benchmark_rerun_matches_except_wall_time(tmp_path):
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    cfg = _smoke_config(tmp_path, out_a)
    assert cli.main(["benchmark", "--config", str(cfg)]) == 0
    assert cli.main(["benchmark", "--config", str(cfg),
                     "--out-dir", str(out_b)]) == 0
    ra = _strip_wall((out_a / "results.csv").read_text().splitlines())
    rb = _strip_wall((out_b / "results.csv").read_text().splitlines())
    assert ra == rb
    # the summary carries no timing at all, so it is byte-identical
    assert (out_a / "summary.csv").read_bytes() == \
        (out_b / "summary.csv").read_bytes()


def test_benchmark_env_var_overrides_out_dir(tmp_path, monkeypatch):
    flag_dir = tmp_path / "flag"
    env_dir = tmp_path / "env"
    cfg = _smoke_config(tmp_path, tmp_path / "cfgdir",
                        replicates=1, n_t=20)
    monkeypatch.setenv("STEPGP_OUT_DIR", str(env_dir))
    rc = cli.main(["benchmark", "--config", str(cfg),
                   "--out-dir", str(flag_dir)])
    assert rc == 0
    assert (env_dir / "results.csv").exists()
    assert not flag_dir.exists()


def test_benchmark_flag_overrides(tmp_path):
    out_dir = tmp_path / "out"
    cfg = _smoke_config(tmp_path, out_dir, methods=["SquarExp"],
                        replicates=1, n_t=20)
    rc = cli.main(["benchmark", "--config", str(cfg),
                   "--replicates", "3", "--seed", "5"])
    assert rc == 0
    rows = _data_rows(out_dir / "results.csv")
    assert len(rows) == 1 + 3
    seeds = [int(r.split(",")[4]) for r in rows[1:]]
    assert seeds == [6, 1006, 2006]


@pytest.mark.parametrize("flag, value, message", [
    ("--replicates", "0", "replicates must be >= 1"),
    ("--jobs", "-1", "jobs must be >= 0"),
])
def test_benchmark_bad_flag_exits_2_and_writes_nothing(tmp_path, capsys,
                                                       flag, value, message):
    out_dir = tmp_path / "out"
    cfg = _smoke_config(tmp_path, out_dir)
    assert cli.main(["benchmark", "--config", str(cfg), flag, value]) == 2
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not out_dir.exists()


def _meta_lines(path):
    return [l for l in path.read_text().splitlines() if l.startswith("#")]


def test_benchmark_jobs_zero_counts_usable_cpus(tmp_path, monkeypatch):
    out_dir = tmp_path / "out"
    cfg = _smoke_config(tmp_path, out_dir, jobs=0)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 2, 5},
                        raising=False)
    monkeypatch.setattr(os, "cpu_count", lambda: 64)
    assert cli.main(["benchmark", "--config", str(cfg)]) == 0
    meta = _meta_lines(out_dir / "results.csv")
    assert "# jobs=3" in meta
    method = ("fork" if "fork" in multiprocessing.get_all_start_methods()
              else "serial")
    assert f"# start_method={method}" in meta
    assert _meta_lines(out_dir / "summary.csv") == meta

    # without an affinity mask the machine's count is used
    monkeypatch.delattr(os, "sched_getaffinity")
    assert cli._usable_cpus() == 64


def test_benchmark_bad_config_exits_2(tmp_path, capsys):
    cfg = tmp_path / "run.yaml"
    save_yaml({"functions": [{"kind": "StepFn", "d": 1}],
               "granularity": 2}, cfg)
    assert cli.main(["benchmark", "--config", str(cfg)]) == 2
    assert "error:" in capsys.readouterr().err
    missing = tmp_path / "never_written.yaml"
    assert cli.main(["benchmark", "--config", str(missing)]) == 1


def test_interrupted_benchmark_leaves_valid_prefix(tmp_path):
    out_dir = tmp_path / "out"
    cfg = _smoke_config(tmp_path, out_dir, methods=["SquarExp", "Mat32"],
                        replicates=20, n_train=10, n_t=50, n_restarts=5)
    proc = subprocess.Popen(
        [sys.executable, "-m", "stepgp.cli", "benchmark",
         "--config", str(cfg)],
        stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)
    results = out_dir / "results.csv"
    try:
        deadline = time.time() + 120.0
        while time.time() < deadline:
            if results.exists() and \
                    len(_data_rows(results)) >= 4:  # header + 3 rows
                break
            time.sleep(0.05)
        else:
            pytest.fail("no partial results appeared in time")
    finally:
        proc.send_signal(signal.SIGKILL)
        proc.wait()

    text = results.read_text()
    lines = text.splitlines()
    if not text.endswith("\n"):
        lines = lines[:-1]  # a torn final write is not a data row
    data = [l for l in lines if l and not l.startswith("#")]
    assert data[0].split(",")[0] == "function"
    assert 3 <= len(data) - 1 < 40
    for row in data[1:]:
        cells = row.split(",")
        assert len(cells) == 11
        float(cells[5])  # rmse parses
        assert cells[10] == "ok" or cells[10].startswith("failed:")


def test_version_flag():
    with pytest.raises(SystemExit) as exc:
        cli.main(["--version"])
    assert exc.value.code == 0
