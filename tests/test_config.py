"""YAML serialization of kernels, models, fit results and run configs."""

import dataclasses
import zlib

import numpy as np
import pytest

import stepgp as sg
from stepgp import ConfigError
from stepgp.config import (
    RunConfig,
    kernel_from_dict,
    kernel_to_dict,
    load_kernel,
    load_run_config,
    load_yaml,
    mlresult_to_dict,
    save_kernel,
    save_yaml,
)

from _instances import KIND_BUILDERS, random_points

SERIALIZABLE = sorted(set(KIND_BUILDERS) - {"OuterFn"})


@pytest.mark.parametrize("kind", SERIALIZABLE)
def test_kernel_round_trip(kind, tmp_path):
    rng = np.random.default_rng(zlib.crc32(kind.encode()))
    k, box = KIND_BUILDERS[kind](rng)
    path = tmp_path / "kernel.yaml"
    save_kernel(k, path)
    k2 = load_kernel(path)

    assert k2.kind == k.kind
    assert k2.dim == k.dim
    assert [dataclasses.astuple(p) for p in k2.params] == \
        [dataclasses.astuple(p) for p in k.params]
    X = random_points(rng, box, 6)
    assert np.array_equal(sg.gram_matrix(k2, X), sg.gram_matrix(k, X))


def _pos(name, value):
    return {"name": name, "value": value, "lower": 1e-12, "upper": 1e12,
            "scale": "log", "shift": 0.0}


def _free(name, value):
    return {"name": name, "value": value, "lower": -1e6, "upper": 1e6,
            "scale": "linear", "shift": 0.0}


def _se(dim, s2, *ls):
    return {"kind": "SquaredExp", "dim": dim,
            "params": [_pos("variance", s2)]
            + [_pos(f"l{i}", v) for i, v in enumerate(ls, start=1)]}


# kernel files in the layout users write by hand for ``stepgp fit``
HAND_WRITTEN = {
    "Gibbs-Arctan-axis1": (
        {"kind": "Gibbs", "dim": 2, "params": [_pos("variance", 0.4)],
         "lsfn": {"kind": "Arctan", "axis": 1, "params": [
             _free("c1", 30.0),
             {"name": "c2", "value": 1.6, "lower": 1.5807963267948966,
              "upper": 1000001.5707963269, "scale": "log",
              "shift": 1.5707963267948966}]}},
        sg.GibbsKernel(2, sg.ArctanLS(c1=30.0, c2=1.6, axis=1), sigma2=0.4)),
    "Warped-PeriodicPair": (
        {"kind": "Warped", "dim": 1,
         "warp": {"kind": "PeriodicPair", "params": [], "period": 2.0},
         "child": _se(2, 1.5, 0.5, 0.7)},
        sg.WarpedKernel(sg.PeriodicPairWarp(2.0),
                        sg.SquaredExponential(2, sigma2=1.5,
                                              lengthscales=[0.5, 0.7]))),
    "Warped-Erf": (
        {"kind": "Warped", "dim": 2,
         "warp": {"kind": "Erf", "params": [_pos("c1", 100.0)], "axis": 0},
         "child": _se(2, 0.15, 0.36, 40.0)},
        sg.WarpedKernel(sg.ErfWarp(c1=100.0, axis=0),
                        sg.SquaredExponential(2, sigma2=0.15,
                                              lengthscales=[0.36, 40.0]))),
    "Sum": (
        {"kind": "Sum", "dim": 1, "children": [
            _se(1, 1.0, 0.3),
            {"kind": "Matern32", "dim": 1,
             "params": [_pos("variance", 2.0), _pos("l1", 1.2)]}]},
        sg.SquaredExponential(1, sigma2=1.0, lengthscales=0.3)
        + sg.Matern32(1, sigma2=2.0, lengthscales=1.2)),
    "Scaled": (
        {"kind": "Scaled", "c": 2.5, "child": _se(1, 1.0, 0.8)},
        2.5 * sg.SquaredExponential(1, sigma2=1.0, lengthscales=0.8)),
    "NeuralNetShifted": (
        {"kind": "NeuralNetShifted", "dim": 1, "params": [
            _pos("variance", 1.0), _pos("sigma0", 1.0), _pos("sigma1", 50.0),
            _free("tau1", 0.25)]},
        sg.NeuralNetShifted(1, sigma2=1.0, sigmas=[1.0, 50.0], tau=0.25)),
}


@pytest.mark.parametrize("name", sorted(HAND_WRITTEN))
def test_hand_written_kernel_layout(name):
    d, want = HAND_WRITTEN[name]
    k = kernel_from_dict(d)
    assert type(k) is type(want)
    assert k.dim == want.dim
    assert [dataclasses.astuple(p) for p in k.params] == \
        [dataclasses.astuple(p) for p in want.params]
    X = random_points(np.random.default_rng(3), sg.Box.cube(-2.0, 2.0, k.dim), 7)
    assert np.array_equal(k.gram(X), want.gram(X))


def test_yaml_survives_awkward_floats(tmp_path):
    data = {"a": 0.1, "b": 1.0 + 2.0 ** -52, "c": 1e-300, "d": 5e-324,
            "e": 1.7976931348623157e308, "f": -0.0,
            "nested": {"list": [3.141592653589793, 2.220446049250313e-16]}}
    path = tmp_path / "x.yaml"
    save_yaml(data, path)
    back = load_yaml(path)
    assert back == data


def test_function_wrapping_kernel_is_not_serializable():
    k = sg.compose("OuterFn", sg.SquaredExponential(1), lambda x: 2.0)
    with pytest.raises(ConfigError):
        kernel_to_dict(k)


def test_kernel_from_dict_validation():
    with pytest.raises(ConfigError):
        kernel_from_dict({"kind": "NoSuchKernel"})
    with pytest.raises(ConfigError):
        kernel_from_dict("SquaredExp")
    with pytest.raises(ConfigError):
        kernel_from_dict({"kind": "SquaredExp", "dim": 2, "params": []})
    with pytest.raises(ConfigError):
        kernel_from_dict({"kind": "Gibbs", "dim": 1, "params": []})
    with pytest.raises(ConfigError):
        kernel_from_dict({"kind": "Sum", "dim": 1, "children": []})
    se = _se(1, 1.0, 0.3)
    with pytest.raises(ConfigError):
        kernel_from_dict({"kind": "Scaled", "child": se})
    with pytest.raises(ConfigError):
        kernel_from_dict({"kind": "Warped", "dim": 1,
                          "warp": {"kind": "Erf", "params": []}, "child": se})
    with pytest.raises(ConfigError):
        kernel_from_dict({**se, "params": [_pos("variance", 1.0),
                                           _pos("lengthscale", 0.3)]})
    with pytest.raises(ConfigError):
        kernel_from_dict({**se, "dim": 2})


def test_model_round_trip_reproduces_predictions(tmp_path):
    box = sg.Box.cube(-2.0, 2.0, 1)
    X = sg.maximin_lhs(sg.DesignSpec(10, 1, box, seed=4)).points
    ts = sg.TrainingSet(X, np.sin(2.0 * X[:, 0]), box=box)
    gp = sg.fit(sg.Matern32(1, sigma2=1.3, lengthscales=0.6), ts)
    path = tmp_path / "model.yaml"
    sg.save_model(gp, path)
    gp2 = sg.load_model(path)

    assert gp2.mu_hat == gp.mu_hat
    assert gp2.jitter_used == gp.jitter_used
    Xt = np.linspace(-2.0, 2.0, 200)[:, None]
    m1, v1 = gp.predict_batch(Xt)
    m2, v2 = gp2.predict_batch(Xt)
    assert np.array_equal(m1, m2)
    assert np.array_equal(v1, v2)


def test_mlresult_dict_keeps_restart_diagnostics(tmp_path):
    box = sg.Box.cube(-2.0, 2.0, 1)
    X = sg.maximin_lhs(sg.DesignSpec(8, 1, box, seed=0)).points
    ts = sg.TrainingSet(X, np.sin(2.0 * X[:, 0]), box=box)
    res = sg.maximize_likelihood(sg.SquaredExponential(1), ts,
                                 n_restarts=3, seed=2)
    d = mlresult_to_dict(res)
    assert d["loglik"] == res.loglik
    assert d["seed"] == 2
    assert d["values"] == res.values
    assert len(d["restarts"]) == 3
    for rec, row in zip(res.restarts, d["restarts"]):
        assert row["loglik"] == rec.loglik
        assert row["n_evals"] == rec.n_evals
        assert row["converged"] == rec.converged
    path = tmp_path / "fit.yaml"
    save_yaml(d, path)
    assert load_yaml(path) == d


def test_run_config_defaults_and_methods():
    cfg = RunConfig({"functions": [{"kind": "StepFn", "d": 2}]})
    assert cfg.replicates == 20
    assert cfg.n_train is None
    assert cfg.n_t == 1000
    assert cfg.master_seed == 0
    assert cfg.n_restarts == 10
    assert [m.label for m in cfg.methods] == \
        [m.label for m in sg.default_methods()]
    assert cfg.functions[0].kind == "StepFn"
    assert cfg.functions[0].d == 2

    cfg = RunConfig({"functions": [{"kind": "NonstatFn"}],
                     "methods": ["Mat32", "GibbsArctan"],
                     "replicates": 3, "n_train": 15, "n_t": 200,
                     "master_seed": 7})
    assert [m.label for m in cfg.methods] == ["Mat32", "GibbsArctan"]
    assert cfg.functions[0].domain.upper == (1.0,)
    assert cfg.n_train == 15


def test_run_config_validation():
    ok = {"functions": [{"kind": "StepFn", "d": 1}]}
    with pytest.raises(ConfigError):
        RunConfig({**ok, "granularity": 3})
    with pytest.raises(ConfigError):
        RunConfig({**ok, "replicates": 0})
    with pytest.raises(ConfigError):
        RunConfig({**ok, "methods": ["SquarExp", "NoSuchMethod"]})
    with pytest.raises(ConfigError):
        RunConfig({"functions": []})
    with pytest.raises(ConfigError):
        RunConfig({"functions": [{"kind": "UserDefined", "d": 1}]})
    with pytest.raises(ConfigError):
        RunConfig({**ok, "n_train": 1})


def test_load_run_config_and_yaml_errors(tmp_path):
    path = tmp_path / "run.yaml"
    path.write_text("functions:\n  - kind: StepFn\n    d: 1\nreplicates: 2\n")
    cfg = load_run_config(path)
    assert cfg.replicates == 2

    bad = tmp_path / "bad.yaml"
    bad.write_text("a: [unclosed\n")
    with pytest.raises(ConfigError):
        load_yaml(bad)
    lst = tmp_path / "list.yaml"
    lst.write_text("- 1\n- 2\n")
    with pytest.raises(ConfigError):
        load_yaml(lst)
