"""Config-file serialization: kernels, fitted models, fit results and
benchmark run configs as nested key-value YAML.

Round-trips are lossless: floats are written with full repr precision and
every HyperParam field (name, value, lower, upper, scale, shift) is kept.
A fitted model stores its kernel, training data and the nugget actually
used; the Cholesky factor is recomputed on load at that exact nugget, so
a loaded model reproduces the saved one's predictions bit for bit.
"""

from __future__ import annotations

import numpy as np
import yaml

from .benchmark import MethodSpec, TestFunction, default_methods, step_function
from .benchmark import nonstationary_function
from .domain import Box
from .errors import ConfigError
from .gp import FittedGP, TrainingSet, fit
from .kernels import Kernel
from .kernels.params import HyperParam, Node
from .mle import MLResult


def _param_to_dict(p: HyperParam) -> dict:
    return {"name": p.name, "value": float(p.value), "lower": float(p.lower),
            "upper": float(p.upper), "scale": p.scale, "shift": float(p.shift)}


def _param_from_dict(d: dict) -> HyperParam:
    try:
        return HyperParam(str(d["name"]), float(d["value"]),
                          float(d["lower"]), float(d["upper"]),
                          str(d.get("scale", "linear")),
                          float(d.get("shift", 0.0)))
    except (KeyError, TypeError, ValueError) as e:
        raise ConfigError(f"bad parameter entry {d!r}") from e


def _node_to_dict(node: Node, family: type) -> dict:
    if family.kinds.get(node.kind) is not type(node):
        raise ConfigError(
            f"a {type(node).__name__} cannot be written to a file "
            f"(kernels wrapping a user function never can)")
    out = {"kind": node.kind}
    if family is Kernel:
        out["dim"] = node.dim
    out.update((f, getattr(node, f)) for f in node.fields)
    out["params"] = [_param_to_dict(p) for p in node.own_params]
    children = [_node_to_dict(c, fam)
                for c, (_, _, fam) in zip(node.children, node.slots)]
    if node.listed_children:
        out["children"] = children
    else:
        out.update((attr, c) for (attr, _, _), c in zip(node.slots, children))
    return out


def _node_from_dict(d, family: type) -> Node:
    if not isinstance(d, dict) or "kind" not in d:
        raise ConfigError(f"{family.__name__} entry must be a mapping with "
                          f"kind: {d!r}")
    kind = d["kind"]
    cls = family.kinds.get(kind) if isinstance(kind, str) else None
    if cls is None:
        raise ConfigError(f"unknown {family.__name__} kind {kind!r}")
    if cls.listed_children:
        entries = d.get("children")
        if not isinstance(entries, list) or len(entries) != len(cls.slots):
            raise ConfigError(
                f"{kind} needs exactly {len(cls.slots)} children")
    else:
        missing = [attr for attr, _, _ in cls.slots if attr not in d]
        if missing:
            raise ConfigError(f"{kind} needs {' and '.join(missing)}")
        entries = [d[attr] for attr, _, _ in cls.slots]
    children = {attr: _node_from_dict(e, fam)
                for (attr, _, fam), e in zip(cls.slots, entries)}
    try:
        node = cls(**{f: d[f] for f in cls.fields if f in d}, **children)
        if family is Kernel and int(d.get("dim", node.dim)) != node.dim:
            raise ConfigError(f"{kind} has dimension {node.dim}, "
                              f"not {d['dim']}")
    except (TypeError, ValueError) as e:
        raise ConfigError(f"bad {kind} entry: {e}") from e
    # the constructor ran the structural checks on default values; the
    # stored parameters replace those by name, each validated by HyperParam
    stored = [_param_from_dict(e) for e in d.get("params") or []]
    by_name = {p.name: p for p in stored}
    want = [p.name for p in node.own_params]
    if len(by_name) != len(stored) or sorted(by_name) != sorted(want):
        raise ConfigError(f"{kind} needs parameters {want}, got "
                          f"{[p.name for p in stored]}")
    return node.replaced([by_name[name] for name in want])


def kernel_to_dict(k: Kernel) -> dict:
    """Nested dict form of a kernel; raises ConfigError for kernels that
    wrap arbitrary Python functions (they cannot be written to a file)."""
    return _node_to_dict(k, Kernel)


def kernel_from_dict(d: dict) -> Kernel:
    return _node_from_dict(d, Kernel)


def _box_to_dict(box: Box) -> dict:
    return {"lower": [float(v) for v in box.lower],
            "upper": [float(v) for v in box.upper]}


def _box_from_dict(d: dict) -> Box:
    try:
        return Box(tuple(float(v) for v in d["lower"]),
                   tuple(float(v) for v in d["upper"]))
    except (KeyError, TypeError) as e:
        raise ConfigError(f"bad box entry {d!r}") from e


def model_to_dict(gp: FittedGP) -> dict:
    ts = gp.training
    return {
        "kernel": kernel_to_dict(gp.kernel),
        "mu_hat": float(gp.mu_hat),
        "jitter_used": float(gp.jitter_used),
        "training": {
            "X": [[float(v) for v in row] for row in ts.X],
            "y": [float(v) for v in ts.y],
            "box": _box_to_dict(ts.box) if ts.box is not None else None,
        },
    }


def model_from_dict(d: dict) -> FittedGP:
    try:
        tr = d["training"]
        X = np.array(tr["X"], dtype=float)
        y = np.array(tr["y"], dtype=float)
        box = _box_from_dict(tr["box"]) if tr.get("box") else None
        kernel = kernel_from_dict(d["kernel"])
        jitter = float(d["jitter_used"])
    except (KeyError, TypeError) as e:
        raise ConfigError(f"bad model config: {e}") from e
    return fit(kernel, TrainingSet(X, y, box=box), fixed_jitter=jitter)


def mlresult_to_dict(res: MLResult) -> dict:
    return {
        "kernel": kernel_to_dict(res.kernel),
        "loglik": float(res.loglik),
        "converged": bool(res.converged),
        "at_boundary": list(res.at_boundary),
        "n_evals": int(res.n_evals),
        "seed": int(res.seed),
        "jitter": float(res.jitter),
        "values": {k: float(v) for k, v in res.values.items()},
        "restarts": [
            {"index": r.index, "loglik": float(r.loglik),
             "converged": bool(r.converged), "n_evals": int(r.n_evals),
             "values": [float(v) for v in r.values]}
            for r in res.restarts
        ],
    }


def save_yaml(data: dict, path) -> None:
    with open(path, "w") as fh:
        yaml.safe_dump(data, fh, sort_keys=False)


def load_yaml(path) -> dict:
    with open(path) as fh:
        try:
            data = yaml.safe_load(fh)
        except yaml.YAMLError as e:
            raise ConfigError(f"{path}: not valid YAML: {e}") from e
    if not isinstance(data, dict):
        raise ConfigError(f"{path}: expected a mapping at top level")
    return data


def save_kernel(k: Kernel, path) -> None:
    save_yaml(kernel_to_dict(k), path)


def load_kernel(path) -> Kernel:
    return kernel_from_dict(load_yaml(path))


def save_model(gp: FittedGP, path) -> None:
    save_yaml(model_to_dict(gp), path)


def load_model(path) -> FittedGP:
    return model_from_dict(load_yaml(path))


# -- benchmark run configs ---------------------------------------------------


def _tf_from_entry(entry: dict) -> TestFunction:
    if not isinstance(entry, dict) or "kind" not in entry:
        raise ConfigError(f"function entry must be a mapping with kind: "
                          f"{entry!r}")
    kind = entry["kind"]
    if kind == "StepFn":
        d = int(entry.get("d", 2))
        if not 1 <= d <= 10:
            raise ConfigError(f"d must be in 1..10, got {d}")
        domain = (_box_from_dict(entry["domain"])
                  if "domain" in entry else None)
        return step_function(d, domain)
    if kind == "NonstatFn":
        return nonstationary_function()
    raise ConfigError(
        f"config files support StepFn and NonstatFn, got {kind!r}")


def _methods_from_entry(labels) -> tuple[MethodSpec, ...]:
    available = {m.label: m for m in default_methods()}
    if labels is None:
        return tuple(available.values())
    out = []
    for label in labels:
        if label not in available:
            raise ConfigError(
                f"unknown method {label!r}; choose from "
                f"{sorted(available)}")
        out.append(available[label])
    return tuple(out)


class RunConfig:
    """Validated benchmark run settings loaded from a YAML mapping."""

    def __init__(self, data: dict):
        if not isinstance(data, dict):
            raise ConfigError("run config must be a mapping")
        known = {"functions", "methods", "replicates", "n_train", "n_t",
                 "master_seed", "n_restarts", "jobs", "out_dir",
                 "results", "summary"}
        unknown = set(data) - known
        if unknown:
            raise ConfigError(f"unknown config keys: {sorted(unknown)}")
        fns = data.get("functions")
        if not fns:
            raise ConfigError("config needs at least one entry in functions")
        self.functions = tuple(_tf_from_entry(e) for e in fns)
        self.methods = _methods_from_entry(data.get("methods"))
        self.replicates = int(data.get("replicates", 20))
        if self.replicates < 1:
            raise ConfigError("replicates must be >= 1")
        self.n_train = (int(data["n_train"])
                        if data.get("n_train") is not None else None)
        if self.n_train is not None and self.n_train < 2:
            raise ConfigError("n_train must be >= 2")
        self.n_t = int(data.get("n_t", 1000))
        if self.n_t < 1:
            raise ConfigError("n_t must be >= 1")
        self.master_seed = int(data.get("master_seed", 0))
        self.n_restarts = int(data.get("n_restarts", 10))
        if self.n_restarts < 1:
            raise ConfigError("n_restarts must be >= 1")
        # 0 means "use all available cores", resolved at run time
        self.jobs = int(data.get("jobs", 0))
        if self.jobs < 0:
            raise ConfigError("jobs must be >= 0")
        self.out_dir = str(data.get("out_dir", "."))
        self.results = str(data.get("results", "results.csv"))
        self.summary = str(data.get("summary", "summary.csv"))


def load_run_config(path) -> RunConfig:
    return RunConfig(load_yaml(path))
