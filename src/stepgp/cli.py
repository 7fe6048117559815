"""Command-line front end: design generation, fit/predict, benchmark sweep.

Exit codes: 0 success, 1 runtime/IO failure, 2 usage or config error.
Every output file starts with ``# key=value`` metadata lines (tool
version, master seed, config hash) and no timestamps, so a rerun with
identical inputs produces byte-identical files.  The output directory can
be overridden with the STEPGP_OUT_DIR environment variable.
"""

from __future__ import annotations

import argparse
import hashlib
import logging
import os
import sys

import numpy as np

from . import __version__
from .benchmark import (
    result_row,
    run_experiment,
    summarize,
    sweep_start_method,
    write_summary_csv,
    RESULT_COLUMNS,
)
from .config import (
    RunConfig,
    load_kernel,
    load_yaml,
    mlresult_to_dict,
    model_to_dict,
    save_yaml,
)
from .design import (
    DesignSpec,
    _read_csv,
    maximin_lhs,
    read_points_csv,
    write_design_csv,
)
from .domain import Box
from .errors import (
    ConfigError,
    DataError,
    DimensionError,
    ParameterError,
    StepGPError,
)
from .gp import TrainingSet, fit
from .mle import maximize_likelihood

log = logging.getLogger(__name__)


def _hash_bytes(*chunks: bytes) -> str:
    h = hashlib.sha256()
    for c in chunks:
        h.update(c)
    return h.hexdigest()[:12]


def _meta(master_seed, config_hash) -> dict:
    return {"tool": f"stepgp-{__version__}", "master_seed": master_seed,
            "config_hash": config_hash}


def _usable_cpus() -> int:
    """CPUs this process may run on: its affinity mask where the
    platform has one, else the machine's count."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _parse_domain(text: str) -> tuple[float, float]:
    parts = text.split(",")
    if len(parts) != 2:
        raise ConfigError(f"domain must be 'lo,hi', got {text!r}")
    try:
        lo, hi = float(parts[0]), float(parts[1])
    except ValueError as e:
        raise ConfigError(f"domain must be numeric 'lo,hi', got {text!r}") from e
    if not lo < hi:
        raise ConfigError(f"domain needs lo < hi, got {text!r}")
    return lo, hi


def cmd_design(args) -> int:
    lo, hi = _parse_domain(args.domain)
    spec = DesignSpec(n=args.n, d=args.d, domain=Box.cube(lo, hi, args.d),
                      seed=args.seed, optimize_iters=args.iters)
    design = maximin_lhs(spec)
    cfg_hash = _hash_bytes(
        f"design n={args.n} d={args.d} domain={lo},{hi} "
        f"seed={args.seed} iters={args.iters}".encode())
    write_design_csv(design, args.out, meta=_meta(args.seed, cfg_hash))
    print(f"min_dist={design.min_dist!r}")
    print(f"wrote {args.out}")
    return 0


def _read_training_csv(path) -> tuple[np.ndarray, np.ndarray]:
    """Training CSV: header ``x1,..,xd,y``, one row per observation."""
    header, data = _read_csv(path)
    d = len(header) - 1
    if d < 1 or header[-1] != "y" or \
            header[:-1] != [f"x{j + 1}" for j in range(d)]:
        raise DataError(
            f"{path}: expected header x1,..,xd,y, got {','.join(header)}")
    return data[:, :d], data[:, d]


def cmd_fit(args) -> int:
    # read and validate every input before writing anything, so a bad
    # input never leaves partial output behind
    with open(args.train, "rb") as fh:
        train_bytes = fh.read()
    with open(args.kernel, "rb") as fh:
        kernel_bytes = fh.read()
    with open(args.test, "rb") as fh:
        test_bytes = fh.read()
    X, y = _read_training_csv(args.train)
    kernel = load_kernel(args.kernel)
    Xtest = read_points_csv(args.test)
    if Xtest.shape[1] != X.shape[1]:
        raise DataError(
            f"test points have dimension {Xtest.shape[1]} but training "
            f"data has {X.shape[1]}")
    training = TrainingSet(X, y)

    res = maximize_likelihood(kernel, training, n_restarts=args.restarts,
                              seed=args.seed)
    gp = fit(res.kernel, training)
    means, variances = gp.predict_batch(Xtest)

    cfg_hash = _hash_bytes(train_bytes, kernel_bytes, test_bytes,
                           f"seed={args.seed} restarts={args.restarts}"
                           .encode())
    meta = _meta(args.seed, cfg_hash)
    lines = [f"# {k}={v}" for k, v in meta.items()]
    lines.append("mean,variance")
    for m, v in zip(means, variances):
        lines.append(f"{float(m)!r},{float(v)!r}")
    with open(args.pred_out, "w") as fh:
        fh.write("\n".join(lines) + "\n")

    model = model_to_dict(gp)
    model["fit"] = mlresult_to_dict(res)
    save_yaml(model, args.model_out)

    print(f"loglik={res.loglik!r}")
    for name in res.at_boundary:
        print(f"warning: parameter {name} sits at a search bound")
    if not res.converged:
        print("warning: no restart converged; best non-converged value used")
    print(f"wrote {args.pred_out} and {args.model_out}")
    return 0


def cmd_benchmark(args) -> int:
    with open(args.config, "rb") as fh:
        cfg_bytes = fh.read()
    data = load_yaml(args.config)
    for key, flag in (("replicates", args.replicates),
                      ("master_seed", args.seed), ("jobs", args.jobs)):
        if flag is not None:
            data[key] = flag
    cfg = RunConfig(data)
    out_dir = os.environ.get("STEPGP_OUT_DIR") or args.out_dir or cfg.out_dir
    jobs = cfg.jobs if cfg.jobs > 0 else _usable_cpus()
    n_cells = len(cfg.functions) * cfg.replicates * len(cfg.methods)

    os.makedirs(out_dir, exist_ok=True)
    results_path = os.path.join(out_dir, cfg.results)
    summary_path = os.path.join(out_dir, cfg.summary)
    # how the wall_ms column was produced; the other numbers do not
    # depend on it
    meta = dict(_meta(cfg.master_seed, _hash_bytes(cfg_bytes)), jobs=jobs,
                start_method=sweep_start_method(jobs, n_cells))

    results_fh = open(results_path, "w")
    try:
        for k, v in meta.items():
            results_fh.write(f"# {k}={v}\n")
        results_fh.write(",".join(RESULT_COLUMNS) + "\n")
        results_fh.flush()

        def on_result(res):
            # one write + flush per row: a killed run leaves a readable
            # prefix of the full table
            results_fh.write(result_row(res) + "\n")
            results_fh.flush()

        results = run_experiment(
            cfg.functions, cfg.methods, replicates=cfg.replicates,
            n_train=cfg.n_train, n_t=cfg.n_t, master_seed=cfg.master_seed,
            n_restarts=cfg.n_restarts, jobs=jobs, on_result=on_result)
    finally:
        results_fh.close()

    summaries = summarize(results)
    write_summary_csv(summaries, summary_path, meta=meta)

    print(f"{'method':<16}{'median_rmse':>14}{'failures':>10}")
    for s in summaries:
        print(f"{s.method:<16}{s.median:>14.6g}{s.failures:>10d}")
    print(f"wrote {results_path} and {summary_path}")
    n_failed = sum(1 for r in results if not r.ok)
    if n_failed:
        print(f"note: {n_failed} of {len(results)} cells failed "
              f"(see status column)")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="stepgp",
        description="Gaussian-process emulation of functions with step "
                    "discontinuities: designs, fits, benchmarks.")
    parser.add_argument("--version", action="version",
                        version=f"stepgp {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("design", help="generate a maximin LHS design CSV")
    p.add_argument("--n", type=int, required=True, help="number of points")
    p.add_argument("--d", type=int, required=True, help="dimension")
    p.add_argument("--domain", default="0,1",
                   help="per-axis interval 'lo,hi' (default 0,1)")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--iters", type=int, default=100,
                   help="annealing temperature steps")
    p.add_argument("--out", required=True, help="output CSV path")
    p.set_defaults(func=cmd_design)

    p = sub.add_parser("fit", help="ML-fit a kernel and predict")
    p.add_argument("--train", required=True,
                   help="training CSV with header x1,..,xd,y")
    p.add_argument("--kernel", required=True, help="kernel YAML config")
    p.add_argument("--test", required=True,
                   help="test points CSV with header x1,..,xd")
    p.add_argument("--pred-out", required=True,
                   help="predictions CSV (mean,variance)")
    p.add_argument("--model-out", required=True,
                   help="fitted model YAML")
    p.add_argument("--restarts", type=int, default=10)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=cmd_fit)

    p = sub.add_parser("benchmark", help="run the replicated RMSE sweep")
    p.add_argument("--config", required=True, help="run config YAML")
    p.add_argument("--replicates", type=int, default=None,
                   help="override config replicates")
    p.add_argument("--seed", type=int, default=None,
                   help="override config master_seed")
    p.add_argument("--jobs", type=int, default=None,
                   help="worker processes to fork for the cells "
                        "(0 = one per usable CPU)")
    p.add_argument("--out-dir", default=None,
                   help="output directory (env STEPGP_OUT_DIR wins)")
    p.set_defaults(func=cmd_benchmark)
    return parser


def _fuse_domain_flag(argv: list[str]) -> list[str]:
    """Rewrite ['--domain', '-2,2'] as ['--domain=-2,2']; argparse would
    otherwise read the negative lower bound as an option."""
    out, i = [], 0
    while i < len(argv):
        nxt = argv[i + 1] if i + 1 < len(argv) else ""
        if argv[i] == "--domain" and nxt[:1] == "-" and nxt[1:2].isdigit():
            out.append(f"--domain={nxt}")
            i += 2
        else:
            out.append(argv[i])
            i += 1
    return out


def main(argv=None) -> int:
    logging.basicConfig(level=logging.WARNING,
                        format="%(levelname)s %(name)s: %(message)s")
    parser = build_parser()
    argv = list(sys.argv[1:]) if argv is None else list(argv)
    args = parser.parse_args(_fuse_domain_flag(argv))
    try:
        return args.func(args)
    except (ConfigError, DataError, DimensionError, ParameterError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    except StepGPError as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    except OSError as e:
        print(f"error: {e}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
