"""Print a digest of the kernel tree operations for every kind in
``_instances.KIND_BUILDERS``, so two versions of the package can be
compared line for line.

For each kind, at a seed fixed by the kind's name, it prints:

- ``default_bounds(k, box, y)`` as ``dataclasses.astuple`` lists;
- ``params`` after ``with_values`` at new values drawn inside the default
  search boxes;
- a SHA-256 digest of the Gram matrix before and after that update;
- SHA-256 digests of ``log_likelihood`` and ``estimate_mu``, and of every
  ``fit`` field (``L``, ``alpha``, ``Kinv_one``, ``one_Kinv_one``,
  ``mu_hat``, ``jitter_used``), before and after that update, so the whole
  objective is compared and not only the Gram matrices.

With ``--write DIR`` it also saves every serializable kernel to
``DIR/<kind>.yaml``; with ``--read DIR`` it instead loads those files and
prints, per kind, whether the loaded kernel has the same ``params`` and a
bitwise-equal Gram matrix as the one built here.

Run from the repository root with the package under test first on the
path, for example ``PYTHONPATH=src python3 tests/kernel_digest.py``.
"""

import argparse
import dataclasses
import hashlib
import os
import zlib

import numpy as np

import stepgp as sg
from stepgp.config import load_kernel, save_kernel

from _instances import KIND_BUILDERS, random_points


def _build(kind):
    rng = np.random.default_rng(zlib.crc32(kind.encode()))
    k, box = KIND_BUILDERS[kind](rng)
    X = random_points(rng, box, 12)
    y = rng.normal(size=12)
    return rng, k, box, X, y


def _sha(*arrays):
    h = hashlib.sha256()
    for a in arrays:
        h.update(np.asarray(a, dtype=float).tobytes())
    return h.hexdigest()[:16]


def _digest(k, X):
    return _sha(k.gram(X))


def _objective_digests(k, ts):
    """Digests of the likelihood, the GLS mean and the fitted model, or
    the name of the error each one raises."""
    out = []
    for label, compute in (
            ("loglik", lambda: [sg.log_likelihood(k, ts)]),
            ("mu", lambda: [sg.estimate_mu(k, ts)]),
            ("fit", lambda: _fit_fields(sg.fit(k, ts)))):
        try:
            out.append(f"{label}={_sha(*compute())}")
        except sg.StepGPError as e:
            out.append(f"{label}={type(e).__name__}")
    return " ".join(out)


def _fit_fields(gp):
    return [gp.L, gp.alpha, gp.Kinv_one, gp.one_Kinv_one, gp.mu_hat,
            gp.jitter_used]


def _astuples(params):
    return [dataclasses.astuple(p) for p in params]


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--write", metavar="DIR")
    parser.add_argument("--read", metavar="DIR")
    args = parser.parse_args()
    for kind in sorted(KIND_BUILDERS):
        rng, k, box, X, y = _build(kind)
        path = os.path.join(args.read or args.write or ".", kind + ".yaml")
        if args.read:
            if os.path.exists(path):
                k2 = load_kernel(path)
                same = (_astuples(k2.params) == _astuples(k.params)
                        and np.array_equal(k2.gram(X), k.gram(X)))
                print(kind, "same" if same else "DIFFERENT")
            continue
        bounds = sg.default_bounds(k, box, y)
        print(kind, "bounds", _astuples(bounds))
        u = rng.random(len(bounds))
        values = [b.from_optim(lo + t * (hi - lo)) for b, t, lo, hi in zip(
            bounds, u, [b.to_optim(b.lower) for b in bounds],
            [b.to_optim(b.upper) for b in bounds])]
        k_new = k.with_values(values)
        print(kind, "with_values", _astuples(k_new.params))
        print(kind, "gram", _digest(k, X), _digest(k_new, X))
        ts = sg.TrainingSet(X, y, box=box)
        print(kind, "objective", _objective_digests(k, ts), "|",
              _objective_digests(k_new, ts))
        if args.write and kind != "OuterFn":
            save_kernel(k, path)


if __name__ == "__main__":
    main()
