"""In-memory span recording around stepgp's public entry points.

A :class:`Tracer` replaces a fixed set of module functions and methods with
wrappers that record one span per call: name, start, end and parent.  The
parent comes from a per-thread stack; a worker thread whose stack is empty
takes the innermost open span of the thread that installed the tracer, so
the cells that ``run_experiment`` fans out to its thread pool nest under the
sweep's own span.  Spans stay in memory until :meth:`Tracer.dump` writes
them out.  ``uninstall`` restores every original, and an untraced run never
installs anything.
"""

from __future__ import annotations

import functools
import itertools
import json
import logging
import math
import threading
import time
from collections import defaultdict

import stepgp.benchmark
import stepgp.config
import stepgp.design
import stepgp.gp
import stepgp.mle
from stepgp.kernels.base import Kernel


class Span:
    __slots__ = ("id", "name", "parent", "start", "end", "error", "info")

    def __init__(self, sid, name, parent):
        self.id = sid
        self.name = name
        self.parent = parent
        self.start = self.end = 0.0
        self.error = None
        self.info = None

    @property
    def duration(self) -> float:
        return self.end - self.start


def _mle_info(res):
    return {"restarts": len(res.restarts),
            "converged": sum(r.converged for r in res.restarts),
            "evals": res.n_evals,
            "at_boundary": len(res.at_boundary)}


def _loglik_info(value):
    return None if math.isfinite(value) else {"nonfinite": True}


class LogCounter(logging.Handler):
    """Counts the numerical-policy records that ``stepgp.gp`` logs: jitter
    escalations (debug level) and clamped predictive variances."""

    MESSAGES = {"Cholesky needed jitter": "jitter_escalations",
                "clamped negative predictive variance": "variance_clamps"}

    def __init__(self):
        super().__init__(logging.DEBUG)
        self.counts = dict.fromkeys(self.MESSAGES.values(), 0)

    def emit(self, record):
        for prefix, key in self.MESSAGES.items():
            if str(record.msg).startswith(prefix):
                self.counts[key] += 1


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self.logs = LogCounter()
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._home = None
        self._patches = []
        self._logger = logging.getLogger("stepgp.gp")
        self._old_level = None

    def _stack(self):
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _wrap(self, name, fn, info=None):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = tracer._stack()
            if stack:
                parent = stack[-1]
            else:
                home = tracer._home
                parent = home[-1] if home and home is not stack else None
            label = name(args) if callable(name) else name
            span = Span(next(tracer._ids), label, parent)
            stack.append(span.id)
            span.start = time.perf_counter()
            try:
                out = fn(*args, **kwargs)
            except BaseException as e:
                span.error = type(e).__name__
                raise
            finally:
                span.end = time.perf_counter()
                stack.pop()
                tracer.spans.append(span)
            if info is not None:
                span.info = info(out)
            return out

        return wrapper

    def _patch(self, owners, attr, name, info=None):
        original = getattr(owners[0], attr)
        wrapper = self._wrap(name, original, info)
        for owner in owners:
            self._patches.append((owner, attr, getattr(owner, attr)))
            setattr(owner, attr, wrapper)

    def install(self):
        """Wrap every traced entry point, under each name its callers use."""
        if self._patches:
            raise RuntimeError("tracer already installed")
        self._home = self._stack()
        sb, sc, sd, sg, sm = (stepgp.benchmark, stepgp.config, stepgp.design,
                              stepgp.gp, stepgp.mle)
        self._patch([sb], "run_experiment", "benchmark.run_experiment")
        self._patch([sb, sm], "maximize_likelihood",
                    "mle.maximize_likelihood", _mle_info)
        self._patch([sm], "log_likelihood", "mle.log_likelihood",
                    _loglik_info)
        self._patch([sg, sb, sc], "fit", "gp.fit")
        self._patch([sd, sb], "maximin_lhs", "design.maximin_lhs")
        self._patch([sg.TrainingSet], "__post_init__", "gp.TrainingSet")
        self._patch([Kernel], "gram",
                    lambda args: "kernels.gram." + type(args[0]).__name__)
        self._patch([Kernel], "cross", "kernels.cross")
        self._patch([sg.FittedGP], "predict", "gp.predict")
        self._patch([sg.FittedGP], "predict_batch", "gp.predict_batch")
        self._patch([sc], "save_model", "config.save_model")
        self._patch([sc], "load_model", "config.load_model")
        self._old_level = self._logger.level
        self._logger.setLevel(logging.DEBUG)
        self._logger.addHandler(self.logs)

    def uninstall(self):
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()
        self._logger.removeHandler(self.logs)
        if self._old_level is not None:
            self._logger.setLevel(self._old_level)

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()

    # -- analysis ------------------------------------------------------------

    def self_times(self) -> dict[int, float]:
        """Span id -> duration minus the part of its interval that its
        children cover (children of one parent may overlap in time when
        they ran on different threads)."""
        children = defaultdict(list)
        for s in self.spans:
            if s.parent is not None:
                children[s.parent].append((s.start, s.end))
        out = {}
        for s in self.spans:
            covered = 0.0
            cur_lo = cur_hi = None
            for lo, hi in sorted(children.get(s.id, ())):
                lo, hi = max(lo, s.start), min(hi, s.end)
                if hi <= lo:
                    continue
                if cur_hi is None or lo > cur_hi:
                    if cur_hi is not None:
                        covered += cur_hi - cur_lo
                    cur_lo, cur_hi = lo, hi
                else:
                    cur_hi = max(cur_hi, hi)
            if cur_hi is not None:
                covered += cur_hi - cur_lo
            out[s.id] = s.duration - covered
        return out

    def self_time_table(self) -> list[dict]:
        """Per span name: calls, total and self milliseconds, sorted by
        self time."""
        selfs = self.self_times()
        rows = defaultdict(lambda: {"calls": 0, "total_ms": 0.0,
                                    "self_ms": 0.0})
        for s in self.spans:
            r = rows[s.name]
            r["calls"] += 1
            r["total_ms"] += 1e3 * s.duration
            r["self_ms"] += 1e3 * selfs[s.id]
        table = [{"name": k, **v} for k, v in rows.items()]
        table.sort(key=lambda r: -r["self_ms"])
        return table

    def dump(self, path) -> None:
        """One JSON object per span, times in seconds from the first span."""
        t0 = min((s.start for s in self.spans), default=0.0)
        with open(path, "w") as fh:
            for s in sorted(self.spans, key=lambda s: s.start):
                rec = {"id": s.id, "name": s.name, "parent": s.parent,
                       "start": round(s.start - t0, 9),
                       "end": round(s.end - t0, 9)}
                if s.error:
                    rec["error"] = s.error
                if s.info:
                    rec["info"] = s.info
                fh.write(json.dumps(rec) + "\n")
