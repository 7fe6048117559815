"""Collect run records from perfbench/out/ into perfbench/baseline.json.

    python3 perfbench/baseline.py --seeds 101-110 --trace-seeds 101

For every workload in BENCHMARK.json it reads the untraced records of the
given seeds and the traced records of the trace seeds, and writes the
median, quartiles and spread (quartile distance over median) of every
end-to-end metric, the medians of the detail timings, the per-method
median RMSE, and the per-layer values of each traced run.  Later changes
diff their own runs against this file.
"""

import argparse
import json
import statistics
from pathlib import Path

HERE = Path(__file__).resolve().parent
SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text())


def seed_list(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def summary(values) -> dict:
    med = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 \
        else (med, med, med)
    return {"median": med, "q1": q1, "q3": q3, "n": len(values),
            "spread": (q3 - q1) / med if med else 0.0}


def load(workload, seed, trace):
    path = HERE / "out" / f"{workload}-seed{seed}-trace{trace}.json"
    return json.loads(path.read_text())


def collect(workload, seeds, trace_seeds) -> dict:
    runs = [load(workload, s, 0) for s in seeds]
    out = {"seeds": seeds,
           "correct": all(r["correct"] for r in runs),
           "failed": sum(r["failed"] for r in runs),
           "attempted": sum(r["attempted"] for r in runs),
           "end_to_end": {}, "detail": {}, "rmse_by_method": {},
           "per_layer": {}}
    for m in SPEC["end_to_end"]:
        out["end_to_end"][m["name"]] = {
            "unit": m["unit"],
            **summary([r["metrics"][m["name"]]["value"] for r in runs])}
    for name, first in runs[0]["detail"].items():
        for key in first:
            if ((key.startswith("p") or key == "value")
                    and isinstance(first[key], (int, float))):
                out["detail"][f"{name}.{key}"] = summary(
                    [r["detail"][name][key] for r in runs])
    for method in runs[0]["rmse"]:
        out["rmse_by_method"][method] = statistics.median(
            r["rmse"][method] for r in runs)
    for s in trace_seeds:
        rec = load(workload, s, 1)
        out["per_layer"][str(s)] = {
            "correct": rec["correct"],
            **{k: v["value"] for k, v in rec["metrics"].items()}}
    return out


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--seeds", required=True, help="first-last")
    parser.add_argument("--trace-seeds", required=True, help="first-last")
    args = parser.parse_args()
    seeds, trace_seeds = seed_list(args.seeds), seed_list(args.trace_seeds)
    first = load(SPEC["workloads"][0]["name"], seeds[0], 0)
    doc = {"facts": first["facts"], "run_seconds": SPEC["run_seconds"],
           "workloads": {w["name"]: collect(w["name"], seeds, trace_seeds)
                         for w in SPEC["workloads"]}}
    (HERE / "baseline.json").write_text(json.dumps(doc, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
