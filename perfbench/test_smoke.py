"""Schema smoke test of the benchmark itself.

Runs every workload at a tiny size, untraced and traced, and checks that
each metric named in BENCHMARK.json appears with its unit and a finite
value.  It gates the schema, never speed or accuracy.

    python3 -m pytest perfbench/test_smoke.py
"""

import json
import math
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import harness  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())

TINY = {
    "sweep-step2d": harness.SweepWorkload(
        "sweep-step2d", functions=("step2d",), n_train=6, jobs=1, n_t=50,
        n_restarts=1, methods=("SquarExp", "Mat32", "NeurNet")),
    "sweep-1d": harness.SweepWorkload(
        "sweep-1d", functions=("step1d", "nonstat1d"), n_train=5, jobs=2,
        n_t=50, n_restarts=1, methods=("SquarExp", "GibbsArctan")),
    "emulate-query": harness.EmulateWorkload(
        "emulate-query", n_small=8, n_large=30, d_large=3, singles=5,
        batches=1, batch_size=20),
}


def test_spec_matches_harness():
    assert [w["name"] for w in SPEC["workloads"]] == list(harness.WORKLOADS)
    assert set(TINY) == set(harness.WORKLOADS)
    for section, table in (("end_to_end", harness.END_TO_END),
                           ("per_layer", harness.PER_LAYER)):
        assert {m["name"]: (m["unit"], m["better"])
                for m in SPEC[section]} == table
    assert any(m["name"] == "setup_s" and m["unit"] == "s"
               for m in SPEC["end_to_end"])


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("name", sorted(TINY))
def test_tiny_run_reports_every_metric(name, trace, tmp_path):
    record = harness.run(TINY[name], seed=3, seconds=0.01,
                         trace=bool(trace), out_dir=tmp_path)
    line = json.loads(harness.result_line(record))
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    assert isinstance(line["correct"], bool)
    assert isinstance(line["attempted"], int) and line["attempted"] >= 1
    assert isinstance(line["failed"], int) and line["failed"] >= 0
    want = SPEC["per_layer" if trace else "end_to_end"]
    assert set(line["metrics"]) == {m["name"] for m in want}
    for m in want:
        got = line["metrics"][m["name"]]
        assert got["unit"] == m["unit"]
        assert isinstance(got["value"], (int, float))
        assert math.isfinite(got["value"])
    stem = f"{name}-seed3-trace{trace}"
    assert (tmp_path / f"{stem}.json").is_file()
    if trace:
        assert (tmp_path / f"{stem}-spans.jsonl").stat().st_size > 0
        assert (tmp_path / f"{stem}-selftime.txt").is_file()
    assert harness.report(record)
