"""Self-test of the benchmark harness at a tiny size; no timing is gated.

    python3 -m pytest bench/test_harness.py -q

Checks that every workload emits every declared end-to-end and per-layer
metric with no failed operation, that the traced call counts match the work
the pipeline did (so the wrappers catch every call), and that the benchmark
refuses to run without the sources.
"""

from __future__ import annotations

import argparse
import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parent
sys.path[:0] = [str(BENCH_DIR), str(BENCH_DIR.parent / "src")]

import run  # noqa: E402

DECLARED = json.loads((BENCH_DIR.parent / "BENCHMARK.json").read_text())
TINY = argparse.Namespace(seed=3, seconds=0.0, scale=0.5, trace=1)


@pytest.fixture(scope="module", params=run.WORKLOADS)
def result(request):
    return run.measure(request.param, TINY)


def test_declared_metrics_match_the_harness():
    assert [w["name"] for w in DECLARED["workloads"]] == list(run.WORKLOADS)
    assert [m["name"] for m in DECLARED["end_to_end"]] == list(run.END_TO_END)
    assert {m["name"]: m["unit"] for m in DECLARED["end_to_end"]} == run.END_TO_END
    for m in DECLARED["per_layer"]:
        assert m["unit"] == run.unit_of_layer(m["name"]), m["name"]


def test_every_metric_emitted_without_errors(result):
    assert result["errors"] == []
    assert result["failed"] == 0 and result["attempted"] > 0  # error_rate == 0
    assert result["correct"]
    for name in run.END_TO_END:
        value = result["metrics"][name]
        assert math.isfinite(value) and value > 0, name
    for m in DECLARED["per_layer"]:
        assert math.isfinite(result["layers"][m["name"]]), m["name"]


def test_traced_counts_match_the_work_done(result):
    from workloads import BATCH_SIZE, CHECK_HEADLINES, EPOCHS

    q, layers = result["quality"], result["layers"]
    trained = q["trained_samples"]
    assert layers["network.backward.calls"] == trained * EPOCHS
    assert layers["training.adam_step.calls"] == EPOCHS * math.ceil(trained / BATCH_SIZE)
    assert layers["network.forward.calls"] == (
        trained * EPOCHS + q["evaluated"] + q["predicted"] + min(CHECK_HEADLINES, q["predicted"]))
    assert layers["text.tokenize.calls"] == q["train_samples"] + q["test_samples"]
    assert layers["text.encode_and_pad.calls"] == q["train_samples"] + q["test_samples"]
    assert layers["backtest.simulate.calls"] == q["thresholds"] + len(
        [k for k in q if k.endswith(".pp_pct")])
    assert layers["backtest.bars_indexed"] == layers["backtest.simulate.calls"] * q["price_bars"]


def test_refuses_to_run_without_the_sources(tmp_path):
    shutil.copytree(BENCH_DIR, tmp_path / BENCH_DIR.name,
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(BENCH_DIR.parent / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, f"{BENCH_DIR.name}/run.py", "--workload", "small_corpus", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60, check=False)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
