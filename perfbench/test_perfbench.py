"""The benchmark's own tests: ``python -m pytest perfbench -q``.

Short runs of the real command.  ``activity_2pc`` must repeat its
deterministic counts exactly for one seed; the site workloads have
heartbeat timers, so for them the tests print the spread of two runs
instead of asserting equality.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

from layers import PER_LAYER  # noqa: E402
from measure import best_window_metrics, epoch_metrics, percentile  # noqa: E402
from tracing import reduce_spans  # noqa: E402

COUNTS = ("util.events.events_per_op", "core.retained_kb_per_activity", "core.alloc_blocks_per_op")


def run_bench(workload: str, seed: int, seconds: float, trace: int, cwd: str = ROOT):
    completed = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=300,
    )
    return completed


def result_of(completed) -> dict:
    assert completed.returncode == 0, completed.stdout[-2000:] + completed.stderr[-2000:]
    return json.loads(completed.stdout.strip().splitlines()[-1])


def benchmark_json() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        return json.load(handle)


def test_percentile_is_nearest_rank():
    samples = list(range(1, 1001))
    assert percentile(samples, 0.50) == 500
    assert percentile(samples, 0.99) == 990
    assert percentile([3.0], 0.99) == 3.0


def test_epoch_latency_is_the_mean_of_epoch_medians():
    epochs = [(2, 1.0, [0.001, 0.003, 0.002], [0.0001]), (2, 3.0, [0.004], [0.0003, 0.0005])]
    metrics = epoch_metrics(epochs)
    assert metrics["throughput_ops_s"]["value"] == pytest.approx(1.0)
    assert metrics["txn_p50_ms"]["value"] == pytest.approx(3.0)
    assert metrics["read_p50_ms"]["value"] == pytest.approx(0.2)


def test_best_window_is_the_fastest_window():
    windows = [(100, 0.05, [0.0004, 0.0003, 0.0005], [0.000003]), (100, 0.04, [0.0006], [0.000002])]
    metrics = best_window_metrics(windows)
    assert metrics["throughput_ops_s"]["value"] == pytest.approx(2500.0)
    assert metrics["txn_p50_ms"]["value"] == pytest.approx(0.4)
    assert metrics["read_p50_ms"]["value"] == pytest.approx(0.002)


def test_self_time_excludes_children():
    spans = [
        (1, 0, 1, "outer", 0.0, 10.0),
        (2, 1, 1, "inner", 1.0, 4.0),
        (3, 2, 1, "inner", 2.0, 3.0),
        (4, 1, 1, "leaf", 5.0, 6.0),
    ]
    totals = reduce_spans(spans)
    assert totals["outer"].self_s == pytest.approx(6.0)
    assert totals["inner"].self_s == pytest.approx(3.0)
    assert totals["inner"].calls == 1  # the nested same-name span is one call
    assert totals["leaf"].inclusive_s == pytest.approx(1.0)


def test_activity_counts_repeat_exactly():
    first = result_of(run_bench("activity_2pc", 7, 2, 1))
    second = result_of(run_bench("activity_2pc", 7, 2, 1))
    assert first["correct"] and second["correct"]
    for name in COUNTS:
        assert first["metrics"][name] == second["metrics"][name], name
    assert {name for name, _u, _b in PER_LAYER} == set(first["metrics"])
    assert [m["name"] for m in benchmark_json()["per_layer"]] == [n for n, _u, _b in PER_LAYER]


@pytest.mark.parametrize("workload", ["site_rpc_mix", "federated_replicated"])
def test_site_workloads_are_correct_and_report_spread(workload):
    runs = [result_of(run_bench(workload, 3, 3, 0)) for _ in range(2)]
    names = {m["name"] for m in benchmark_json()["end_to_end"]}
    for run in runs:
        assert run["correct"] and run["failed"] == 0
        assert set(run["metrics"]) == names
        assert all(m["value"] > 0 for m in run["metrics"].values())
    for name in sorted(names):
        a, b = (run["metrics"][name]["value"] for run in runs)
        print(f"{workload} {name}: {a:.4f} vs {b:.4f} ({abs(a - b) / max(a, b):.1%} apart)")


def test_refuses_to_run_without_the_library(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path / "BENCHMARK.json")
    completed = run_bench("activity_2pc", 1, 1, 0, cwd=str(tmp_path))
    assert completed.returncode != 0
    assert '"correct"' not in completed.stdout
