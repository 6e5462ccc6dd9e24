"""Measurement helpers owned by the benchmark.

Everything here is computed from raw samples or read from ``/proc`` and
the file system, never through the library under test, so a change to
the library's own statistics code cannot change how the benchmark
measures.
"""

from __future__ import annotations

import math
import os
import time
from typing import Dict, List, Sequence, Tuple

# Fixed pure-Python work, timed beside every run as a record of how fast
# the machine happened to be (a diagnostic; never used to normalise).
CALIBRATION_ITERATIONS = 5_000_000


def percentile(samples: Sequence[float], fraction: float) -> float:
    """Nearest-rank percentile of ``samples`` (``fraction`` in [0, 1])."""
    if not samples:
        raise ValueError("percentile of an empty sample set")
    ordered = sorted(samples)
    # The epsilon keeps 0.99 * 1000 (= 990.0000000000001) at rank 990.
    rank = math.ceil(fraction * len(ordered) - 1e-9)
    return ordered[min(len(ordered), max(1, rank)) - 1]


def median(samples: Sequence[float]) -> float:
    ordered = sorted(samples)
    mid = len(ordered) // 2
    if len(ordered) % 2:
        return ordered[mid]
    return (ordered[mid - 1] + ordered[mid]) / 2.0


def calibrate() -> float:
    """Seconds one fixed pure-Python loop takes right now."""
    start = time.perf_counter()
    total = 0
    for index in range(CALIBRATION_ITERATIONS):
        total += index & 7
    elapsed = time.perf_counter() - start
    if total != (CALIBRATION_ITERATIONS // 8) * 28:
        raise RuntimeError("calibration loop computed a wrong sum")
    return elapsed


def proc_status_kb(pid: int, field: str) -> int:
    """One ``kB`` field (``VmHWM``, ``VmRSS`` ...) of ``/proc/<pid>/status``."""
    with open(f"/proc/{pid}/status", "r", encoding="ascii") as handle:
        for line in handle:
            if line.startswith(field + ":"):
                return int(line.split()[1])
    raise RuntimeError(f"/proc/{pid}/status has no {field} line")


def tree_bytes(root: str) -> int:
    """Bytes held by regular files under ``root``."""
    total = 0
    for dirpath, _dirnames, filenames in os.walk(root):
        for name in filenames:
            try:
                total += os.stat(os.path.join(dirpath, name)).st_size
            except FileNotFoundError:
                pass
    return total


def ms(seconds: float) -> float:
    return seconds * 1000.0


def metric(value: float, unit: str) -> Dict[str, object]:
    return {"value": float(value), "unit": unit}


# One epoch of a run: (closed-loop operations, seconds, transaction
# latencies, read latencies), latencies in seconds.
Epoch = Tuple[int, float, List[float], List[float]]


def epoch_metrics(epochs: Sequence[Epoch]) -> Dict[str, Dict[str, object]]:
    """Throughput and typical latencies of a run of equal epochs.

    Throughput is all operations over all epoch time; ``txn_p50_ms`` and
    ``read_p50_ms`` are the mean over epochs of each epoch's median.  For
    the site workloads, whose time goes to sockets, fsync and other
    processes: their fastest windows moved from run to run as much as
    this mean did (federated transfers: 23% against 16% over three 30-s
    runs).  An epoch's median ignores the outliers inside it; the mean
    over epochs moves in proportion to the share of the run spent at
    each host speed, where a median over epochs or over the pooled
    samples jumps from one speed to the other as that share crosses a
    half.
    """
    metrics = {
        "throughput_ops_s": metric(
            sum(e[0] for e in epochs) / sum(e[1] for e in epochs), "ops/s"
        )
    }
    for prefix, index in (("txn", 2), ("read", 3)):
        medians = [percentile(epoch[index], 0.50) for epoch in epochs if epoch[index]]
        metrics[f"{prefix}_p50_ms"] = metric(ms(sum(medians) / len(medians)), "ms")
    return metrics


def best_window_metrics(windows: Sequence[Epoch]) -> Dict[str, Dict[str, object]]:
    """Throughput and median latencies of the fastest windows of a run.

    For CPU-bound work in one process.  The host's speed moves from one
    moment to the next (a fixed loop ran 1.8x slower at its 95th
    percentile than at its 5th over 40 s) and its share of slow time
    varies from run to run.  Over four 50-s runs of ``activity_2pc`` the
    mean over epochs of their medians spread by 7%, the fastest
    100-activity window's median by 2%: every run reaches the same floor
    at some moment, and a change to the code moves that floor.
    """
    return {
        "throughput_ops_s": metric(max(w[0] / w[1] for w in windows), "ops/s"),
        "txn_p50_ms": metric(ms(min(percentile(w[2], 0.50) for w in windows)), "ms"),
        "read_p50_ms": metric(ms(min(percentile(w[3], 0.50) for w in windows)), "ms"),
    }


def pooled_p99_ms(epochs: Sequence[Epoch]) -> Dict[str, float]:
    """``bench.txn_p99_ms`` and ``bench.read_p99_ms`` over a run's samples.

    Diagnostics of the traced run: on a shared host a p99 follows the
    host more than the program (the middle half of ten 30-second runs of
    one commit spread by up to three times the median), so no end-to-end
    metric is a tail.
    """
    tails = {}
    for prefix, index in (("txn", 2), ("read", 3)):
        samples = [x for epoch in epochs for x in epoch[index]]
        tails[f"bench.{prefix}_p99_ms"] = ms(percentile(samples, 0.99)) if samples else 0.0
    return tails


def ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


class RunResult:
    """Operations attempted and failed, and the metrics of one run."""

    MAX_ERRORS = 5

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.errors: List[str] = []
        self.metrics: Dict[str, Dict[str, object]] = {}
        # Printed beside the metrics, never part of the result object.
        self.diagnostics: Dict[str, float] = {}

    def fail(self, message: str) -> None:
        self.failed += 1
        if len(self.errors) < self.MAX_ERRORS:
            self.errors.append(message)

    def check(self, ok: bool, message: str) -> None:
        """Record a correctness check that is not an operation of its own."""
        if not ok:
            self.attempted += 1
            self.fail(message)
