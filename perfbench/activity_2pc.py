"""Workload ``activity_2pc``: the paper's 2PC signal set, in process.

One thread runs a closed loop against an ``ActivityManager`` with no ORB
and no disk: begin, register eight ``TwoPhaseParticipant`` actions,
register ``TwoPhaseCommitSignalSet`` as the completion set, complete
with SUCCESS.  The seed makes about one activity in twenty carry a
participant that votes no, so rollback runs beside commit.  After each
activity the client reads back the outcome of one of its last
:data:`RECENT` activities, drawn from the seed (the ``read_*`` metrics).

The manager keeps every completed activity, so a run is sized by
operation count: each manager serves a batch of :data:`BATCH` activities
and is then dropped, and the loop goes on with a fresh one until time is
up.  The end-to-end metrics come from the run's fastest windows of
:data:`WINDOW` activities (see ``measure.best_window_metrics``).
"""

from __future__ import annotations

import gc
import os
import random
import subprocess
import sys
import time
import tracemalloc
from typing import List, Optional, Tuple

from layers import per_layer_metrics
from measure import (
    RunResult,
    best_window_metrics,
    calibrate,
    median,
    metric,
    pooled_p99_ms,
    proc_status_kb,
    ratio,
)
from tracing import Tracer, reduce_spans

from repro.core import ActivityManager, CompletionStatus
from repro.models import TwoPhaseCommitSignalSet, TwoPhaseParticipant
from repro.models.twopc import SET_NAME

PARTICIPANTS = 8
NO_VOTE_ONE_IN = 20
BATCH = 1000
WINDOW = 100
WARMUP = 200
COUNT_ACTIVITIES = 400
# Spans stay in memory, about 75 per activity: bound the traced phase.
TRACE_ACTIVITIES = 2000
SETUP_STARTS = 7
# A client polls the outcomes of the work it just did.  Reads of any
# activity of the manager (up to 1,000 back, about 20 MB) varied more
# from run to run than the activities did: their latency was 0.76% to
# 1.01% of an activity's over ten runs, against 0.65% to 0.76% over five
# runs of recent reads.
RECENT = 16

NAMES = [f"p{index}" for index in range(PARTICIPANTS)]
COMMITTED = "committed"
ROLLED_BACK = "rolled_back"


def _vote_no() -> bool:
    return False


class Plan:
    """The seeded inputs: which participant votes no, which activity is read."""

    def __init__(self, seed: int) -> None:
        self._rng = random.Random(seed)

    def draw(self, index: int) -> tuple:
        rng = self._rng
        no_voter = rng.randrange(PARTICIPANTS) if rng.random() < 1 / NO_VOTE_ONE_IN else None
        return no_voter, rng.randrange(max(0, index + 1 - RECENT), index + 1)


class Batch:
    """One manager's activities: their latencies (s) and wall time.

    The wall time runs from before the manager is built, and so covers
    freeing the previous manager with everything it retained.
    """

    def __init__(self) -> None:
        self.txn: List[float] = []
        self.reads: List[float] = []
        # Clock at the start of every WINDOW activities and at the end.
        self.marks: List[float] = []
        self.seconds = 0.0
        self.full = False  # a run's last batch is cut short by its deadline


def drive(
    plan: Plan,
    result: RunResult,
    batches: Optional[List[Batch]],
    deadline: Optional[float] = None,
    limit: Optional[int] = None,
) -> ActivityManager:
    """Run activities until ``deadline`` or ``limit``; return the last manager.

    Each manager's activities make one :class:`Batch`, appended to
    ``batches`` when given.
    """
    clock = time.perf_counter
    done = 0
    while True:
        batch = Batch()
        began = clock()
        manager = ActivityManager()
        current = manager.current
        ids: List[str] = []
        expected: List[str] = []
        txn_samples = batch.txn
        read_samples = batch.reads
        if batches is not None:
            batches.append(batch)
        for index in range(BATCH):
            if (limit is not None and done >= limit) or (
                deadline is not None and clock() >= deadline
            ):
                batch.seconds = clock() - began
                return manager
            if index % WINDOW == 0:
                batch.marks.append(clock())
            done += 1
            no_voter, read_back = plan.draw(index)
            want = COMMITTED if no_voter is None else ROLLED_BACK
            result.attempted += 1
            try:
                start = clock()
                participants = [
                    TwoPhaseParticipant(name, on_prepare=_vote_no if p == no_voter else None)
                    for p, name in enumerate(NAMES)
                ]
                activity = current.begin("2pc")
                for participant in participants:
                    activity.add_action(SET_NAME, participant)
                activity.register_signal_set(TwoPhaseCommitSignalSet(), completion=True)
                outcome = current.complete(CompletionStatus.SUCCESS)
                end = clock()
            except Exception as exc:  # a failed operation, counted and reported
                result.fail(f"activity raised {type(exc).__name__}: {exc}")
                ids.append("")
                expected.append("")
                continue
            committed = [p.committed for p in participants]
            if outcome.name != want or any(committed) != (want == COMMITTED) or (
                want == COMMITTED and not all(committed)
            ):
                result.fail(f"activity {activity.activity_id}: {outcome.name}, wanted {want}")
            else:
                txn_samples.append(end - start)
            ids.append(activity.activity_id)
            expected.append(want)

            result.attempted += 1
            try:
                start = clock()
                seen = manager.get(ids[read_back]).get_outcome()
                end = clock()
            except Exception as exc:
                result.fail(f"read raised {type(exc).__name__}: {exc}")
                continue
            if seen is None or seen.name != expected[read_back]:
                result.fail(f"read of {ids[read_back]} saw {seen}, wanted {expected[read_back]}")
            else:
                read_samples.append(end - start)
        batch.marks.append(clock())
        batch.seconds = clock() - began
        batch.full = True


def cold_start_seconds() -> float:
    """Spawn-to-ready time of a fresh process importing the service."""
    probe = os.path.join(os.path.dirname(os.path.abspath(__file__)), "setup_probe.py")
    start = time.perf_counter()
    with subprocess.Popen(
        [sys.executable, probe], stdout=subprocess.PIPE, text=True
    ) as child:
        line = child.stdout.readline() if child.stdout else ""
        elapsed = time.perf_counter() - start
        child.wait(timeout=60)
    if line.strip() != "ready" or child.returncode != 0:
        raise RuntimeError(f"set-up probe failed ({child.returncode}): {line!r}")
    return elapsed


def _phase(
    plan: Plan, result: RunResult, seconds: float, limit: Optional[int] = None
) -> Tuple[List[Batch], float]:
    batches: List[Batch] = []
    start = time.perf_counter()
    drive(plan, result, batches, deadline=start + seconds, limit=limit)
    return batches, time.perf_counter() - start


def _epochs(batches: List[Batch]) -> list:
    """The run's full batches as ``measure.Epoch`` tuples."""
    return [(len(b.txn), b.seconds, b.txn, b.reads) for b in batches if b.full]


def _windows(batches: List[Batch]) -> list:
    """Every window of the full batches as a ``measure.Epoch`` tuple.

    Only a run with no failed operation is scored, and then each window
    holds exactly WINDOW activity and read latencies.
    """
    windows = []
    for batch in batches:
        if not batch.full:
            continue
        for k in range(len(batch.marks) - 1):
            low, high = k * WINDOW, (k + 1) * WINDOW
            seconds = batch.marks[k + 1] - batch.marks[k]
            windows.append((WINDOW, seconds, batch.txn[low:high], batch.reads[low:high]))
    return windows


def _completed(batches: List[Batch]) -> int:
    return sum(len(batch.txn) for batch in batches)


def _deterministic_counts(seed: int, result: RunResult) -> dict:
    """Retained memory, blocks and events for the first activities of the plan."""
    gc.collect()
    blocks_before = sys.getallocatedblocks()
    manager = drive(Plan(seed), result, None, limit=COUNT_ACTIVITIES)
    gc.collect()
    blocks = sys.getallocatedblocks() - blocks_before
    events = len(manager.event_log)
    del manager
    gc.collect()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        manager = drive(Plan(seed), result, None, limit=COUNT_ACTIVITIES)
        gc.collect()
        retained = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    del manager
    return {
        "core.retained_kb_per_activity": retained / 1024.0 / COUNT_ACTIVITIES,
        "core.alloc_blocks_per_op": blocks / COUNT_ACTIVITIES,
        "util.events.events_per_op": events / COUNT_ACTIVITIES,
    }


def run(seed: int, seconds: float, trace: bool) -> RunResult:
    result = RunResult()
    calib_s = result.diagnostics["bench.calib_s"] = calibrate()
    if not trace:
        setup_s = median([cold_start_seconds() for _ in range(SETUP_STARTS)])
    drive(Plan(seed + 1), result, None, limit=WARMUP)

    plan = Plan(seed)
    if not trace:
        batches, _elapsed = _phase(plan, result, seconds)
        result.metrics = {
            **best_window_metrics(_windows(batches)),
            "setup_s": metric(setup_s, "s"),
            "peak_rss_mb": metric(proc_status_kb(os.getpid(), "VmHWM") / 1024.0, "MB"),
        }
        return result

    # Before any phase sized by time: id counters that outlive a manager
    # then stand at the same values in every run, so the counts repeat.
    counters = _deterministic_counts(seed, result)
    batches, elapsed = _phase(plan, result, seconds / 2)
    untraced = _completed(batches) / elapsed
    counters.update(pooled_p99_ms(_epochs(batches)))
    tracer = Tracer()
    tracer.install()
    try:
        batches, elapsed = _phase(plan, result, seconds / 2, TRACE_ACTIVITIES)
    finally:
        tracer.uninstall()
    ops = _completed(batches)
    counters.update(
        {
            "bench.trace_overhead_ratio": ops / elapsed / untraced,
            "bench.calib_s": calib_s,
            "bench.failed_ratio": ratio(result.failed, result.attempted),
        }
    )
    result.metrics = per_layer_metrics(reduce_spans(tracer.spans), ops, ops, counters)
    return result
