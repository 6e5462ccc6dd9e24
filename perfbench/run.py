"""The repository benchmark.

Run from the repository root::

    python3 perfbench/run.py --workload activity_2pc --seed 1 --seconds 50 --trace 0

Workloads: ``activity_2pc`` (in-process activity service, see
:mod:`activity_2pc`), ``site_rpc_mix`` and ``federated_replicated``
(site daemons over sockets, see :mod:`sites`).  ``BENCHMARK.json`` lists
``activity_2pc`` and ``federated_replicated``; ``site_rpc_mix`` runs by
name, for work on the ORB and OTS paths without fsync.  ``--trace 0``
measures the end-to-end metrics with nothing instrumented; ``--trace 1`` runs
half the time untraced and half traced and reports the per-layer
metrics of :mod:`layers`.  Every run checks the program's results; the
last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``, and the exit code is 1 when
any result was wrong.  Scratch files live under ``.perfbench_work/`` in
the repository root and are removed when the run ends.

End-to-end metrics (``--trace 0``):

- ``throughput_ops_s``: correct closed-loop operations per second
  (activities; reads and transfers; federated transfers);
- ``txn_p50_ms``: activity or transfer latency;
- ``read_p50_ms``: outcome read-back of a recent activity, or
  ``balance`` latency (from the due time when open-loop);
- ``setup_s``: median set-up time, from spawning fresh processes until
  they can serve (a cold interpreter importing the service and building
  an ``ActivityManager``; daemons booted and answering ``ping``);
- ``peak_rss_mb``: ``VmHWM`` of the benchmark process, or summed over
  the daemons after each epoch's fixed work (median over epochs).

``activity_2pc`` reports its fastest windows of 100 activities
(``measure.best_window_metrics``).  The site workloads split a run into
epochs of equal work on freshly booted daemons, which
``measure.epoch_metrics`` turns into the throughput and the medians.
The p99s are diagnostics of the traced run (``bench.txn_p99_ms``,
``bench.read_p99_ms``).
The failed share of operations is the result's ``failed``/``attempted``
and, in traced runs, ``bench.failed_ratio``; it is not an end-to-end
metric because it is 0 whenever the program is correct.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import sys
from typing import List, Optional

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORKLOADS = ("activity_2pc", "site_rpc_mix", "federated_replicated")


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description="Run one benchmark workload.")
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    if not os.path.isfile(os.path.join(SRC, "repro", "__init__.py")):
        print(f"perfbench: no library source under {SRC}", file=sys.stderr)
        return 2

    # Site daemons and set-up probes are child interpreters: they find the
    # library through the inherited PYTHONPATH.
    os.environ["PYTHONPATH"] = os.pathsep.join(
        filter(None, [SRC, os.environ.get("PYTHONPATH")])
    )
    sys.path.insert(0, SRC)

    if args.workload == "activity_2pc":
        import activity_2pc

        result = activity_2pc.run(args.seed, args.seconds, bool(args.trace))
    else:
        import sites

        workdir = os.path.join(ROOT, ".perfbench_work", f"{args.workload}-{os.getpid()}")
        os.makedirs(workdir)
        try:
            result = sites.run(args.workload, args.seed, args.seconds, bool(args.trace), workdir)
        finally:
            shutil.rmtree(workdir, ignore_errors=True)
            try:
                os.rmdir(os.path.dirname(workdir))
            except OSError:
                pass  # another run still uses it

    correct = result.failed == 0 and not result.errors
    result.diagnostics["bench.failed_ratio"] = result.failed / max(1, result.attempted)
    for error in result.errors:
        print(f"ERROR: {error}")
    for name, value in sorted(result.metrics.items()):
        print(f"{name:45s} {value['value']:14.6f} {value['unit']}")
    for name, number in sorted(result.diagnostics.items()):
        print(f"{name:45s} {number:14.6f} (diagnostic)")
    print(
        json.dumps(
            {
                "correct": correct,
                "attempted": result.attempted,
                "failed": result.failed,
                "metrics": result.metrics,
            }
        )
    )
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
