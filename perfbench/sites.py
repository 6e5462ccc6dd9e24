"""Workloads ``site_rpc_mix`` and ``federated_replicated``: site daemons.

Both boot real site daemons (``python -m repro.site``; the traced run
uses :mod:`site_launcher`) running the demo bank of
``repro.apps.site_apps`` and drive them over sockets from this process.
Every transfer moves :data:`AMOUNT`, a power of two, so balances are
exact and conservation is checked with ``==``.

``site_rpc_mix``: one daemon, memory cells, no data directory.  One
closed-loop client draws, per operation and from the seed, a 50/50
choice between an untransacted ``BankAccount.balance`` read and a local
``TransferDesk.transfer`` (OTS 2PC over two cells of the same site).

``federated_replicated``: two daemons with data directories and three
quorum-replicated media each.  A closed-loop writer makes federated
transfers ``site-a/acct-1 -> site-b/acct-2``; an open-loop reader reads
``site-b/acct-2`` at Poisson arrivals of :data:`READ_RATE` per second
from the seed, each read timed from when it was due.

A run is a series of epochs: boot fresh daemons (the boot is the set-up
time), warm up, do a fixed amount of work, audit the books, stop.
Epochs repeat until the measured work adds up to ``--seconds``.
"""

from __future__ import annotations

import json
import os
import random
import signal
import subprocess
import sys
import threading
import time
from typing import Any, Dict, List, Optional

from layers import MARSHAL_KEYS, TRANSPORT_KEYS, per_layer_metrics
from measure import (
    RunResult,
    calibrate,
    epoch_metrics,
    median,
    metric,
    percentile,
    pooled_p99_ms,
    proc_status_kb,
    ratio,
    tree_bytes,
)
from tracing import Tracer, merge, reduce_spans

from repro.orb.site import SiteClient, SiteConfig
from repro.testing import free_port

AMOUNT = 2.0 ** -10
OPENING = 100.0
DESK = "site-a.bank"
BANK = "site-b.bank"
READ_RATE = 200.0
# A daemon's memory grows with the work it has served and it slows down
# as it grows (one site_rpc_mix daemon fell from 2,400 to 870 ops/s and
# grew from 33 to 67 MB over 20 s), so a run is a series of epochs of
# fixed work, each on freshly booted daemons: every run sees the same
# growth, whatever the machine's speed.  A federated epoch of 200
# transfers keeps boots, warm-up and audits to about 10 s of a 50-s run.
RPC_EPOCH_OPS = 4000
FED_EPOCH_TRANSFERS = 200
WARMUP_OPS = 50
SETUP_BOOTS = 3
READY_TIMEOUT = 60.0
STOP_TIMEOUT = 60.0
EPOCH_TIMEOUT = 150.0

LAUNCHER = os.path.join(os.path.dirname(os.path.abspath(__file__)), "site_launcher.py")
DESK_APP = "repro.apps.site_apps:transfer_desk_site"
BANK_APP = "repro.apps.site_apps:bank_site"


class Cluster:
    """Site daemons as child processes; the caller stops them."""

    def __init__(self, root: str, specs: Dict[str, Dict[str, Any]], trace: bool) -> None:
        self.root = root
        self.trace = trace
        os.makedirs(root)
        ports = {site: free_port() for site in specs}
        self.addresses = {site: ("127.0.0.1", port) for site, port in ports.items()}
        self.configs: Dict[str, SiteConfig] = {}
        for site, extra in specs.items():
            fields = dict(extra)
            if fields.pop("durable", False):
                fields["data_dir"] = os.path.join(root, site)
            peers = {other: addr for other, addr in self.addresses.items() if other != site}
            self.configs[site] = SiteConfig(
                site_id=site, port=ports[site], peers=peers, **fields
            )
        self.procs: Dict[str, subprocess.Popen] = {}

    def trace_path(self, site: str) -> str:
        return os.path.join(self.root, f"{site}.trace.json")

    def start(self) -> float:
        """Spawn every daemon; seconds until all answer ``ping`` recovered."""
        start = time.perf_counter()
        for site, config in self.configs.items():
            path = os.path.join(self.root, f"{site}.json")
            config.write(path)
            if self.trace:
                command = [sys.executable, LAUNCHER, "--trace-out", self.trace_path(site)]
            else:
                command = [sys.executable, "-m", "repro.site"]
            with open(os.path.join(self.root, f"{site}.out"), "a", encoding="utf-8") as log:
                self.procs[site] = subprocess.Popen(
                    command + ["--config", path], stdout=log, stderr=subprocess.STDOUT
                )
        client = SiteClient(dict(self.addresses), client_id="bench-ready")
        try:
            for site in self.configs:
                self._wait_ready(client, site)
        finally:
            client.close()
        return time.perf_counter() - start

    def _wait_ready(self, client: SiteClient, site: str) -> None:
        deadline = time.perf_counter() + READY_TIMEOUT
        while time.perf_counter() < deadline:
            if self.procs[site].poll() is not None:
                raise RuntimeError(f"site {site} exited during boot: {self.log(site)}")
            try:
                if client.control(site, {"op": "ping"}, attempts=1).get("recovered"):
                    return
            except Exception:  # not listening yet
                pass
            time.sleep(0.005)
        raise RuntimeError(f"site {site} not ready in {READY_TIMEOUT}s: {self.log(site)}")

    def log(self, site: str) -> str:
        with open(os.path.join(self.root, f"{site}.out"), encoding="utf-8") as handle:
            return handle.read()[-2000:]

    def peak_rss_mb(self) -> float:
        return sum(proc_status_kb(proc.pid, "VmHWM") for proc in self.procs.values()) / 1024.0

    def data_bytes(self) -> int:
        return sum(
            tree_bytes(config.data_dir)
            for config in self.configs.values()
            if config.data_dir is not None
        )

    def stop(self) -> None:
        for proc in self.procs.values():
            if proc.poll() is None:
                proc.send_signal(signal.SIGTERM)
        for proc in self.procs.values():
            try:
                proc.wait(timeout=STOP_TIMEOUT)
            except subprocess.TimeoutExpired:
                proc.kill()
                proc.wait()

    def trace_dumps(self) -> List[Dict[str, Any]]:
        dumps = []
        for site in self.configs:
            with open(self.trace_path(site), encoding="utf-8") as handle:
                dumps.append(json.load(handle))
        return dumps


class Books:
    """What the balances must read after ``transfers`` committed transfers."""

    def __init__(self) -> None:
        self.transfers = 0

    def source(self) -> float:
        return OPENING - self.transfers * AMOUNT

    def sink(self) -> float:
        return OPENING + self.transfers * AMOUNT


def _transfer(
    desk: Any, to_node: str, books: Books, result: RunResult, samples: Optional[List[float]]
) -> None:
    result.attempted += 1
    start = time.perf_counter()
    try:
        out = desk.invoke("transfer", "acct-1", to_node, "acct-2", AMOUNT)
    except Exception as exc:
        result.fail(f"transfer raised {type(exc).__name__}: {exc}")
        return
    elapsed = time.perf_counter() - start
    books.transfers += 1
    want = {"from_balance": books.source(), "to_balance": books.sink()}
    if out != want:
        result.fail(f"transfer {books.transfers} returned {out}, wanted {want}")
    elif samples is not None:
        samples.append(elapsed)


class Reads:
    """Successive reads of one balance: never lower, always whole transfers."""

    def __init__(self) -> None:
        self.last = OPENING

    def check(self, value: Any, result: RunResult, exact: Optional[float]) -> bool:
        whole = isinstance(value, float) and ((value - OPENING) / AMOUNT).is_integer()
        if not whole or value < self.last or (exact is not None and value != exact):
            result.fail(f"read {value!r} after {self.last!r} (wanted {exact!r})")
            return False
        self.last = value
        return True


def _dropped(cluster: Cluster) -> Dict[str, int]:
    """Requests each daemon's transport gave up on so far (``debug_dump``)."""
    client = SiteClient(dict(cluster.addresses), client_id="bench-audit")
    try:
        return {
            site: client.control(site, {"op": "debug_dump"})["stats"]["requests_dropped"]
            for site in cluster.configs
        }
    finally:
        client.close()


def _audit(
    cluster: Cluster, books: Books, result: RunResult, dropped: Dict[str, int]
) -> int:
    """After the run: books balance across sites, nothing is left in doubt
    and no request was dropped since ``dropped`` was read; returns the
    requests dropped meanwhile (boot-time heartbeat misses excluded)."""
    lost = 0
    client = SiteClient(dict(cluster.addresses), client_id="bench-audit")
    try:
        sink_node = BANK if "site-b" in cluster.configs else DESK
        source = client.ref(DESK, "acct-1", "BankAccount").invoke("balance")
        sink = client.ref(sink_node, "acct-2", "BankAccount").invoke("balance")
        result.check(
            source == books.source() and sink == books.sink() and source + sink == 2 * OPENING,
            f"balances {source!r} + {sink!r} after {books.transfers} transfers",
        )
        for site in cluster.configs:
            dump = _settled_dump(client, site)
            lost += dump["stats"]["requests_dropped"] - dropped[site]
            result.check(
                not dump["active_transactions"] and not dump["in_doubt_ages"],
                f"site {site} left work behind: {dump['active_transactions']}"
                f" {dump['in_doubt_ages']}",
            )
    finally:
        client.close()
    result.check(lost == 0, f"{lost} requests dropped during the run")
    return lost


def _settled_dump(client: SiteClient, site: str) -> Dict[str, Any]:
    """``debug_dump`` once in-flight completion has drained (bounded wait)."""
    deadline = time.perf_counter() + 5.0
    while True:
        dump = client.control(site, {"op": "debug_dump"})
        if (not dump["active_transactions"] and not dump["in_doubt_ages"]) or (
            time.perf_counter() > deadline
        ):
            return dump
        time.sleep(0.05)


# -- site_rpc_mix -------------------------------------------------------------


def _client_counters(client: SiteClient) -> Dict[str, float]:
    """A client endpoint's ``TransportStats`` and ``MarshalStats`` fields."""
    stats = client.transport.stats
    marshal = stats.marshal.snapshot()
    counters = {key: float(marshal[key]) for key in MARSHAL_KEYS}
    counters.update({key: float(getattr(stats, key)) for key in TRANSPORT_KEYS})
    return counters


def _rpc_epoch(cluster: Cluster, seed: int, result: RunResult, books: Books) -> Dict[str, Any]:
    client = SiteClient({"site-a": cluster.addresses["site-a"]}, client_id="bench-client")
    desk = client.ref(DESK, "desk", "TransferDesk")
    sink = client.ref(DESK, "acct-2", "BankAccount")
    reads = Reads()
    txn: List[float] = []
    got: List[float] = []

    def step(rng: random.Random, timed: bool) -> None:
        if rng.random() < 0.5:
            _transfer(desk, DESK, books, result, txn if timed else None)
            return
        result.attempted += 1
        start = time.perf_counter()
        try:
            value = sink.invoke("balance")
        except Exception as exc:
            result.fail(f"read raised {type(exc).__name__}: {exc}")
            return
        elapsed = time.perf_counter() - start
        if reads.check(value, result, books.sink()) and timed:
            got.append(elapsed)

    try:
        warm = random.Random(-seed)
        for _ in range(WARMUP_OPS):
            step(warm, False)
        rng = random.Random(seed)
        start = time.perf_counter()
        for _ in range(RPC_EPOCH_OPS):
            step(rng, True)
        elapsed = time.perf_counter() - start
        counters = _client_counters(client)
    finally:
        client.close()
    return {
        "txn": txn,
        "reads": got,
        "lag": [],
        "elapsed": elapsed,
        "closed_ops": len(txn) + len(got),
        "ops": RPC_EPOCH_OPS + WARMUP_OPS,
        "clients": [counters],
    }


# -- federated_replicated -------------------------------------------------------


def _fed_epoch(cluster: Cluster, seed: int, result: RunResult, books: Books) -> Dict[str, Any]:
    writer = SiteClient({"site-a": cluster.addresses["site-a"]}, client_id="bench-writer")
    reader = SiteClient({"site-b": cluster.addresses["site-b"]}, client_id="bench-reader")
    desk = writer.ref(DESK, "desk", "TransferDesk")
    sink = reader.ref(BANK, "acct-2", "BankAccount")
    reads = Reads()
    writer_result = RunResult()
    reader_result = RunResult()
    txn: List[float] = []
    got: List[float] = []
    lag: List[float] = []
    done = threading.Event()
    try:
        for _ in range(WARMUP_OPS // 5):
            _transfer(desk, BANK, books, writer_result, None)
        for _ in range(WARMUP_OPS):
            reader_result.attempted += 1
            reads.check(sink.invoke("balance"), reader_result, None)
        start = time.perf_counter()

        def write() -> None:
            try:
                for _ in range(FED_EPOCH_TRANSFERS):
                    _transfer(desk, BANK, books, writer_result, txn)
            finally:
                done.set()

        def read() -> None:
            arrivals = random.Random(seed)
            clock = time.perf_counter
            due = start
            while True:
                due += arrivals.expovariate(READ_RATE)
                if done.wait(max(0.0, due - clock())):
                    break
                began = clock()
                reader_result.attempted += 1
                try:
                    value = sink.invoke("balance")
                except Exception as exc:
                    reader_result.fail(f"read raised {type(exc).__name__}: {exc}")
                    continue
                finished = clock()
                if reads.check(value, reader_result, None):
                    got.append(finished - due)
                    lag.append(began - due)

        threads = [threading.Thread(target=write), threading.Thread(target=read)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=EPOCH_TIMEOUT)
            if thread.is_alive():
                done.set()
                raise RuntimeError("a federated client thread did not finish")
        elapsed = time.perf_counter() - start
        clients = [_client_counters(writer), _client_counters(reader)]
    finally:
        done.set()
        writer.close()
        reader.close()
    for part in (writer_result, reader_result):
        result.attempted += part.attempted
        result.failed += part.failed
        result.errors.extend(part.errors[: RunResult.MAX_ERRORS - len(result.errors)])
    result.check(reads.last <= books.sink(), f"read {reads.last} above {books.sink()}")
    return {
        "txn": txn,
        "reads": got,
        "lag": lag,
        "elapsed": elapsed,
        "closed_ops": len(txn),
        "ops": len(txn) + len(got) + WARMUP_OPS // 5 + WARMUP_OPS,
        "clients": clients,
    }


# -- epochs ---------------------------------------------------------------------

SPECS = {
    "site_rpc_mix": {"site-a": {"app": DESK_APP}},
    "federated_replicated": {
        site: {
            "app": app,
            "durable": True,
            "cell_store": "segmented",
            "replication": {"replicas": 3},
        }
        for site, app in (("site-a", DESK_APP), ("site-b", BANK_APP))
    },
}
EPOCH_RUNNERS = {"site_rpc_mix": _rpc_epoch, "federated_replicated": _fed_epoch}


def _epoch(
    workload: str, root: str, seed: int, result: RunResult, trace: bool
) -> Dict[str, Any]:
    """Boot a fresh cluster, run one epoch of fixed work on it, audit, stop."""
    cluster = Cluster(root, SPECS[workload], trace=trace)
    try:
        boot = cluster.start()
        dropped = _dropped(cluster)
        disk = cluster.data_bytes()
        books = Books()
        epoch = EPOCH_RUNNERS[workload](cluster, seed, result, books)
        epoch["rss_mb"] = cluster.peak_rss_mb()
        epoch["dropped"] = _audit(cluster, books, result, dropped)
        epoch["disk"] = cluster.data_bytes() - disk
    finally:
        cluster.stop()
    epoch.update(boot=boot, txns=books.transfers, cluster=cluster)
    return epoch


def _epochs(
    workload: str, workdir: str, seed: int, seconds: float, result: RunResult, least: int
) -> List[Dict[str, Any]]:
    """Epochs on fresh clusters until ``seconds`` of them are measured."""
    epochs: List[Dict[str, Any]] = []
    while len(epochs) < least or sum(e["elapsed"] for e in epochs) < seconds:
        root = os.path.join(workdir, f"epoch-{len(epochs)}")
        epochs.append(_epoch(workload, root, seed * 10_000 + len(epochs), result, False))
    return epochs


def _measured(epochs: List[Dict[str, Any]]) -> list:
    """The epochs as ``measure.Epoch`` tuples."""
    return [(e["closed_ops"], e["elapsed"], e["txn"], e["reads"]) for e in epochs]


def _throughput(epochs: List[Dict[str, Any]]) -> float:
    """Correct closed-loop operations per second (transfers when federated)."""
    return sum(e["closed_ops"] for e in epochs) / sum(e["elapsed"] for e in epochs)


def run(workload: str, seed: int, seconds: float, trace: bool, workdir: str) -> RunResult:
    result = RunResult()
    calib_s = result.diagnostics["bench.calib_s"] = calibrate()
    if not trace:
        epochs = _epochs(workload, workdir, seed, seconds, result, SETUP_BOOTS)
        result.metrics = {
            **epoch_metrics(_measured(epochs)),
            "setup_s": metric(median([e["boot"] for e in epochs]), "s"),
            "peak_rss_mb": metric(median([e["rss_mb"] for e in epochs]), "MB"),
        }
        return result

    epochs = _epochs(workload, workdir, seed, seconds / 2, result, 1)
    lag = [sample for e in epochs for sample in e["lag"]]
    tracer = Tracer()
    tracer.install()
    try:
        traced = _epoch(workload, os.path.join(workdir, "traced"), seed, result, True)
    finally:
        tracer.uninstall()

    dumps = traced["cluster"].trace_dumps()
    totals = merge([reduce_spans(tracer.spans)] + [reduce_spans(d["spans"]) for d in dumps])
    counters: Dict[str, float] = {key: 0.0 for key in MARSHAL_KEYS + TRANSPORT_KEYS}
    parts = traced["clients"] + [
        {**dump["extra"]["marshal"], **dump["extra"]["transport"]} for dump in dumps
    ]
    for part in parts:
        for key in counters:
            counters[key] += part[key]
    txns = traced["txns"]
    counters.update(
        {
            "orb.socket_transport.requests_dropped": traced["dropped"],
            "persistence.disk_bytes_per_txn": ratio(traced["disk"], txns),
            "bench.reader_lag_p99_ms": percentile(lag, 0.99) * 1000.0 if lag else 0.0,
            "bench.trace_overhead_ratio": _throughput([traced]) / _throughput(epochs),
            "bench.calib_s": calib_s,
            "bench.failed_ratio": ratio(result.failed, result.attempted),
            **pooled_p99_ms(_measured(epochs)),
        }
    )
    result.metrics = per_layer_metrics(totals, traced["ops"], txns, counters)
    return result
