"""Per-layer metrics: spans and public counters reduced per operation.

Every traced run reports every metric below; a layer a workload never
reaches reports 0, which is the prediction that a change to that layer
leaves the workload alone.

Units: ``_us`` is self time per operation, except under ``ots.`` and
``persistence.``, where it is per transaction (a transfer), so the
reader rate of ``federated_replicated`` does not dilute it.

``orb.socket_transport.frames_per_op`` and ``bytes_sent_per_op`` count
messages as ``TransportStats`` does (socket frames and in-process
deliveries alike, heartbeats included) over the client and every daemon.
``orb.wire_wait_us`` is the time spent in ``SocketTransport.request``
minus the time the receiving daemons spent in ``Orb.dispatch_request``:
framing, sockets and the kernel.  ``requests_dropped`` is read from the
daemons' ``debug_dump`` before and after the traced epoch.
"""

from __future__ import annotations

from typing import Dict

from measure import metric, ratio
from tracing import LayerTotals

# name, unit, better.  BENCHMARK.json lists the same metrics.
PER_LAYER = [
    ("core.current.begin_us", "us", "lower"),
    ("core.activity.add_action_us", "us", "lower"),
    ("core.coordinator.process_signal_set_us", "us", "lower"),
    ("core.current.complete_self_us", "us", "lower"),
    ("models.twopc.participant_us", "us", "lower"),
    ("core.retained_kb_per_activity", "kB", "lower"),
    ("core.alloc_blocks_per_op", "count", "lower"),
    ("util.events.events_per_op", "count", "lower"),
    ("util.events.record_us", "us", "lower"),
    ("orb.core.dispatch_request_us", "us", "lower"),
    ("orb.marshal.encode_us", "us", "lower"),
    ("orb.marshal.decode_us", "us", "lower"),
    ("orb.marshal.bytes_encoded_per_op", "B", "lower"),
    ("orb.marshal.cache_hit_ratio", "ratio", "higher"),
    ("orb.socket_transport.frames_per_op", "count", "lower"),
    ("orb.socket_transport.bytes_sent_per_op", "B", "lower"),
    ("orb.socket_transport.requests_dropped", "count", "lower"),
    ("orb.wire_wait_us", "us", "lower"),
    ("ots.current.begin_us", "us", "lower"),
    ("ots.commit_self_us", "us", "lower"),
    ("ots.cell.read_write_us", "us", "lower"),
    ("ots.resources_per_txn", "count", "lower"),
    ("ots.commit_ratio", "ratio", "higher"),
    ("ots.interposition.subordinate_prepare_us", "us", "lower"),
    ("ots.interposition.subordinate_commit_us", "us", "lower"),
    ("persistence.wal.append_us", "us", "lower"),
    ("persistence.wal.force_us", "us", "lower"),
    ("persistence.wal.forces_per_txn", "count", "lower"),
    ("persistence.wal.txns_per_force", "count", "higher"),
    ("persistence.object_store.put_many_us", "us", "lower"),
    ("persistence.object_store.fsyncs_per_txn", "count", "lower"),
    ("persistence.replicated.put_many_us", "us", "lower"),
    ("persistence.replicated.force_us", "us", "lower"),
    ("persistence.disk_bytes_per_txn", "B", "lower"),
    ("bench.txn_p99_ms", "ms", "lower"),
    ("bench.read_p99_ms", "ms", "lower"),
    ("bench.reader_lag_p99_ms", "ms", "lower"),
    ("bench.trace_overhead_ratio", "ratio", "higher"),
    ("bench.calib_s", "s", "lower"),
    ("bench.failed_ratio", "ratio", "lower"),
]

# metric → span name, for self time per operation.
_PER_OP_SELF = {
    "core.current.begin_us": "core.current.begin",
    "core.activity.add_action_us": "core.activity.add_action",
    "core.coordinator.process_signal_set_us": "core.coordinator.process_signal_set",
    "core.current.complete_self_us": "core.current.complete",
    "models.twopc.participant_us": "models.twopc.participant",
    "util.events.record_us": "util.events.record",
    "orb.core.dispatch_request_us": "orb.core.dispatch_request",
    "orb.marshal.encode_us": "orb.marshal.encode",
    "orb.marshal.decode_us": "orb.marshal.decode",
}

# metric → span name, for self time per transaction.
_PER_TXN_SELF = {
    "ots.current.begin_us": "ots.current.begin",
    "ots.commit_self_us": "ots.current.commit",
    "ots.cell.read_write_us": "ots.cell.read_write",
    "ots.interposition.subordinate_prepare_us": "ots.interposition.subordinate_prepare",
    "ots.interposition.subordinate_commit_us": "ots.interposition.subordinate_commit",
    "persistence.wal.append_us": "persistence.wal.append",
    "persistence.wal.force_us": "persistence.wal.force",
    "persistence.object_store.put_many_us": "persistence.object_store.put_many",
    "persistence.replicated.put_many_us": "persistence.replicated.put_many",
    "persistence.replicated.force_us": "persistence.replicated.force",
}

MARSHAL_KEYS = ("bytes_encoded", "cache_hits", "cache_misses", "decode_hits", "decode_misses")
TRANSPORT_KEYS = ("requests_sent", "replies_sent", "bytes_sent")


def per_layer_metrics(
    totals: Dict[str, LayerTotals],
    ops: int,
    txns: int,
    counters: Dict[str, float],
) -> Dict[str, Dict[str, object]]:
    """Every :data:`PER_LAYER` metric from span totals and counters.

    ``counters`` holds summed ``MarshalStats``/``TransportStats`` fields
    (``MARSHAL_KEYS``, ``TRANSPORT_KEYS``) and any metric measured
    outside the spans, by its metric name.
    """
    empty = LayerTotals()

    def layer(name: str) -> LayerTotals:
        return totals.get(name, empty)

    values: Dict[str, float] = {}
    for name, span in _PER_OP_SELF.items():
        values[name] = ratio(layer(span).self_s * 1e6, ops)
    for name, span in _PER_TXN_SELF.items():
        values[name] = ratio(layer(span).self_s * 1e6, txns)
    values["util.events.events_per_op"] = ratio(layer("util.events.record").calls, ops)

    lookups = sum(counters.get(key, 0) for key in MARSHAL_KEYS[1:])
    hits = counters.get("cache_hits", 0) + counters.get("decode_hits", 0)
    values["orb.marshal.bytes_encoded_per_op"] = ratio(counters.get("bytes_encoded", 0), ops)
    values["orb.marshal.cache_hit_ratio"] = ratio(hits, lookups)
    frames = counters.get("requests_sent", 0) + counters.get("replies_sent", 0)
    values["orb.socket_transport.frames_per_op"] = ratio(frames, ops)
    values["orb.socket_transport.bytes_sent_per_op"] = ratio(counters.get("bytes_sent", 0), ops)
    wire = layer("orb.socket_transport.request").inclusive_s
    wire -= layer("orb.core.dispatch_request").inclusive_s
    values["orb.wire_wait_us"] = ratio(wire * 1e6, ops)

    commits = layer("ots.current.commit").calls
    rollbacks = layer("ots.current.rollback").calls
    values["ots.resources_per_txn"] = ratio(layer("ots.register_resource").calls, txns)
    values["ots.commit_ratio"] = ratio(commits, commits + rollbacks)

    forces = layer("persistence.wal.force").calls + layer("persistence.replicated.force").calls
    values["persistence.wal.forces_per_txn"] = ratio(forces, txns)
    values["persistence.wal.txns_per_force"] = ratio(txns, forces)
    values["persistence.object_store.fsyncs_per_txn"] = ratio(
        layer("persistence.fsync").calls, txns
    )

    for name, _unit, _better in PER_LAYER:
        if name in counters:
            values[name] = counters[name]
    return {name: metric(values.get(name, 0.0), unit) for name, unit, _ in PER_LAYER}
