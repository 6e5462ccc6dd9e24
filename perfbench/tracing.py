"""In-memory spans around the public functions of each layer.

The benchmark does not instrument the library's source.  It replaces
each function named in :data:`HOOKS` with a wrapper, from the
benchmark's own files, for the length of a traced run, and restores the
original afterwards.  A span records its name, start, end, parent span
and request id (the id of the outermost span on the same thread), stays
in memory until the run ends, and is reduced to self time: its duration
minus the part covered by the spans it caused.
"""

from __future__ import annotations

import functools
import importlib
import itertools
import json
import threading
import time
from dataclasses import dataclass
from typing import Any, Callable, Dict, Iterable, List, Tuple, Union

# (span id, parent span id or 0, request id, name, start s, end s)
Span = Tuple[int, int, int, str, float, float]
SpanName = Union[str, Callable[[Any], str]]


def _force_name(wal: Any) -> str:
    from repro.persistence.replicated import ReplicatedWAL

    if isinstance(wal, ReplicatedWAL):
        return "persistence.replicated.force"
    return "persistence.wal.force"


# (module, class or "" for a module function, attribute, span name).
# A name used for several functions (the WAL classes, the stores) sums
# them as one layer; nested spans of one name count once as a call.
# ``persistence.object_store.put_many`` covers ``put`` as well: the WAL
# lands each force with one ``put`` of its current segment.
HOOKS: List[Tuple[str, str, str, SpanName]] = [
    ("repro.core.current", "ActivityCurrent", "begin", "core.current.begin"),
    ("repro.core.current", "ActivityCurrent", "complete", "core.current.complete"),
    ("repro.core.activity", "Activity", "add_action", "core.activity.add_action"),
    (
        "repro.core.coordinator",
        "ActivityCoordinator",
        "process_signal_set",
        "core.coordinator.process_signal_set",
    ),
    ("repro.models.twopc", "TwoPhaseParticipant", "process_signal", "models.twopc.participant"),
    ("repro.util.events", "EventLog", "record", "util.events.record"),
    ("repro.orb.core", "Orb", "invoke", "orb.core.invoke"),
    ("repro.orb.core", "Orb", "dispatch_request", "orb.core.dispatch_request"),
    ("repro.orb.marshal", "Marshaller", "encode", "orb.marshal.encode"),
    ("repro.orb.marshal", "PayloadTemplate", "fill", "orb.marshal.encode"),
    ("repro.orb.marshal", "Marshaller", "decode", "orb.marshal.decode"),
    ("repro.orb.socket_transport", "SocketTransport", "request", "orb.socket_transport.request"),
    ("repro.ots.current", "TransactionCurrent", "begin", "ots.current.begin"),
    ("repro.ots.current", "TransactionCurrent", "commit", "ots.current.commit"),
    ("repro.ots.current", "TransactionCurrent", "rollback", "ots.current.rollback"),
    ("repro.ots.coordinator", "Transaction", "register_resource", "ots.register_resource"),
    ("repro.ots.recoverable", "TransactionalCell", "read", "ots.cell.read_write"),
    ("repro.ots.recoverable", "TransactionalCell", "write", "ots.cell.read_write"),
    (
        "repro.ots.interposition",
        "SubordinateTransactionResource",
        "prepare",
        "ots.interposition.subordinate_prepare",
    ),
    (
        "repro.ots.interposition",
        "SubordinateTransactionResource",
        "commit",
        "ots.interposition.subordinate_commit",
    ),
    (
        "repro.ots.interposition",
        "SubordinateTransactionResource",
        "commit_one_phase",
        "ots.interposition.subordinate_commit",
    ),
    ("repro.persistence.wal", "WriteAheadLog", "append", "persistence.wal.append"),
    ("repro.persistence.wal", "GroupCommitWAL", "append", "persistence.wal.append"),
    ("repro.persistence.replicated", "ReplicatedWAL", "append", "persistence.wal.append"),
    ("repro.persistence.wal", "WriteAheadLog", "force", _force_name),
    ("repro.persistence.wal", "GroupCommitWAL", "force", _force_name),
    ("repro.persistence.object_store", "MemoryStore", "put", "persistence.object_store.put_many"),
    ("repro.persistence.object_store", "MemoryStore", "put_many", "persistence.object_store.put_many"),
    ("repro.persistence.object_store", "FileStore", "put", "persistence.object_store.put_many"),
    ("repro.persistence.object_store", "FileStore", "put_many", "persistence.object_store.put_many"),
    (
        "repro.persistence.object_store",
        "SegmentedFileStore",
        "put",
        "persistence.object_store.put_many",
    ),
    (
        "repro.persistence.object_store",
        "SegmentedFileStore",
        "put_many",
        "persistence.object_store.put_many",
    ),
    ("repro.persistence.replicated", "ReplicatedStore", "put", "persistence.replicated.put_many"),
    (
        "repro.persistence.replicated",
        "ReplicatedStore",
        "put_many",
        "persistence.replicated.put_many",
    ),
    ("os", "", "fsync", "persistence.fsync"),
]


class Tracer:
    """Records spans for every hooked call while installed."""

    def __init__(self) -> None:
        self.spans: List[Span] = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._patched: List[Tuple[Any, str, Any]] = []

    def _wrap(self, original: Callable, name: SpanName) -> Callable:
        spans = self.spans
        ids = self._ids
        local = self._local
        clock = time.perf_counter
        dynamic = callable(name)

        @functools.wraps(original)
        def traced(*args: Any, **kwargs: Any) -> Any:
            label = name(args[0]) if dynamic else name
            stack = getattr(local, "stack", None)
            if stack is None:
                stack = local.stack = []
            span_id = next(ids)
            if stack:
                parent_id, request_id = stack[-1]
            else:
                parent_id, request_id = 0, span_id
            stack.append((span_id, request_id))
            start = clock()
            try:
                return original(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans.append((span_id, parent_id, request_id, label, start, end))

        return traced

    def install(self) -> None:
        for module_name, class_name, attr, name in HOOKS:
            module = importlib.import_module(module_name)
            owner = getattr(module, class_name) if class_name else module
            # Only the class's own attribute: an inherited one is reached
            # through the base class's hook.
            original = owner.__dict__[attr]
            self._patched.append((owner, attr, original))
            setattr(owner, attr, self._wrap(original, name))

    def uninstall(self) -> None:
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)

    def dump(self, path: str, extra: Dict[str, Any]) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            json.dump({"spans": self.spans, "extra": extra}, handle, separators=(",", ":"))


@dataclass
class LayerTotals:
    calls: int = 0
    self_s: float = 0.0
    inclusive_s: float = 0.0

    def add(self, other: "LayerTotals") -> None:
        self.calls += other.calls
        self.self_s += other.self_s
        self.inclusive_s += other.inclusive_s


def reduce_spans(spans: Iterable[Span]) -> Dict[str, LayerTotals]:
    """Per span name: outermost calls, self time and inclusive time.

    ``spans`` come from one process (span ids are per process).  Child
    spans run on their parent's thread, so they never overlap and the
    parent's self time is its duration minus their summed durations.
    """
    spans = list(spans)
    names = {span[0]: span[3] for span in spans}
    covered: Dict[int, float] = {}
    for _sid, parent, _rid, _name, start, end in spans:
        if parent:
            covered[parent] = covered.get(parent, 0.0) + (end - start)
    totals: Dict[str, LayerTotals] = {}
    for sid, parent, _rid, name, start, end in spans:
        layer = totals.setdefault(name, LayerTotals())
        duration = end - start
        layer.self_s += duration - covered.get(sid, 0.0)
        if names.get(parent) != name:
            layer.calls += 1
            layer.inclusive_s += duration
    return totals


def merge(parts: Iterable[Dict[str, LayerTotals]]) -> Dict[str, LayerTotals]:
    merged: Dict[str, LayerTotals] = {}
    for part in parts:
        for name, layer in part.items():
            merged.setdefault(name, LayerTotals()).add(layer)
    return merged
