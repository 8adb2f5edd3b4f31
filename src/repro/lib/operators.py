"""LINQ-style data-parallel operator vertices (paper section 4.2).

Most operators build on unary and binary forms of a generic buffering
vertex whose ``on_recv`` adds records to lists indexed by timestamp and
whose ``on_notify(t)`` applies a transformation to the buffered list(s)
for ``t`` — exactly the structure the paper describes.  Operators that do
not require coordination are specialised: ``Select``/``SelectMany``
transform and forward records immediately, ``Concat`` forwards from both
inputs, ``Distinct`` emits a record the first time it is seen (and uses
its notification only to reclaim state), and ``Join`` is a per-timestamp
symmetric hash join that emits matches eagerly.

Collections are *per timestamp*: each epoch (and each loop iteration) is
an independent logical collection, which is what makes the operators
composable with incremental and iterative computation.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, Iterable, List, Tuple

from ..core.timestamp import Timestamp
from ..core.vertex import Vertex


class SelectVertex(Vertex):
    """Stateless 1:1 transformation; forwards immediately (no coordination)."""

    notifies = False
    _CONFIG_ATTRS = ("function",)

    def __init__(self, function: Callable[[Any], Any]):
        super().__init__()
        self.function = function

    def on_recv(self, input_port: int, records: List[Any], timestamp: Timestamp) -> None:
        function = self.function
        self.send_by(0, [function(record) for record in records], timestamp)


class WhereVertex(Vertex):
    """Stateless filter; forwards immediately."""

    notifies = False
    _CONFIG_ATTRS = ("predicate",)

    def __init__(self, predicate: Callable[[Any], bool]):
        super().__init__()
        self.predicate = predicate

    def on_recv(self, input_port: int, records: List[Any], timestamp: Timestamp) -> None:
        predicate = self.predicate
        kept = [record for record in records if predicate(record)]
        if kept:
            self.send_by(0, kept, timestamp)


class SelectManyVertex(Vertex):
    """Stateless 1:N transformation (flat map); forwards immediately."""

    notifies = False
    _CONFIG_ATTRS = ("function",)

    def __init__(self, function: Callable[[Any], Iterable[Any]]):
        super().__init__()
        self.function = function

    def on_recv(self, input_port: int, records: List[Any], timestamp: Timestamp) -> None:
        function = self.function
        out: List[Any] = []
        for record in records:
            out.extend(function(record))
        if out:
            self.send_by(0, out, timestamp)


class ConcatVertex(Vertex):
    """Merge two streams; forwards immediately from both inputs."""

    notifies = False

    def on_recv(self, input_port: int, records: List[Any], timestamp: Timestamp) -> None:
        self.send_by(0, records, timestamp)


class DistinctVertex(Vertex):
    """Per-timestamp distinct.

    A record is emitted the first time it is observed at a timestamp
    (low latency); the notification merely reclaims the per-timestamp
    set once no more records at that time can arrive.
    """

    def __init__(self):
        super().__init__()
        self.seen: Dict[Timestamp, set] = {}

    def on_recv(self, input_port: int, records: List[Any], timestamp: Timestamp) -> None:
        seen = self.seen.get(timestamp)
        if seen is None:
            seen = self.seen[timestamp] = set()
            self.notify_at(timestamp)
        fresh = []
        for record in records:
            if record not in seen:
                seen.add(record)
                fresh.append(record)
        if fresh:
            self.send_by(0, fresh, timestamp)

    def on_notify(self, timestamp: Timestamp) -> None:
        self.seen.pop(timestamp, None)


class UnaryBufferingVertex(Vertex):
    """The generic coordinated unary operator.

    Buffers records per timestamp; when notified that time ``t`` is
    complete, applies ``transform(records) -> output records`` and sends
    the result.
    """

    _CONFIG_ATTRS = ("transform",)

    def __init__(self, transform: Callable[[List[Any]], Iterable[Any]]):
        super().__init__()
        self.transform = transform
        self.buffers: Dict[Timestamp, List[Any]] = {}

    def on_recv(self, input_port: int, records: List[Any], timestamp: Timestamp) -> None:
        buffer = self.buffers.get(timestamp)
        if buffer is None:
            buffer = self.buffers[timestamp] = []
            self.notify_at(timestamp)
        buffer.extend(records)

    def on_notify(self, timestamp: Timestamp) -> None:
        records = self.buffers.pop(timestamp, [])
        out = list(self.transform(records))
        if out:
            self.send_by(0, out, timestamp)


class BinaryBufferingVertex(Vertex):
    """The generic coordinated binary operator (two buffered inputs)."""

    _CONFIG_ATTRS = ("transform",)

    def __init__(self, transform: Callable[[List[Any], List[Any]], Iterable[Any]]):
        super().__init__()
        self.transform = transform
        self.buffers: Dict[Timestamp, Tuple[List[Any], List[Any]]] = {}

    def on_recv(self, input_port: int, records: List[Any], timestamp: Timestamp) -> None:
        pair = self.buffers.get(timestamp)
        if pair is None:
            pair = self.buffers[timestamp] = ([], [])
            self.notify_at(timestamp)
        pair[input_port].extend(records)

    def on_notify(self, timestamp: Timestamp) -> None:
        left, right = self.buffers.pop(timestamp, ([], []))
        out = list(self.transform(left, right))
        if out:
            self.send_by(0, out, timestamp)


class GroupByVertex(UnaryBufferingVertex):
    """Collate records by key, then apply ``reducer(key, values)``.

    ``reducer`` returns an iterable of output records for the group,
    mirroring Naiad's ``GroupBy(key, (k, vs) => ...)``.
    """

    _CONFIG_ATTRS = ("transform", "key", "reducer")

    def __init__(
        self,
        key: Callable[[Any], Any],
        reducer: Callable[[Any, List[Any]], Iterable[Any]],
    ):
        super().__init__(self._group)
        self.key = key
        self.reducer = reducer

    def _group(self, records: List[Any]) -> Iterable[Any]:
        groups: Dict[Any, List[Any]] = {}
        key = self.key
        for record in records:
            groups.setdefault(key(record), []).append(record)
        out: List[Any] = []
        for k in groups:
            out.extend(self.reducer(k, groups[k]))
        return out


class CountByVertex(Vertex):
    """Emit ``(key, count)`` per timestamp; counts fold incrementally."""

    _CONFIG_ATTRS = ("key",)

    def __init__(self, key: Callable[[Any], Any]):
        super().__init__()
        self.key = key
        self.counts: Dict[Timestamp, Dict[Any, int]] = {}

    def on_recv(self, input_port: int, records: List[Any], timestamp: Timestamp) -> None:
        counts = self.counts.get(timestamp)
        if counts is None:
            counts = self.counts[timestamp] = {}
            self.notify_at(timestamp)
        key = self.key
        for record in records:
            k = key(record)
            counts[k] = counts.get(k, 0) + 1

    def on_notify(self, timestamp: Timestamp) -> None:
        counts = self.counts.pop(timestamp, {})
        if counts:
            self.send_by(0, list(counts.items()), timestamp)


class AggregateByVertex(Vertex):
    """Keyed incremental fold: emit ``(key, fold(values))`` at completion.

    ``combine(acc, value) -> acc`` folds eagerly as records arrive, so
    memory is one accumulator per key rather than the whole group.
    """

    _CONFIG_ATTRS = ("key", "value", "combine")

    def __init__(
        self,
        key: Callable[[Any], Any],
        value: Callable[[Any], Any],
        combine: Callable[[Any, Any], Any],
    ):
        super().__init__()
        self.key = key
        self.value = value
        self.combine = combine
        self.state: Dict[Timestamp, Dict[Any, Any]] = {}

    _MISSING = object()

    def on_recv(self, input_port: int, records: List[Any], timestamp: Timestamp) -> None:
        state = self.state.get(timestamp)
        if state is None:
            state = self.state[timestamp] = {}
            self.notify_at(timestamp)
        key, value, combine = self.key, self.value, self.combine
        for record in records:
            k = key(record)
            v = value(record)
            acc = state.get(k, self._MISSING)
            state[k] = v if acc is self._MISSING else combine(acc, v)

    def on_notify(self, timestamp: Timestamp) -> None:
        state = self.state.pop(timestamp, {})
        if state:
            self.send_by(0, list(state.items()), timestamp)


class JoinVertex(Vertex):
    """Per-timestamp symmetric hash join; emits matches eagerly.

    Input 0 is the left relation, input 1 the right.  ``result(l, r)``
    shapes the output.  The notification only reclaims per-timestamp
    state, so it is a capability-free cleanup (section 2.4): the join
    holds no pointstamp and delays no one downstream.
    """

    _CONFIG_ATTRS = ("left_key", "right_key", "result")

    def __init__(
        self,
        left_key: Callable[[Any], Any],
        right_key: Callable[[Any], Any],
        result: Callable[[Any, Any], Any],
    ):
        super().__init__()
        self.left_key = left_key
        self.right_key = right_key
        self.result = result
        self.state: Dict[Timestamp, Tuple[Dict[Any, List[Any]], Dict[Any, List[Any]]]] = {}

    def on_recv(self, input_port: int, records: List[Any], timestamp: Timestamp) -> None:
        state = self.state.get(timestamp)
        if state is None:
            state = self.state[timestamp] = ({}, {})
            self.notify_at(timestamp, capability=False)
        key = self.left_key if input_port == 0 else self.right_key
        mine, theirs = state[input_port], state[1 - input_port]
        result = self.result
        out: List[Any] = []
        for record in records:
            k = key(record)
            mine.setdefault(k, []).append(record)
            for other in theirs.get(k, ()):
                if input_port == 0:
                    out.append(result(record, other))
                else:
                    out.append(result(other, record))
        if out:
            self.send_by(0, out, timestamp)

    def on_notify(self, timestamp: Timestamp) -> None:
        self.state.pop(timestamp, None)


class SubscribeVertex(Vertex):
    """Terminal stage invoking ``callback(timestamp, records)`` per epoch.

    The callback fires when the timestamp is complete (all records
    delivered), in frontier order — the consistent-output guarantee the
    paper emphasises.
    """

    _CONFIG_ATTRS = ("callback",)

    def __init__(self, callback: Callable[[Timestamp, List[Any]], None]):
        super().__init__()
        self.callback = callback
        self.buffers: Dict[Timestamp, List[Any]] = {}

    def on_recv(self, input_port: int, records: List[Any], timestamp: Timestamp) -> None:
        buffer = self.buffers.get(timestamp)
        if buffer is None:
            buffer = self.buffers[timestamp] = []
            self.notify_at(timestamp)
        buffer.extend(records)

    def on_notify(self, timestamp: Timestamp) -> None:
        self.callback(timestamp, self.buffers.pop(timestamp, []))


class ProbeVertex(Vertex):
    """Absorbs records; exists so a probe has a graph location."""

    notifies = False

    def on_recv(self, input_port: int, records: List[Any], timestamp: Timestamp) -> None:
        pass


class InspectVertex(Vertex):
    """Pass-through that calls ``probe(timestamp, records)`` per batch."""

    notifies = False
    _CONFIG_ATTRS = ("probe",)

    def __init__(self, probe: Callable[[Timestamp, List[Any]], None]):
        super().__init__()
        self.probe = probe

    def on_recv(self, input_port: int, records: List[Any], timestamp: Timestamp) -> None:
        self.probe(timestamp, records)
        self.send_by(0, records, timestamp)
