"""Incremental collections in the differential-dataflow style ([28], §6.4).

The paper's streaming applications (incremental connected components,
the Figure 1 application) build on the incremental-computation library
of McSherry et al. [28].  This module provides the epoch-incremental
subset that those applications need: a :class:`Collection` is a stream
of *difference records* ``(record, multiplicity)``; each epoch carries
the changes to a logical multiset, and operators emit the changes to
their outputs.  Accumulating every epoch's diffs reconstructs the full
collection — which is exactly what the tests assert against batch
oracles.

Stateful operators maintain indexed state across epochs and are keyed
(hash-partitioned), so they run data-parallel on the cluster runtime
unchanged.  That state is one keyed multiset in plain dicts, updated
by :func:`add_counts` and :func:`index_diffs`.  :class:`UnionFindVertex` implements the incremental
connected-components kernel used by section 6.4 (edge additions, as in
the tweet stream of Figure 1, where mentions only accumulate).
"""

from __future__ import annotations

from typing import Any, Callable, Dict, Iterable, List, Optional, Tuple

from ..core.timestamp import Timestamp
from ..core.vertex import Vertex
from ..opt.plan import RecordKey
from .operators import UnaryBufferingVertex
from .stream import Stream, _opspec, hash_partitioner


Diff = Tuple[Any, int]


def consolidate_diffs(diffs: Iterable[Diff]) -> List[Diff]:
    """Sum multiplicities per record, dropping zeros."""
    acc: Dict[Any, int] = {}
    for record, multiplicity in diffs:
        acc[record] = acc.get(record, 0) + multiplicity
    return [(record, m) for record, m in acc.items() if m != 0]


def add_counts(counts: Dict[Any, int], diffs: Iterable[Diff]) -> Dict[Any, int]:
    """Add each ``(item, delta)`` into ``counts``; return ``{item: count
    before the batch}`` in first-touch order.  Items whose count ends
    at zero leave ``counts`` at the end of the batch.

    With :func:`index_diffs`, this is the one keyed multiset under every
    incremental operator and the shared arrangement.  It stays plain
    dicts, which ``snapshot_copy`` copies without ``copy.deepcopy``.
    """
    before: Dict[Any, int] = {}
    first_touch = before.setdefault
    zeros = []
    for item, delta in diffs:
        old = counts.get(item, 0)
        first_touch(item, old)
        new = counts[item] = old + delta
        if not new:
            zeros.append(item)
    for item in zeros:
        if counts.get(item) == 0:
            del counts[item]
    return before


def index_diffs(
    index: Dict[Any, Dict[Any, int]], triples: Iterable[Tuple[Any, Any, int]]
) -> Dict[Any, None]:
    """Add each ``(key, record, delta)`` into ``index`` (``key ->
    {record: multiplicity}``); return the touched keys in first-touch
    order.  A record whose multiplicity reaches zero leaves at once, a
    key left with no records at the end of the batch."""
    touched: Dict[Any, None] = {}
    for key, record, delta in triples:
        slot = index.get(key)
        if slot is None:
            slot = index[key] = {}
        total = slot.get(record, 0) + delta
        if total:
            slot[record] = total
        else:
            slot.pop(record, None)
        touched[key] = None
    for key in touched:
        if not index[key]:
            del index[key]
    return touched


class _EpochDiffVertex(UnaryBufferingVertex):
    """Base for per-epoch incremental operators: the buffered epoch's
    diffs are consolidated and applied to the cross-epoch state by the
    subclass's ``apply(diffs)``, which returns the output diffs."""

    def __init__(self):
        super().__init__(lambda records: self.apply(consolidate_diffs(records)))


class IncrementalDistinctVertex(Vertex):
    """Distinct over the accumulated collection, emitting as its input
    arrives: the eager DistinctCount of section 2.4, over diffs.

    Its output through each time nets to ``[count > 0]`` per record,
    where ``count`` is the record's accumulated multiplicity.  A batch
    at ``t`` is taken on arrival when every epoch before ``t`` is known
    complete, the rule :class:`IncrementalJoinVertex` follows: then
    ``counts`` holds exactly the earlier times, and each record's count
    before ``t`` is kept at its first touch of ``t``.  The first
    positive diff at ``t`` of a record whose count before ``t`` is 0
    sends ``(record, +1)`` at once.

    The notification at ``t`` sends ``[count_t > 0] - [count_before >
    0] - emitted`` per touched record.  Without a retraction or a
    negative count before ``t`` each of these corrections is 0, so the
    first touch of ``t`` requests only a capability-free cleanup
    (section 2.4), which delays no one.  A batch at ``t`` that carries a
    retraction or touches a negative count requests the capability
    notification at ``t``, from ``on_recv``, which holds one.

    A batch that arrives sooner, and every batch inside a loop, is
    buffered under a capability notification at ``t`` and taken there
    by the same rule.  What is sent at ``t`` is therefore fixed by the
    diffs alone, whatever their arrival order, their batching or the
    path they took: ``(record, +1)`` when the count before ``t`` is 0
    and some diff at ``t`` is positive, then the correction.  The two
    are never consolidated, so a partial rollback's replay regenerates
    exactly the records its record-level suppression expects.
    """

    def __init__(self):
        super().__init__()
        #: Record -> multiplicity over every time taken so far.
        self.counts: Dict[Any, int] = {}
        #: Time -> (record -> count before the time, records sent ``+1``
        #: at it), for each time taken and not yet notified.
        self.open: Dict[Timestamp, Tuple[Dict[Any, int], Dict[Any, None]]] = {}
        #: Time -> diffs waiting for the capability notification there.
        self.deferred: Dict[Timestamp, List[Diff]] = {}
        #: Taken times that requested the capability notification.
        self.held: Dict[Timestamp, None] = {}
        #: The latest time a notification or cleanup was delivered at.
        self.complete: Optional[Timestamp] = None

    def on_recv(self, input_port: int, records: List[Diff], timestamp: Timestamp) -> None:
        deferred = self.deferred.get(timestamp)
        if deferred is None:
            complete = self.complete
            if timestamp.counters or (
                timestamp.epoch
                and (complete is None or complete.epoch < timestamp.epoch - 1)
            ):
                deferred = self.deferred[timestamp] = []
                self.notify_at(timestamp)
        if deferred is not None:
            deferred.extend(records)
            return
        entry = self.open.get(timestamp)
        if entry is None:
            entry = self.open[timestamp] = ({}, {})
            self.notify_at(timestamp, capability=False)
        out, corrects = self._take(entry, records)
        if corrects and timestamp not in self.held:
            self.held[timestamp] = None
            self.notify_at(timestamp)
        if out:
            self.send_by(0, out, timestamp)

    def on_notify(self, timestamp: Timestamp) -> None:
        complete = self.complete
        if complete is None or complete < timestamp:
            self.complete = timestamp
        open_times = self.open
        # An earlier time still open holds only a cleanup, which has
        # nothing to send: a capability there is served before this one.
        for time in [time for time in open_times if time.less_than(timestamp)]:
            del open_times[time]
        deferred = self.deferred.pop(timestamp, None)
        if deferred is not None:
            out, _ = self._take(open_times.setdefault(timestamp, ({}, {})), deferred)
        elif timestamp in self.held:
            del self.held[timestamp]
            out = []
        else:
            open_times.pop(timestamp, None)
            return
        counts = self.counts
        before, emitted = open_times.pop(timestamp)
        for record, old in before.items():
            correction = (counts.get(record, 0) > 0) - (old > 0) - (record in emitted)
            if correction:
                out.append((record, correction))
        if out:
            self.send_by(0, out, timestamp)

    def _take(
        self, entry: Tuple[Dict[Any, int], Dict[Any, None]], records: List[Diff]
    ) -> Tuple[List[Diff], bool]:
        """Add a batch at an open time into ``counts``.  Returns the
        ``(record, +1)`` diffs it emits and whether the time may need a
        correction (a retraction, or a negative count before it)."""
        before, emitted = entry
        for record, old in add_counts(self.counts, records).items():
            before.setdefault(record, old)
        out: List[Diff] = []
        corrects = False
        for record, multiplicity in records:
            old = before[record]
            if multiplicity < 0 or old < 0:
                corrects = True
            elif multiplicity and not old and record not in emitted:
                emitted[record] = None
                out.append((record, +1))
        return out, corrects


class IncrementalCountVertex(_EpochDiffVertex):
    """``(key, count)`` maintenance: retract the old count, assert the new."""

    _CONFIG_ATTRS = ("transform", "key")

    def __init__(self, key: Callable[[Any], Any]):
        super().__init__()
        self.key = key
        self.counts: Dict[Any, int] = {}

    def apply(self, diffs: List[Diff]) -> List[Diff]:
        key, counts = self.key, self.counts
        out: List[Diff] = []
        for k, old in add_counts(counts, [(key(r), m) for r, m in diffs]).items():
            new = counts.get(k, 0)
            if new == old:
                continue
            if old > 0:
                out.append(((k, old), -1))
            if new > 0:
                out.append(((k, new), +1))
        return out


class IncrementalReduceVertex(_EpochDiffVertex):
    """Generic keyed reduction over the accumulated multiset.

    ``reducer(key, records)`` (records expanded by multiplicity) returns
    the output records for the group; changed groups retract their old
    output and assert the new one — the incremental analogue of the
    buffering GroupBy of section 4.2.
    """

    _CONFIG_ATTRS = ("transform", "key", "reducer")

    def __init__(
        self,
        key: Callable[[Any], Any],
        reducer: Callable[[Any, List[Any]], Iterable[Any]],
    ):
        super().__init__()
        self.key = key
        self.reducer = reducer
        self.groups: Dict[Any, Dict[Any, int]] = {}
        self.last_output: Dict[Any, List[Any]] = {}

    def apply(self, diffs: List[Diff]) -> List[Diff]:
        key, groups, last_output = self.key, self.groups, self.last_output
        out: List[Diff] = []
        for k in index_diffs(groups, [(key(r), r, m) for r, m in diffs]):
            group = sorted(groups.get(k, {}).items(), key=lambda kv: repr(kv[0]))
            expanded = [record for record, m in group for _ in range(m)]
            new_output = list(self.reducer(k, expanded)) if group else []
            old_output = last_output.get(k, [])
            if new_output == old_output:
                continue
            out.extend((record, -1) for record in old_output)
            out.extend((record, +1) for record in new_output)
            if new_output:
                last_output[k] = new_output
            else:
                del last_output[k]
        return out


class IncrementalJoinVertex(Vertex):
    """Incremental binary equijoin that emits as its inputs arrive.

    Output diffs follow the product rule
    ``d(A ⋈ B) = dA ⋈ B ∪ A ⋈ dB ∪ dA ⋈ dB``: each pair of input diffs
    contributes the product of their multiplicities at the least upper
    bound of their times ([28]).  The later diff of a pair emits it, at
    its own time, which is that bound.

    A diff at ``t`` is joined when it arrives, provided every time
    before ``t`` is known complete.  It meets the other side's compacted
    index, which holds exactly the earlier times (one output per indexed
    record), and the other side's diffs at ``t`` (one output per pair).
    Then it is kept with the diffs at ``t``.  The first touch of ``t``
    requests a capability-free cleanup at ``t`` (section 2.4), which
    delays no one.  Every delivery at ``t`` folds the times ``<= t``
    into the compacted index through :func:`index_diffs`.

    A diff that arrives sooner is buffered under a capability
    notification at ``t`` and joined there.  This rule keeps a batch-fed
    run from piling up every epoch's output downstream.  A capability at
    ``t`` is served before any cleanup at ``t`` or later, so a cleanup
    never finds a buffered diff it would have to send.

    Outputs are never consolidated across input diffs.  Each output
    record is then fixed by the input diffs alone, whatever their
    arrival order, their batching or the timing of cleanups, so a
    partial rollback's replay regenerates exactly the records that its
    record-level suppression expects.

    Completeness is tracked by epoch, which is exact for counter-free
    times: they are totally ordered.  Inside a loop every diff waits for
    its notification, and folding merges incomparable times, the
    approximation a time-free join makes.
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
        #: (left, right) compacted indexes, each key -> {record: multiplicity}.
        self.state: Tuple[Dict, Dict] = ({}, {})
        #: Time -> (left, right) diffs joined at that time and not yet
        #: folded, each key -> [(record, multiplicity)].
        self.open: Dict[Timestamp, Tuple[Dict, Dict]] = {}
        #: Time -> [(port, diffs)] waiting for the notification there.
        self.deferred: Dict[Timestamp, List[Tuple[int, List[Diff]]]] = {}
        #: The latest time a notification or cleanup was delivered at.
        self.complete: Optional[Timestamp] = None

    def on_recv(self, input_port: int, records: List[Diff], timestamp: Timestamp) -> None:
        complete = self.complete
        if timestamp.counters or (
            timestamp.epoch
            and (complete is None or complete.epoch < timestamp.epoch - 1)
        ):
            deferred = self.deferred.get(timestamp)
            if deferred is None:
                deferred = self.deferred[timestamp] = []
                self.notify_at(timestamp)
            deferred.append((input_port, records))
            return
        if timestamp not in self.open:
            self.open[timestamp] = ({}, {})
            self.notify_at(timestamp, capability=False)
        out = self._join(input_port, records, timestamp)
        if out:
            self.send_by(0, out, timestamp)

    def on_notify(self, timestamp: Timestamp) -> None:
        complete = self.complete
        if complete is None or complete < timestamp:
            self.complete = timestamp
        # A deferred diff meets the earlier times in the compacted index
        # and the diffs at ``timestamp`` one pair at a time, as it would
        # have on arrival; ``timestamp`` folds after it.
        self._fold([time for time in self.open if time.less_than(timestamp)])
        deferred = self.deferred.pop(timestamp, None)
        if deferred is not None:
            self.open.setdefault(timestamp, ({}, {}))
            out: List[Diff] = []
            for port, records in deferred:
                out.extend(self._join(port, records, timestamp))
            if out:
                self.send_by(0, out, timestamp)
        self._fold([time for time in self.open if time.less_equal(timestamp)])

    def _fold(self, times: List[Timestamp]) -> None:
        """Fold the diffs open at ``times`` into the compacted index."""
        for time in times:
            for index, entries in zip(self.state, self.open.pop(time)):
                index_diffs(
                    index, [(k, r, m) for k, diffs in entries.items() for r, m in diffs]
                )

    def _join(self, port: int, records: List[Diff], timestamp: Timestamp) -> List[Diff]:
        """Join one batch at ``timestamp`` against the other side's
        compacted index and its diffs at ``timestamp``; add the batch to
        the latter.  Returns the output diffs, one per matched pair."""
        key = self.left_key if port == 0 else self.right_key
        result = self.result
        compacted = self.state[1 - port]
        mine, same_time = self.open[timestamp][port], self.open[timestamp][1 - port]
        out: List[Diff] = []
        # Equal outputs share one tuple: the runtime journals sent batches
        # until the next durable cut, and on k-exposure one output in seven
        # repeats another of its batch.
        shared: Dict[Diff, Diff] = {}
        for diff in records:
            record, multiplicity = diff
            k = key(record)
            for matches in (compacted.get(k, {}).items(), same_time.get(k, ())):
                for match, m in matches:
                    pair = result(record, match) if port == 0 else result(match, record)
                    output = (pair, multiplicity * m)
                    out.append(shared.setdefault(output, output))
            mine.setdefault(k, []).append(diff)
        return out


class UnionFindVertex(_EpochDiffVertex):
    """Incremental connected components over streaming edge additions.

    Input diffs are ``((u, v), +1)`` edges (retractions are rejected —
    the section 6.4 workload only adds mention edges).  Output diffs
    label nodes with their component: ``((node, component_id), ±1)``,
    where the component id is the smallest node id in the component.
    Union by size with per-root member lists makes relabeling total work
    O(n log n).
    """

    def __init__(self):
        super().__init__()
        self.parent: Dict[Any, Any] = {}
        self.members: Dict[Any, List[Any]] = {}
        self.label: Dict[Any, Any] = {}

    def _find(self, node: Any) -> Any:
        root = node
        parent = self.parent
        while parent[root] != root:
            root = parent[root]
        while parent[node] != root:
            parent[node], node = root, parent[node]
        return root

    def union(self, u: Any, v: Any, out: List[Diff]) -> None:
        """Add the edge ``(u, v)``, appending the label diffs it causes
        to ``out``."""
        parent, members, label = self.parent, self.members, self.label
        for node in (u, v):
            if node not in parent:
                parent[node] = label[node] = node
                members[node] = [node]
                out.append(((node, node), +1))
        ru, rv = self._find(u), self._find(v)
        if ru == rv:
            return
        if len(members[ru]) < len(members[rv]):
            ru, rv = rv, ru
        # rv's members join ru.
        new_label = min(label[ru], label[rv])
        old_big = label[ru]
        parent[rv] = ru
        moved = members.pop(rv)
        old_small = label.pop(rv)
        if new_label != old_small:
            for node in moved:
                out.append(((node, old_small), -1))
                out.append(((node, new_label), +1))
        if new_label != old_big:
            for node in members[ru]:
                out.append(((node, old_big), -1))
                out.append(((node, new_label), +1))
        members[ru].extend(moved)
        label[ru] = new_label

    def apply(self, diffs: List[Diff]) -> List[Diff]:
        out: List[Diff] = []
        for (u, v), multiplicity in diffs:
            if multiplicity < 0:
                raise ValueError(
                    "UnionFindVertex handles edge additions only; use a "
                    "full recompute (repro.algorithms.connectivity) for "
                    "deletions"
                )
            self.union(u, v, out)
        return consolidate_diffs(out)


class WindowedConnectedComponentsVertex(UnionFindVertex):
    """Connected components under additions *and* retractions.

    The paper contrasts Naiad with systems whose cyclic dataflows cannot
    retract records, naming sliding-window connected components as an
    algorithm Naiad supports (section 7).  This vertex maintains the
    live edge multiset; addition-only epochs take the incremental
    union-find path, while epochs containing retractions rebuild the
    union-find from the surviving edges (the standard
    recompute-on-delete strategy) and emit only the label diffs.
    """

    def __init__(self):
        super().__init__()
        self.edges: Dict[Any, int] = {}
        self.labels: Dict[Any, Any] = {}

    def apply(self, diffs: List[Diff]) -> List[Diff]:
        edges, labels = self.edges, self.labels
        add_counts(edges, diffs)
        retracted = [edge for edge, m in diffs if m < 0]
        if not retracted:
            out = super().apply(diffs)
            for (node, label), multiplicity in out:
                if multiplicity > 0:
                    labels[node] = label
                elif labels.get(node) == label:
                    del labels[node]
            return out
        for edge in retracted:
            if edges.get(edge, 0) < 0:
                raise ValueError("retracted edge %r was never added" % (edge,))
        # Retraction epoch: rebuild from the surviving multiset.
        self.parent, self.members, self.label = {}, {}, {}
        ignored: List[Diff] = []
        for u, v in edges:
            self.union(u, v, ignored)
        new_labels = {node: self.label[self._find(node)] for node in self.parent}
        out = [
            ((node, label), -1)
            for node, label in labels.items()
            if new_labels.get(node) != label
        ]
        out.extend(
            ((node, label), +1)
            for node, label in new_labels.items()
            if labels.get(node) != label
        )
        self.labels = new_labels
        return out


class Collection:
    """Fluent wrapper over a stream of difference records."""

    __slots__ = ("stream",)

    def __init__(self, stream: Stream):
        self.stream = stream

    @staticmethod
    def from_records(stream: Stream) -> "Collection":
        """Lift a plain record stream: each record becomes ``(r, +1)``."""
        return Collection(stream.select(lambda r: (r, +1), name="as_diffs"))

    # -- linear operators (diff-oblivious) ------------------------------

    def map(self, function: Callable[[Any], Any], name: str = "inc_map") -> "Collection":
        return Collection(
            self.stream.select(lambda d: (function(d[0]), d[1]), name=name)
        )

    def filter(
        self, predicate: Callable[[Any], bool], name: str = "inc_filter"
    ) -> "Collection":
        return Collection(self.stream.where(lambda d: predicate(d[0]), name=name))

    def flat_map(
        self, function: Callable[[Any], Iterable[Any]], name: str = "inc_flat_map"
    ) -> "Collection":
        return Collection(
            self.stream.select_many(
                lambda d: [(r, d[1]) for r in function(d[0])], name=name
            )
        )

    def concat(self, other: "Collection", name: str = "inc_concat") -> "Collection":
        return Collection(self.stream.concat(other.stream, name=name))

    def arrange_by(
        self,
        key: Callable[[Any], Any],
        name: str = "arrange",
        retain: int = 4,
    ):
        """Arrange this collection into a shared epoch-versioned index
        keyed by ``key(record)`` (see :meth:`repro.lib.stream.Stream.
        arrange_by`); returns a :class:`repro.serve.Arrangement`."""
        return self.stream.arrange_by(key, name=name, retain=retain)

    def negate(self, name: str = "inc_negate") -> "Collection":
        return Collection(self.stream.select(lambda d: (d[0], -d[1]), name=name))

    # -- stateful incremental operators ---------------------------------

    def _keyed(self, factory, key, kind, name) -> "Collection":
        return Collection(
            self.stream._unary(
                name,
                factory,
                partitioner=hash_partitioner(RecordKey(key)),
                opspec=_opspec(kind),
            )
        )

    def distinct(
        self, name: str = "inc_distinct", key: Callable[[Any], Any] = lambda r: r
    ) -> "Collection":
        """The records whose accumulated multiplicity is positive, once
        each (:class:`IncrementalDistinctVertex`).

        ``key`` places records and does nothing else: records are
        partitioned by ``key(record)``, the record itself by default.
        Equal records have equal keys, so they always meet at one worker
        and the output is the same whatever the key.  Keying by the next
        keyed operator's own key (the same function object) keeps every
        record on the worker that operator reads it at: the distinct
        preserves its placement, so exchange elision drops the hop
        between them and the distinct adds no network hop.
        """
        return self._keyed(IncrementalDistinctVertex, key, "inc_distinct", name)

    def count_by(
        self, key: Callable[[Any], Any], name: str = "inc_count"
    ) -> "Collection":
        return self._keyed(
            lambda: IncrementalCountVertex(key), key, "inc_count_by", name
        )

    def reduce_by(
        self,
        key: Callable[[Any], Any],
        reducer: Callable[[Any, List[Any]], Iterable[Any]],
        name: str = "inc_reduce",
    ) -> "Collection":
        return self._keyed(
            lambda: IncrementalReduceVertex(key, reducer), key, "inc_reduce_by", name
        )

    def join(
        self,
        other: "Collection",
        left_key: Callable[[Any], Any],
        right_key: Callable[[Any], Any],
        result: Callable[[Any, Any], Any] = lambda lhs, rhs: (lhs, rhs),
        name: str = "inc_join",
    ) -> "Collection":
        stage = self.stream._add_stage(
            name,
            lambda: IncrementalJoinVertex(left_key, right_key, result),
            2,
            1,
            opspec=_opspec("inc_join"),
        )
        self.stream.connect_to(stage, 0, hash_partitioner(RecordKey(left_key)))
        other.stream.connect_to(stage, 1, hash_partitioner(RecordKey(right_key)))
        return Collection(Stream(self.stream.computation, stage, 0))

    def connected_components(
        self, allow_deletions: bool = False, name: str = "inc_cc"
    ) -> "Collection":
        """Incremental CC over ``(u, v)`` edge diffs (section 6.4).

        With ``allow_deletions=False`` (the section 6.4 workload, where
        mention edges only accumulate) retractions raise; with
        ``allow_deletions=True`` the sliding-window variant is used —
        addition epochs stay incremental, deletion epochs recompute.
        The union-find structure is global, so this operator runs on a
        single worker (partition 0); downstream operators re-partition.
        """
        factory = (
            WindowedConnectedComponentsVertex if allow_deletions else UnionFindVertex
        )
        return Collection(
            self.stream._unary(
                name,
                factory,
                partitioner=lambda d: 0,
                opspec=_opspec("inc_connected_components"),
            )
        )

    # -- outputs ---------------------------------------------------------

    def subscribe(
        self,
        callback: Callable[[Timestamp, List[Diff]], None],
        name: str = "inc_subscribe",
    ):
        """``callback(t, diffs)`` per complete epoch (consolidated)."""
        return self.stream.buffered(
            consolidate_diffs, name="%s.consolidate" % name
        ).subscribe(callback, name=name)

    def accumulate_into(self, sink: Dict[Any, int], name: str = "inc_accumulate"):
        """Maintain a live multiset view of the collection in ``sink``."""

        return self.subscribe(lambda t, diffs: add_counts(sink, diffs), name=name)
