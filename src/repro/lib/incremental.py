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
unchanged.  :class:`UnionFindVertex` implements the incremental
connected-components kernel used by section 6.4 (edge additions, as in
the tweet stream of Figure 1, where mentions only accumulate).
"""

from __future__ import annotations

from typing import Any, Callable, Dict, Iterable, List, Tuple

from ..core.timestamp import Timestamp
from ..core.vertex import Vertex
from .stream import Stream, hash_partitioner


Diff = Tuple[Any, int]


def consolidate_diffs(diffs: Iterable[Diff]) -> List[Diff]:
    """Sum multiplicities per record, dropping zeros."""
    acc: Dict[Any, int] = {}
    for record, multiplicity in diffs:
        acc[record] = acc.get(record, 0) + multiplicity
    return [(record, m) for record, m in acc.items() if m != 0]


class _EpochDiffVertex(Vertex):
    """Base for per-epoch incremental operators.

    Buffers an epoch's diffs, and on notification applies them to the
    cross-epoch state via :meth:`apply`, emitting output diffs.
    """

    def __init__(self):
        super().__init__()
        self.pending: Dict[Timestamp, List[Diff]] = {}

    def on_recv(self, input_port: int, records: List[Diff], timestamp: Timestamp) -> None:
        pending = self.pending.get(timestamp)
        if pending is None:
            pending = self.pending[timestamp] = []
            self.notify_at(timestamp)
        pending.extend(records)

    def on_notify(self, timestamp: Timestamp) -> None:
        diffs = consolidate_diffs(self.pending.pop(timestamp, []))
        out = self.apply(diffs)
        if out:
            self.send_by(0, out, timestamp)

    def apply(self, diffs: List[Diff]) -> List[Diff]:
        raise NotImplementedError


class IncrementalDistinctVertex(_EpochDiffVertex):
    """Distinct over the accumulated collection.

    Emits ``(record, +1)`` when a record's multiplicity becomes
    positive and ``(record, -1)`` when it returns to zero.
    """

    def __init__(self):
        super().__init__()
        self.counts: Dict[Any, int] = {}

    def apply(self, diffs: List[Diff]) -> List[Diff]:
        out: List[Diff] = []
        for record, multiplicity in diffs:
            old = self.counts.get(record, 0)
            new = old + multiplicity
            if new:
                self.counts[record] = new
            else:
                self.counts.pop(record, None)
            if old <= 0 < new:
                out.append((record, +1))
            elif new <= 0 < old:
                out.append((record, -1))
        return out


class IncrementalCountVertex(_EpochDiffVertex):
    """``(key, count)`` maintenance: retract the old count, assert the new."""

    _CONFIG_ATTRS = ("key",)

    def __init__(self, key: Callable[[Any], Any]):
        super().__init__()
        self.key = key
        self.counts: Dict[Any, int] = {}

    def apply(self, diffs: List[Diff]) -> List[Diff]:
        key = self.key
        touched: Dict[Any, int] = {}
        for record, multiplicity in diffs:
            k = key(record)
            if k not in touched:
                touched[k] = self.counts.get(k, 0)
            self.counts[k] = self.counts.get(k, 0) + multiplicity
        out: List[Diff] = []
        for k, old in touched.items():
            new = self.counts.get(k, 0)
            if new == 0:
                self.counts.pop(k, None)
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

    _CONFIG_ATTRS = ("key", "reducer")

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

    def _expand(self, group: Dict[Any, int]) -> List[Any]:
        out: List[Any] = []
        for record, multiplicity in sorted(group.items(), key=lambda kv: repr(kv[0])):
            out.extend([record] * multiplicity)
        return out

    def apply(self, diffs: List[Diff]) -> List[Diff]:
        key = self.key
        # Insertion-ordered: changed groups are emitted in first-touch
        # order, independent of how their keys hash.
        touched: Dict[Any, None] = {}
        for record, multiplicity in diffs:
            k = key(record)
            group = self.groups.setdefault(k, {})
            group[record] = group.get(record, 0) + multiplicity
            if group[record] == 0:
                del group[record]
            touched[k] = None
        out: List[Diff] = []
        for k in touched:
            group = self.groups.get(k, {})
            new_output = list(self.reducer(k, self._expand(group))) if group else []
            old_output = self.last_output.get(k, [])
            if new_output == old_output:
                continue
            out.extend((record, -1) for record in old_output)
            out.extend((record, +1) for record in new_output)
            if new_output:
                self.last_output[k] = new_output
            else:
                self.last_output.pop(k, None)
            if not group:
                self.groups.pop(k, None)
        return out


class IncrementalJoinVertex(Vertex):
    """Incremental binary equijoin over accumulated inputs.

    Output diffs follow the product rule:
    ``d(A ⋈ B) = dA ⋈ B ∪ A ⋈ dB ∪ dA ⋈ dB``.
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
        self.state: Tuple[Dict[Any, Dict[Any, int]], Dict[Any, Dict[Any, int]]] = (
            {},
            {},
        )
        self.pending: Dict[Timestamp, Tuple[List[Diff], List[Diff]]] = {}

    def on_recv(self, input_port: int, records: List[Diff], timestamp: Timestamp) -> None:
        pending = self.pending.get(timestamp)
        if pending is None:
            pending = self.pending[timestamp] = ([], [])
            self.notify_at(timestamp)
        pending[input_port].extend(records)

    def on_notify(self, timestamp: Timestamp) -> None:
        left_diffs, right_diffs = self.pending.pop(timestamp, ([], []))
        left_diffs = consolidate_diffs(left_diffs)
        right_diffs = consolidate_diffs(right_diffs)
        left_state, right_state = self.state
        result = self.result
        out: List[Diff] = []
        # dB against old A.
        for record, multiplicity in right_diffs:
            k = self.right_key(record)
            for other, m in left_state.get(k, {}).items():
                out.append((result(other, record), multiplicity * m))
            index = right_state.setdefault(k, {})
            index[record] = index.get(record, 0) + multiplicity
            if index[record] == 0:
                del index[record]
                if not index:
                    del right_state[k]
        # dA against new B (covers A ⋈ dB's missing dA ⋈ dB term).
        for record, multiplicity in left_diffs:
            k = self.left_key(record)
            for other, m in right_state.get(k, {}).items():
                out.append((result(record, other), multiplicity * m))
            index = left_state.setdefault(k, {})
            index[record] = index.get(record, 0) + multiplicity
            if index[record] == 0:
                del index[record]
                if not index:
                    del left_state[k]
        out = consolidate_diffs(out)
        if out:
            self.send_by(0, out, timestamp)


class UnionFindVertex(Vertex):
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
        self.pending: Dict[Timestamp, List[Diff]] = {}

    def on_recv(self, input_port: int, records: List[Diff], timestamp: Timestamp) -> None:
        pending = self.pending.get(timestamp)
        if pending is None:
            pending = self.pending[timestamp] = []
            self.notify_at(timestamp)
        pending.extend(records)

    def _find(self, node: Any) -> Any:
        root = node
        parent = self.parent
        while parent[root] != root:
            root = parent[root]
        while parent[node] != root:
            parent[node], node = root, parent[node]
        return root

    def _ensure(self, node: Any, out: List[Diff]) -> None:
        if node not in self.parent:
            self.parent[node] = node
            self.members[node] = [node]
            self.label[node] = node
            out.append(((node, node), +1))

    def on_notify(self, timestamp: Timestamp) -> None:
        out: List[Diff] = []
        for (u, v), multiplicity in consolidate_diffs(self.pending.pop(timestamp, [])):
            if multiplicity < 0:
                raise ValueError(
                    "UnionFindVertex handles edge additions only; use a "
                    "full recompute (repro.algorithms.connectivity) for "
                    "deletions"
                )
            self._ensure(u, out)
            self._ensure(v, out)
            ru, rv = self._find(u), self._find(v)
            if ru == rv:
                continue
            if len(self.members[ru]) < len(self.members[rv]):
                ru, rv = rv, ru
            # rv's members join ru.
            new_label = min(self.label[ru], self.label[rv])
            old_big = self.label[ru]
            self.parent[rv] = ru
            moved = self.members.pop(rv)
            old_small = self.label.pop(rv)
            if new_label != old_small:
                for node in moved:
                    out.append(((node, old_small), -1))
                    out.append(((node, new_label), +1))
            if new_label != old_big:
                for node in self.members[ru]:
                    out.append(((node, old_big), -1))
                    out.append(((node, new_label), +1))
            self.members[ru].extend(moved)
            self.label[ru] = new_label
        out = consolidate_diffs(out)
        if out:
            self.send_by(0, out, timestamp)


class WindowedConnectedComponentsVertex(_EpochDiffVertex):
    """Connected components under additions *and* retractions.

    The paper contrasts Naiad with systems whose cyclic dataflows cannot
    retract records, naming sliding-window connected components as an
    algorithm Naiad supports (section 7).  This vertex maintains the
    live edge multiset; addition-only epochs take the incremental
    union-find fast path, while epochs containing retractions rebuild
    the union-find from the surviving edges (cost O(E α) — the standard
    recompute-on-delete strategy) and emit only the label diffs.
    """

    def __init__(self):
        super().__init__()
        self.edges: Dict[Any, int] = {}
        self.labels: Dict[Any, Any] = {}
        self._fast = UnionFindVertex()

    def apply(self, diffs: List[Diff]) -> List[Diff]:
        has_deletion = any(m < 0 for _, m in diffs)
        for edge, multiplicity in diffs:
            count = self.edges.get(edge, 0) + multiplicity
            if count < 0:
                raise ValueError("retracted edge %r was never added" % (edge,))
            if count:
                self.edges[edge] = count
            else:
                self.edges.pop(edge, None)
        if not has_deletion:
            out: List[Diff] = []
            for (u, v), multiplicity in diffs:
                self._fast._ensure(u, out)
                self._fast._ensure(v, out)
                ru, rv = self._fast._find(u), self._fast._find(v)
                if ru == rv:
                    continue
                if len(self._fast.members[ru]) < len(self._fast.members[rv]):
                    ru, rv = rv, ru
                new_label = min(self._fast.label[ru], self._fast.label[rv])
                old_big = self._fast.label[ru]
                old_small = self._fast.label.pop(rv)
                self._fast.parent[rv] = ru
                moved = self._fast.members.pop(rv)
                if new_label != old_small:
                    for node in moved:
                        out.append(((node, old_small), -1))
                        out.append(((node, new_label), +1))
                if new_label != old_big:
                    for node in self._fast.members[ru]:
                        out.append(((node, old_big), -1))
                        out.append(((node, new_label), +1))
                self._fast.members[ru].extend(moved)
                self._fast.label[ru] = new_label
            for (node, label), multiplicity in consolidate_diffs(out):
                if multiplicity > 0:
                    self.labels[node] = label
                elif self.labels.get(node) == label:
                    del self.labels[node]
            return consolidate_diffs(out)
        # Retraction epoch: rebuild from the surviving multiset.
        parent: Dict[Any, Any] = {}

        def find(x):
            while parent[x] != x:
                parent[x] = parent[parent[x]]
                x = parent[x]
            return x

        for u, v in self.edges:
            parent.setdefault(u, u)
            parent.setdefault(v, v)
            ru, rv = find(u), find(v)
            if ru != rv:
                parent[max(ru, rv)] = min(ru, rv)
        new_labels = {node: find(node) for node in parent}
        out = []
        for node, label in self.labels.items():
            if new_labels.get(node) != label:
                out.append(((node, label), -1))
        for node, label in new_labels.items():
            if self.labels.get(node) != label:
                out.append(((node, label), +1))
        self.labels = new_labels
        # Reset the fast path to match the rebuilt state.
        self._fast = UnionFindVertex()
        for u, v in self.edges:
            self._fast._ensure(u, [])
            self._fast._ensure(v, [])
            ru, rv = self._fast._find(u), self._fast._find(v)
            if ru == rv:
                continue
            if len(self._fast.members[ru]) < len(self._fast.members[rv]):
                ru, rv = rv, ru
            new_label = min(self._fast.label[ru], self._fast.label[rv])
            self._fast.label.pop(rv)
            self._fast.parent[rv] = ru
            self._fast.members[ru].extend(self._fast.members.pop(rv))
            self._fast.label[ru] = new_label
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

    def _keyed(self, factory, key, name) -> "Collection":
        return Collection(
            self.stream._unary(
                name, factory, partitioner=hash_partitioner(lambda d: key(d[0]))
            )
        )

    def distinct(self, name: str = "inc_distinct") -> "Collection":
        return self._keyed(IncrementalDistinctVertex, lambda r: r, name)

    def count_by(
        self, key: Callable[[Any], Any], name: str = "inc_count"
    ) -> "Collection":
        return self._keyed(lambda: IncrementalCountVertex(key), key, name)

    def reduce_by(
        self,
        key: Callable[[Any], Any],
        reducer: Callable[[Any, List[Any]], Iterable[Any]],
        name: str = "inc_reduce",
    ) -> "Collection":
        return self._keyed(lambda: IncrementalReduceVertex(key, reducer), key, name)

    def join(
        self,
        other: "Collection",
        left_key: Callable[[Any], Any],
        right_key: Callable[[Any], Any],
        result: Callable[[Any, Any], Any] = lambda lhs, rhs: (lhs, rhs),
        name: str = "inc_join",
    ) -> "Collection":
        stage = self.stream._add_stage(
            name, lambda: IncrementalJoinVertex(left_key, right_key, result), 2, 1
        )
        self.stream.connect_to(
            stage, 0, hash_partitioner(lambda d: left_key(d[0]))
        )
        other.stream.connect_to(
            stage, 1, hash_partitioner(lambda d: right_key(d[0]))
        )
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
            self.stream._unary(name, factory, partitioner=lambda d: 0)
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

        def apply(timestamp, diffs):
            for record, multiplicity in diffs:
                new = sink.get(record, 0) + multiplicity
                if new:
                    sink[record] = new
                else:
                    sink.pop(record, None)

        return self.subscribe(apply, name=name)
