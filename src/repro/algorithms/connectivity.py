"""Weakly connected components (sections 5.3, 5.4, 6.1, Table 1).

The Naiad WCC implementation is asynchronous min-label propagation: each
node's label only ever decreases, improvements are forwarded to
neighbours immediately from ``on_recv`` (no coordination — the
uncoordinated-iteration style section 2.4 advocates), and the loop
drains when no label can improve.  This "does less work but takes more,
sparser iterations" — exactly the trade the paper says in-memory state
makes profitable (Table 1 discussion).

Each callback folds its input before it emits, in the spirit of
Pregel's combiner ([27]): it applies the whole batch to the labels,
then offers every destination one label, the smallest, and only when
that label is below the destination's id; and it reports every node's
final label for the callback once.  This is safe because labels only
decrease and a receiver keeps the minimum of what it is offered: a
superseded offer could never change what it settles on, and a label at
or above the destination's id never beats the id the destination
starts from.

The per-epoch graph is the set of edges supplied in that epoch; for
continuously-growing graphs use
:meth:`repro.lib.incremental.Collection.connected_components`.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Tuple

from ..core.timestamp import Timestamp
from ..core.vertex import Vertex
from ..lib.stream import Stream, hash_partitioner
from ..opt.plan import OpSpec


class MinLabelVertex(Vertex):
    """Asynchronous label propagation.

    Input 0: directed adjacency arcs ``(node, neighbour)`` (send both
    orientations for an undirected graph), partitioned by ``node``.
    Input 1: label proposals ``(node, label)`` from the feedback edge.
    Output 0: proposals to neighbours (feeds back), one per destination
    per callback.
    Output 1: label improvements ``(node, label)``, one per node per
    callback; the minimum per node over the epoch is the component label.
    """

    notifies = False

    def __init__(self):
        super().__init__()
        #: epoch -> (adjacency, labels)
        self.state: Dict[int, Tuple[Dict[Any, List[Any]], Dict[Any, Any]]] = {}

    def _epoch_state(self, timestamp: Timestamp):
        state = self.state.get(timestamp.epoch)
        if state is None:
            state = self.state[timestamp.epoch] = ({}, {})
        return state

    def on_recv(self, input_port: int, records: List[Any], timestamp: Timestamp) -> None:
        adjacency, labels = self._epoch_state(timestamp)
        # Apply the whole batch first, then offer each destination one
        # label and report each node's final label once.  Insertion-
        # ordered dicts, so the records sent repeat exactly run to run.
        improved: Dict[Any, Any] = {}
        if input_port == 0:
            for node, neighbour in records:
                edges = adjacency.get(node)
                if edges is None:
                    edges = adjacency[node] = []
                    labels[node] = improved[node] = node
                edges.append(neighbour)
            arcs = records
        else:
            for node, label in records:
                current = labels.get(node)
                if current is None:
                    # A node met first through a proposal still counts
                    # its own id: its arcs may arrive later.
                    adjacency[node] = []
                    labels[node] = improved[node] = min(node, label)
                elif label < current:
                    labels[node] = improved[node] = label
            arcs = [(node, other) for node in improved for other in adjacency[node]]
        # Labels flow strictly along the arcs.  A destination's own label
        # is at most its id, so only a label below it can matter, and of
        # several only the smallest.
        offers: Dict[Any, Any] = {}
        for node, destination in arcs:
            label = labels[node]
            if label < offers.get(destination, destination):
                offers[destination] = label
        if offers:
            self.send_by(0, list(offers.items()), timestamp)
        if improved:
            self.send_by(1, list(improved.items()), timestamp)


def weakly_connected_components(
    edges: Stream,
    max_iterations: Optional[int] = None,
    name: str = "wcc",
) -> Stream:
    """Component labels ``(node, label)`` per epoch of undirected edges.

    ``label`` is the smallest node id in the component.
    """
    arcs = edges.select_many(
        lambda edge: [(edge[0], edge[1]), (edge[1], edge[0])],
        name="%s.arcs" % name,
    )
    labels = label_propagation(arcs, max_iterations=max_iterations, name=name)
    return labels.aggregate_by(
        lambda rec: rec[0],
        lambda rec: rec[1],
        min,
        name="%s.final" % name,
    )


def label_propagation(
    arcs: Stream,
    max_iterations: Optional[int] = None,
    name: str = "minlabel",
) -> Stream:
    """Raw min-label propagation over directed arcs.

    Returns the stream of label improvements (an over-approximation of
    the final labels — reduce with min per node).  Used directly by the
    SCC implementation, which propagates along one direction only.
    """
    computation = arcs.computation
    with computation.scope(name, max_iterations=max_iterations, parent=arcs.context) as scope:
        stage = scope.stage(name, lambda s, w: MinLabelVertex(), 2, 2)
        # Label propagation is monotone (labels only decrease), so
        # merging the queued deliveries of arcs or proposals at one time
        # cannot change the labels it settles on — declare it batchable
        # so the optimizer's coalescing pass can collapse the proposal
        # fan-in, the dominant source of DES events in the loop.
        stage.opspec = OpSpec("minlabel", fusable=False, batchable=True)
        scope.enter(arcs).connect_to(
            stage, 0, partitioner=hash_partitioner(lambda arc: arc[0])
        )
        scope.feed(Stream(computation, stage, 0))
        scope.feedback.connect_to(
            stage, 1, partitioner=hash_partitioner(lambda rec: rec[0])
        )
        out = scope.leave_with(Stream(computation, stage, 1))
    return out


def wcc_oracle(edges: List[Tuple[Any, Any]]) -> Dict[Any, Any]:
    """Reference answer: min-id component labels via union-find."""
    parent: Dict[Any, Any] = {}

    def find(x):
        root = x
        while parent[root] != root:
            root = parent[root]
        while parent[x] != root:
            parent[x], x = root, parent[x]
        return root

    for u, v in edges:
        for node in (u, v):
            if node not in parent:
                parent[node] = node
        ru, rv = find(u), find(v)
        if ru != rv:
            parent[max(ru, rv)] = min(ru, rv)
    return {node: find(node) for node in parent}
