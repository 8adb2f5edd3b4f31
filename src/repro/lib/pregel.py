"""A Pregel (bulk synchronous parallel) library on timely dataflow (§4.2).

The paper ports Pregel [27] as a library: a custom vertex with several
strongly typed inputs and outputs (messages, aggregated values, graph
mutations), connected via multiple feedback edges in parallel.  This
module reproduces that construction:

- one timely stage hosts the graph partition; loop iterations are
  Pregel supersteps;
- messages flow around a feedback edge, partitioned by target node;
- an optional global aggregator flows around a second, parallel
  feedback edge and is broadcast to every worker;
- graph mutations (add/remove edges) travel with messages;
- the optional ``combine`` folds messages per target where they are
  received (``PregelVertex.on_recv``), never before they are sent: the
  sender ships every message its nodes produce.  Folding ``outgoing``
  per target in ``on_notify`` was measured and rejected, because it
  made the Pregel port cheaper than the hand-written vertex, inverting
  Fig 7a's ordering (DESIGN.md, ``repro.lib``).

The user supplies a *vertex program*::

    def compute(ctx: NodeContext) -> None:
        # read ctx.node, ctx.state, ctx.messages, ctx.superstep,
        #      ctx.aggregate, ctx.edges
        ctx.send(target, message)       # deliver next superstep
        ctx.set_state(new_state)
        ctx.add_edge(dst) / ctx.remove_edge(dst)
        ctx.contribute(value)           # to the global aggregator
        ctx.vote_to_halt()

A node is *active* in superstep ``s`` if it received messages or did not
vote to halt in ``s - 1``.  When every node halts and no messages are in
flight the loop drains; final states are emitted when nodes halt (and
re-emitted if reactivated) or at ``max_supersteps``.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, List, Optional, Tuple

from ..core.timestamp import Timestamp
from ..core.vertex import Vertex
from .stream import Stream, hash_partitioner


class NodeContext:
    """Per-node view handed to the vertex program each superstep."""

    __slots__ = (
        "node",
        "state",
        "edges",
        "messages",
        "superstep",
        "aggregate",
        "_outgoing",
        "_contributions",
        "_halted",
        "_mutated",
    )

    def __init__(self, node, state, edges, messages, superstep, aggregate):
        self.node = node
        self.state = state
        self.edges = edges
        self.messages = messages
        self.superstep = superstep
        self.aggregate = aggregate
        self._outgoing: List[Tuple[Any, Any]] = []
        self._contributions: List[Any] = []
        self._halted = False
        self._mutated = False

    def send(self, target: Any, message: Any) -> None:
        """Deliver ``message`` to ``target`` in the next superstep."""
        self._outgoing.append((target, message))

    def send_to_neighbors(self, message: Any) -> None:
        for target in self.edges:
            self._outgoing.append((target, message))

    def set_state(self, state: Any) -> None:
        self.state = state

    def add_edge(self, dst: Any) -> None:
        """Graph mutation: add an out-edge (visible next superstep)."""
        self.edges.append(dst)
        self._mutated = True

    def remove_edge(self, dst: Any) -> None:
        """Graph mutation: remove one out-edge if present."""
        try:
            self.edges.remove(dst)
            self._mutated = True
        except ValueError:
            pass

    def contribute(self, value: Any) -> None:
        """Add ``value`` to the global aggregate for the next superstep."""
        self._contributions.append(value)

    def vote_to_halt(self) -> None:
        self._halted = True


class _NodeRecord(object):
    __slots__ = ("state", "edges", "halted")

    def __init__(self, state, edges):
        self.state = state
        self.edges = edges
        self.halted = False


class PregelVertex(Vertex):
    """The custom timely vertex hosting one partition of the graph.

    Inputs: 0 = initial graph (via ingress), 1 = messages (feedback),
    2 = aggregate broadcast (second feedback, present when aggregation
    is enabled).  Outputs: 0 = messages, 1 = final states,
    2 = aggregator contributions.
    """

    _CONFIG_ATTRS = ("compute", "combine", "aggregate_combine")

    def __init__(
        self,
        compute: Callable[[NodeContext], None],
        max_supersteps: int,
        combine: Optional[Callable[[Any, Any], Any]] = None,
        aggregate_combine: Optional[Callable[[Any, Any], Any]] = None,
    ):
        super().__init__()
        self.compute = compute
        self.max_supersteps = max_supersteps
        self.combine = combine
        self.aggregate_combine = aggregate_combine
        #: epoch -> {node: _NodeRecord}; graph state is per input epoch.
        self.graphs: Dict[int, Dict[Any, _NodeRecord]] = {}
        #: timestamp -> {node: [messages]} for the *current* superstep.
        self.inbox: Dict[Timestamp, Dict[Any, List[Any]]] = {}
        #: timestamp -> aggregate value from the previous superstep.
        self.aggregates: Dict[Timestamp, Any] = {}
        self._notified = set()

    # ------------------------------------------------------------------

    def _request(self, timestamp: Timestamp) -> None:
        if timestamp not in self._notified:
            self._notified.add(timestamp)
            self.notify_at(timestamp)

    def on_recv(self, input_port: int, records: List[Any], timestamp: Timestamp) -> None:
        if input_port == 0:
            graph = self.graphs.setdefault(timestamp.epoch, {})
            for node, state, edges in records:
                graph[node] = _NodeRecord(state, list(edges))
            self._request(timestamp)
        elif input_port == 1:
            inbox = self.inbox.setdefault(timestamp, {})
            combine = self.combine
            for target, message in records:
                if combine is not None and target in inbox and inbox[target]:
                    inbox[target][0] = combine(inbox[target][0], message)
                else:
                    inbox.setdefault(target, []).append(message)
            self._request(timestamp)
        else:
            for _peer, value in records:
                if timestamp in self.aggregates and self.aggregate_combine:
                    self.aggregates[timestamp] = self.aggregate_combine(
                        self.aggregates[timestamp], value
                    )
                else:
                    self.aggregates[timestamp] = value
            self._request(timestamp)

    def on_notify(self, timestamp: Timestamp) -> None:
        self._notified.discard(timestamp)
        superstep = timestamp.counters[-1]
        graph = self.graphs.get(timestamp.epoch)
        if graph is None:
            return
        inbox = self.inbox.pop(timestamp, {})
        aggregate = self.aggregates.pop(timestamp, None)
        outgoing: List[Tuple[Any, Any]] = []
        contributions: List[Any] = []
        finals: List[Tuple[Any, Any]] = []
        last = superstep >= self.max_supersteps - 1
        for node, record in graph.items():
            messages = inbox.get(node, [])
            if record.halted and not messages:
                continue
            record.halted = False
            ctx = NodeContext(
                node, record.state, record.edges, messages, superstep, aggregate
            )
            self.compute(ctx)
            record.state = ctx.state
            record.edges = ctx.edges
            outgoing.extend(ctx._outgoing)
            contributions.extend(ctx._contributions)
            if ctx._halted:
                record.halted = True
            if ctx._halted or last:
                finals.append((node, ctx.state, superstep))
        if outgoing and not last:
            self.send_by(0, outgoing, timestamp)
        if contributions and not last and self.stage.num_outputs > 2:
            self.send_by(2, contributions, timestamp)
        if finals:
            self.send_by(1, finals, timestamp)


class _AggregatorVertex(Vertex):
    """Reduces contributions and broadcasts the result to all workers."""

    _CONFIG_ATTRS = ("combine",)

    def __init__(self, combine: Callable[[Any, Any], Any]):
        super().__init__()
        self.combine = combine
        self.partial: Dict[Timestamp, Any] = {}

    def on_recv(self, input_port: int, records: List[Any], timestamp: Timestamp) -> None:
        if timestamp not in self.partial:
            self.partial[timestamp] = records[0]
            records = records[1:]
            self.notify_at(timestamp)
        value = self.partial[timestamp]
        for record in records:
            value = self.combine(value, record)
        self.partial[timestamp] = value

    def on_notify(self, timestamp: Timestamp) -> None:
        value = self.partial.pop(timestamp)
        self.send_by(0, [(peer, value) for peer in range(self.peers)], timestamp)


def pregel(
    graph_stream: Stream,
    compute: Callable[[NodeContext], None],
    max_supersteps: int,
    combine: Optional[Callable[[Any, Any], Any]] = None,
    aggregator: Optional[Callable[[Any, Any], Any]] = None,
    name: str = "pregel",
) -> Stream:
    """Assemble the Pregel dataflow around ``graph_stream``.

    ``graph_stream`` carries ``(node, initial_state, [out_edges])``
    records; the returned stream carries ``(node, state, superstep)``
    triples, emitted when a node halts or at the final superstep.  A
    node reactivated after halting emits again at a later superstep;
    :func:`final_states` reduces to the authoritative value per node.
    """
    computation = graph_stream.computation
    num_outputs = 3 if aggregator is not None else 2
    num_inputs = 3 if aggregator is not None else 2
    with graph_stream.scoped_loop(name=name, max_iterations=max_supersteps) as loop:
        stage = loop.stage(
            name,
            lambda s, w: PregelVertex(compute, max_supersteps, combine, aggregator),
            num_inputs,
            num_outputs,
        )
        loop.entered.connect_to(
            stage, 0, partitioner=hash_partitioner(lambda rec: rec[0])
        )
        # Messages: body output 0 -> feedback -> input 1, routed by target.
        loop.feed(Stream(computation, stage, 0))
        loop.feedback.connect_to(
            stage, 1, partitioner=hash_partitioner(lambda rec: rec[0])
        )
        if aggregator is not None:
            agg_stage = loop.stage(
                "%s.aggregate" % name,
                lambda s, w: _AggregatorVertex(aggregator),
                1,
                1,
            )
            Stream(computation, stage, 2).connect_to(
                agg_stage, 0, partitioner=lambda rec: 0
            )
            agg_feedback = loop.feedback_edge(max_supersteps)
            agg_feedback.feed(Stream(computation, agg_stage, 0))
            agg_feedback.stream.connect_to(
                stage, 2, partitioner=lambda rec: rec[0]
            )
        out = loop.leave_with(Stream(computation, stage, 1))
    return out


def final_states(states: Stream, name: str = "pregel_final") -> Stream:
    """Reduce ``(node, state, superstep)`` emissions to one per node.

    Keeps the highest-superstep emission for each node and outputs
    ``(node, state)`` once the epoch is complete.
    """

    return states.group_by(
        lambda rec: rec[0],
        lambda node, recs: [(node, max(recs, key=lambda r: r[2])[1])],
        name=name,
    )
