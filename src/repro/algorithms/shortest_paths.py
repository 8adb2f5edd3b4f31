"""Approximate shortest paths via landmarks (Table 1's ASP).

All-pairs shortest paths on web-scale graphs is approximated by exact
BFS from a set of landmark nodes; the distance between any two nodes is
then estimated through the triangle inequality over landmarks — the
standard sketch the literature (and the paper's 1,131-second ASP run)
uses.  The dataflow is asynchronous multi-source BFS: per-node state
holds the best known distance to each landmark, improvements propagate
immediately from ``on_recv`` without coordination, and the loop drains
at the fixed point.

Each callback applies its whole batch first, then sends every
``(destination, landmark)`` one offer and reports every
``(node, landmark)`` once, each time with the final distance for the
callback.  Distances only decrease and a receiver keeps the minimum, so
the superseded values this drops could never have changed the answer.
"""

from __future__ import annotations

from collections import deque
from typing import Any, Dict, List, Optional, Sequence, Tuple

from ..core.timestamp import Timestamp
from ..core.vertex import Vertex
from ..lib.stream import Stream, hash_partitioner


class MultiSourceBfsVertex(Vertex):
    """Asynchronous BFS from several landmarks simultaneously.

    Input 0 (by node): ``("edge", node, neighbour)`` adjacency arcs and
    ``("seed", landmark, landmark)`` seed records.  Input 1: distance
    proposals ``(node, landmark, distance)`` from the feedback edge.
    Output 0: proposals.  Output 1: improvements (reduce with min per
    ``(node, landmark)`` downstream).
    """

    def __init__(self):
        super().__init__()
        #: epoch -> (adjacency, {node: {landmark: best distance}})
        self.state: Dict[int, Tuple[Dict, Dict]] = {}

    def _epoch_state(self, epoch: int):
        state = self.state.get(epoch)
        if state is None:
            state = self.state[epoch] = ({}, {})
        return state

    def on_recv(self, input_port: int, records: List[Any], timestamp: Timestamp) -> None:
        adjacency, distances = self._epoch_state(timestamp.epoch)
        # Apply the whole batch first, then send each (destination,
        # landmark) one offer and report each (node, landmark) once.
        # Insertion-ordered dicts, so the records sent repeat exactly.
        improved: Dict[Tuple[Any, Any], int] = {}

        def improve(node, landmark, distance):
            best = distances.setdefault(node, {})
            current = best.get(landmark)
            if current is None or distance < current:
                best[landmark] = improved[(node, landmark)] = distance

        new_arcs: List[Tuple[Any, Any]] = []
        if input_port == 0:
            for kind, node, payload in records:
                if kind == "edge":
                    adjacency.setdefault(node, []).append(payload)
                    new_arcs.append((node, payload))
                else:  # seed
                    improve(node, payload, 0)
        else:
            for node, landmark, distance in records:
                improve(node, landmark, distance)
        known = [
            (neighbour, landmark, distance)
            for (node, landmark), distance in improved.items()
            for neighbour in adjacency.get(node, ())
        ]
        # Late edges forward whatever this node already knows.
        known += [
            (neighbour, landmark, distance)
            for node, neighbour in new_arcs
            for landmark, distance in distances.get(node, {}).items()
        ]
        offers: Dict[Tuple[Any, Any], int] = {}
        for neighbour, landmark, distance in known:
            current = offers.get((neighbour, landmark))
            if current is None or distance < current:
                offers[(neighbour, landmark)] = distance
        if offers:
            self.send_by(
                0, [(node, lm, d + 1) for (node, lm), d in offers.items()], timestamp
            )
        if improved:
            self.send_by(
                1, [(node, lm, d) for (node, lm), d in improved.items()], timestamp
            )


def approximate_shortest_paths(
    edges: Stream,
    landmarks: Sequence[Any],
    max_iterations: Optional[int] = None,
    name: str = "asp",
) -> Stream:
    """``((node, landmark), distance)`` per epoch of undirected edges."""
    landmarks = list(landmarks)

    def to_records(edge):
        u, v = edge
        return [("edge", u, v), ("edge", v, u)]

    arcs = edges.select_many(to_records, name="%s.arcs" % name)
    computation = edges.computation
    seeded = arcs.concat(
        edges.buffered(
            lambda records: [("seed", landmark, landmark) for landmark in landmarks]
            if records
            else [],
            partitioner=lambda record: 0,
            name="%s.seeds" % name,
        ),
        name="%s.input" % name,
    )
    with seeded.scoped_loop(name=name, max_iterations=max_iterations) as loop:
        stage = loop.stage(name, lambda s, w: MultiSourceBfsVertex(), 2, 2)
        loop.entered.connect_to(
            stage, 0, partitioner=hash_partitioner(lambda rec: rec[1])
        )
        loop.feed(Stream(computation, stage, 0))
        loop.feedback.connect_to(
            stage, 1, partitioner=hash_partitioner(lambda rec: rec[0])
        )
        improvements = loop.leave_with(Stream(computation, stage, 1))
    return improvements.aggregate_by(
        lambda rec: (rec[0], rec[1]),
        lambda rec: rec[2],
        min,
        name="%s.final" % name,
    )


def asp_oracle(
    edges: List[Tuple[Any, Any]], landmarks: Sequence[Any]
) -> Dict[Tuple[Any, Any], int]:
    """Reference BFS distances from each landmark (undirected)."""
    adjacency: Dict[Any, List[Any]] = {}
    for u, v in edges:
        adjacency.setdefault(u, []).append(v)
        adjacency.setdefault(v, []).append(u)
    result: Dict[Tuple[Any, Any], int] = {}
    for landmark in landmarks:
        if landmark not in adjacency:
            result[(landmark, landmark)] = 0
            continue
        distances = {landmark: 0}
        queue = deque([landmark])
        while queue:
            node = queue.popleft()
            for neighbour in adjacency[node]:
                if neighbour not in distances:
                    distances[neighbour] = distances[node] + 1
                    queue.append(neighbour)
        for node, distance in distances.items():
            result[(node, landmark)] = distance
    return result
