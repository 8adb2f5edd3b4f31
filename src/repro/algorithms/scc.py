"""Strongly connected components (Table 1).

The paper's SCC (161 lines, their second-longest application) layers
repeated reachability computations on the WCC machinery.  This is the
classic forward-backward coloring scheme expressed with timely dataflow
label propagation:

1. *Color*: propagate min node ids along forward edges; ``color[v]`` is
   the smallest id that can reach ``v``, and nodes with
   ``color[r] == r`` are roots.
2. *Mark*: propagate min ids along *reversed* edges restricted to
   same-color nodes; a node whose backward label equals its color can
   also reach its root, so root and node are strongly connected.
3. Extract those SCCs, drop their nodes, repeat on the remainder.

Each propagation runs as one input epoch of a single dataflow (the
per-epoch collection semantics of section 4.2 make consecutive phases
independent), with the driver loop feeding phase inputs — the pattern
the paper calls "algorithms that perform more and sparser iterations",
profitable because state stays in memory between phases.
"""

from __future__ import annotations

from typing import Any, Dict, List, Set, Tuple

from ..lib.stream import Stream
from .connectivity import label_propagation

Edge = Tuple[Any, Any]


def strongly_connected_components(
    computation_factory,
    edges: List[Edge],
    max_rounds: int = 64,
) -> Dict[Any, Any]:
    """Compute SCC labels (smallest member id per component).

    ``computation_factory`` builds a fresh computation per call —
    either :class:`repro.core.Computation` or a configured
    :class:`repro.runtime.ClusterComputation` — so Table 1 benchmarks
    can run the identical algorithm on the simulated cluster.
    """
    comp = computation_factory()
    inp = comp.new_input()
    results: Dict[int, Dict[Any, Any]] = {}

    def collect(timestamp, records):
        epoch = results.setdefault(timestamp.epoch, {})
        for node, label in records:
            if node not in epoch or label < epoch[node]:
                epoch[node] = label

    arcs = Stream.from_input(inp)
    label_propagation(arcs).subscribe(collect)
    comp.build()

    # A dict, not a set: the self-arcs below enter in first-seen order,
    # which no hash decides.
    remaining_nodes = dict.fromkeys(node for edge in edges for node in edge)
    remaining_edges = list(edges)
    assignment: Dict[Any, Any] = {}
    epoch = 0

    for _round in range(max_rounds):
        if not remaining_nodes:
            break
        # Phase 1: forward coloring.  Isolated nodes (no remaining
        # edges) participate via self-arcs so they still get colors.
        forward = [(u, v) for u, v in remaining_edges] + [
            (n, n) for n in remaining_nodes
        ]
        inp.on_next(forward)
        comp.run()
        colors = results.pop(epoch)
        epoch += 1
        # Phase 2: backward marking within color classes.
        backward = [
            (v, u)
            for u, v in remaining_edges
            if colors[u] == colors[v]
        ] + [(n, n) for n in remaining_nodes]
        inp.on_next(backward)
        comp.run()
        marks = results.pop(epoch)
        epoch += 1
        # A node is in its root's SCC iff its backward label reached the
        # root (the minimum of its color class).
        for node in remaining_nodes:
            if marks[node] == colors[node]:
                assignment[node] = colors[node]
        remaining_nodes = dict.fromkeys(
            node for node in remaining_nodes if node not in assignment
        )
        remaining_edges = [
            (u, v)
            for u, v in remaining_edges
            if u not in assignment and v not in assignment
        ]
    else:
        raise RuntimeError("SCC did not converge within max_rounds")

    inp.on_completed()
    comp.run()
    return assignment


def scc_oracle(edges: List[Edge]) -> Dict[Any, Any]:
    """Reference SCC labels via iterative Tarjan."""
    graph: Dict[Any, List[Any]] = {}
    for u, v in edges:
        graph.setdefault(u, []).append(v)
        graph.setdefault(v, [])
    index: Dict[Any, int] = {}
    lowlink: Dict[Any, int] = {}
    on_stack: Set[Any] = set()
    stack: List[Any] = []
    labels: Dict[Any, Any] = {}
    counter = [0]

    for start in graph:
        if start in index:
            continue
        work = [(start, iter(graph[start]))]
        index[start] = lowlink[start] = counter[0]
        counter[0] += 1
        stack.append(start)
        on_stack.add(start)
        while work:
            node, successors = work[-1]
            advanced = False
            for succ in successors:
                if succ not in index:
                    index[succ] = lowlink[succ] = counter[0]
                    counter[0] += 1
                    stack.append(succ)
                    on_stack.add(succ)
                    work.append((succ, iter(graph[succ])))
                    advanced = True
                    break
                if succ in on_stack:
                    lowlink[node] = min(lowlink[node], index[succ])
            if advanced:
                continue
            work.pop()
            if work:
                parent = work[-1][0]
                lowlink[parent] = min(lowlink[parent], lowlink[node])
            if lowlink[node] == index[node]:
                component = []
                while True:
                    member = stack.pop()
                    on_stack.discard(member)
                    component.append(member)
                    if member == node:
                        break
                label = min(component)
                for member in component:
                    labels[member] = label
    return labels
