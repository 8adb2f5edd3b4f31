"""Scoped, hierarchical could-result-in summaries (timely-dataflow
scopes over the paper's section 2.3 machinery).

Naiad computes one global path-summary table over every stage and
connector — "the entire dataflow graph in a big pile".  This module
partitions the graph into *scopes* (one per loop context, plus the root
streaming context), computes a :func:`repro.core.pathsummary
.minimal_summaries` table **per scope**, and resolves arbitrary
could-result-in queries hierarchically:

* Every location (stage or connector) belongs to exactly one scope: the
  loop context of its *input* side.  A loop's ingress stage therefore
  belongs to the parent scope while its egress and feedback stages
  belong to the loop scope — exactly the boundary placement of
  timely-dataflow's ``enter``/``leave`` operators.

* Inside a scope's table, each child scope is collapsed to a single
  :class:`ScopeNode` pseudo-location carrying parent-depth timestamps.
  Interior paths of a child never change the parent-depth prefix of a
  timestamp (feedback only increments counters at child depth or
  deeper), so the child's *boundary summary* — ingress, any interior
  path, egress, composed with :meth:`PathSummary.then` — is the
  identity at parent depth; the collapse is exact, not approximate.

* A query between two locations of the same scope uses that scope's
  table at full counter precision.  A query across scopes lifts both
  endpoints to their lowest common ancestor scope — each endpoint
  replaced by the ``ScopeNode`` of the child subtree containing it —
  and consults the ancestor's table.  The resulting summaries have
  ``keep`` at ancestor depth, so applying them to full counter tuples
  compares *truncated* coordinates (Python's lexicographic tuple order
  makes a short candidate compare against the matching prefix), which
  is precisely the projected, conservative verdict the hierarchy
  promises: inner coordinates of other scopes are invisible, and only
  boundary behaviour crosses scope lines.

* Paths that leave a scope and later re-enter it (legal when the
  re-entry is fed purely through a feedback stage) are not visible in
  either endpoint scope's table.  For each child node we additionally
  compute a *reentry* antichain — summaries of non-empty paths from the
  node back to itself at the parent level — and merge it into same-node
  queries at every ancestor level, so the hierarchical relation never
  under-approximates the flat one.

:meth:`DataflowGraph.freeze` builds the :class:`SummaryIndex`, which
keeps the mapping interface the old global dict exposed (``get`` /
``in`` / ``[]``), so progress trackers and probes are unchanged
consumers.

This module also owns *summarized* scopes.  :func:`notifying_contexts`
is the one rule deciding which loop scopes may be summarized (the
optimizer's plumbing cut-through and the progress plane both ask it),
:meth:`SummaryIndex.projection` maps each location interior to a
summarized scope onto that scope's :class:`ScopeNode`, and
:meth:`ScopeNode.project` is the one rule for the boundary time an
interior timestamp projects to.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, Tuple

from .pathsummary import Antichain, PathSummary, minimal_summaries
from .timestamp import Timestamp

#: Scopes are keyed by their LoopContext; ``None`` is the root scope.
ScopeKey = Optional["LoopContext"]  # noqa: F821 (graph imports us)


def _scope_depth(scope: ScopeKey) -> int:
    return 0 if scope is None else scope.depth


def notifying_contexts(stages, notifies: Callable[[object], bool]) -> set:
    """The loop contexts that must not be summarized.

    ``notifies(stage)`` says whether a stage's vertices request
    notifications.  A context is notifying when some stage in it or in a
    scope nested inside it notifies: its interior work may then need a
    cluster-wide notification frontier, so its interior pointstamps are
    disseminated.  Every other loop scope is summarized.
    """
    notifying: set = set()
    for stage in stages:
        context = stage.context
        if context is not None and notifies(stage):
            while context is not None:
                notifying.add(context)
                context = context.parent
    return notifying


class ScopeNode:
    """A child scope collapsed to one location in its parent's table.

    Pointstamps at a ``ScopeNode`` carry parent-depth timestamps: they
    assert "work exists somewhere inside this scope at this projected
    time".  The distributed protocol uses them as the boundary-summary
    occupancy locations broadcast instead of interior pointstamps.
    """

    __slots__ = ("context", "name", "index", "depth")

    def __init__(self, context, index: int):
        self.context = context
        self.name = "scope:%s" % context.name
        #: Offset well past stage/connector indices so generic
        #: (timestamp, location.index) tiebreaks stay collision-free.
        self.index = 1_000_000 + index
        #: Depth of the *parent* scope: the depth of timestamps carried
        #: by pointstamps at this node.
        self.depth = context.depth - 1

    def project(self, timestamp: Timestamp) -> Timestamp:
        """The boundary time of interior work at ``timestamp``: the loop
        coordinates this scope and its descendants introduced dropped."""
        return Timestamp(timestamp.epoch, timestamp.counters[: self.depth])

    def __repr__(self) -> str:
        return "ScopeNode(%s)" % self.context.name


class SummarySet:
    """A small set of path summaries of possibly *different* target
    depths: full-precision same-scope entries next to truncating
    ancestor-level entries.  :class:`Antichain` insists on homogeneous
    depths (a useful invariant inside one table); merged hierarchical
    query results relax it, pruning dominated elements only within the
    same depth."""

    __slots__ = ("elements",)

    def __init__(self):
        self.elements: List[PathSummary] = []

    def insert(self, candidate: PathSummary) -> bool:
        depth = candidate.target_depth
        for element in self.elements:
            if element.target_depth == depth and element.less_equal(candidate):
                return False
        self.elements = [
            element
            for element in self.elements
            if not (
                element.target_depth == depth
                and candidate.less_equal(element)
            )
        ]
        self.elements.append(candidate)
        return True

    def dominates(self, t1: Timestamp, t2: Timestamp) -> bool:
        return any(s.dominates(t1, t2) for s in self.elements)

    def __iter__(self):
        return iter(self.elements)

    def __len__(self) -> int:
        return len(self.elements)

    def __bool__(self) -> bool:
        return bool(self.elements)

    def __repr__(self) -> str:
        return "SummarySet(%r)" % (self.elements,)


class SummaryIndex:
    """Hierarchical could-result-in tables with the dict-like interface
    of the old global summary table.

    ``index.get((l1, l2))`` returns an :class:`Antichain` of path
    summaries (possibly truncating — see module docstring) or ``None``;
    ``(l1, l2) in index`` tests reachability.  :meth:`projection`
    decides the progress plane's summarized scopes.
    """

    def __init__(self, graph):
        self.graph = graph
        #: Root first, then every loop context in creation order.
        self.scopes: Tuple[ScopeKey, ...] = (None,) + tuple(graph.contexts)
        self._scope_pos = {id(s): i for i, s in enumerate(self.scopes)}
        self._node_by_context: Dict[int, ScopeNode] = {}
        for i, context in enumerate(graph.contexts):
            self._node_by_context[id(context)] = ScopeNode(context, i)
        #: location -> owning scope, for every stage and connector.
        self._scope_of: Dict[int, ScopeKey] = {}
        self._members: Dict[int, List[object]] = {id(s): [] for s in self.scopes}
        for stage in graph.stages:
            scope = stage.input_context
            self._scope_of[id(stage)] = scope
            self._members[id(scope)].append(stage)
        for connector in graph.connectors:
            scope = connector.dst.input_context
            self._scope_of[id(connector)] = scope
            self._members[id(connector.dst.input_context)].append(connector)
        self._children: Dict[int, List] = {id(s): [] for s in self.scopes}
        for context in graph.contexts:
            self._children[id(context.parent)].append(context)
        #: scope -> per-scope minimal-summary table (child scopes
        #: collapsed to ScopeNodes).
        self.tables: Dict[int, Dict[Tuple, Antichain]] = {}
        #: scope -> {ScopeNode: antichain of non-empty self paths}.
        self.reentry: Dict[int, Dict[ScopeNode, Antichain]] = {}
        for scope in self.scopes:
            self._build_scope_table(scope)
        self._merged: Dict[Tuple, Optional[SummarySet]] = {}
        self._flat: Optional[Dict[Tuple, Antichain]] = None

    # ------------------------------------------------------------------
    # Construction.
    # ------------------------------------------------------------------

    def _build_scope_table(self, scope: ScopeKey) -> None:
        depth = _scope_depth(scope)
        members = self._members[id(scope)]
        children = self._children[id(scope)]
        child_nodes = [self._node_by_context[id(c)] for c in children]
        locations: List[object] = list(members) + list(child_nodes)
        depths = {location: depth for location in locations}
        # Connectors and stages keep their true (uniform) depths; the
        # assert below documents the invariant the partition guarantees.
        links: List[Tuple[object, object, PathSummary]] = []
        identity = PathSummary.identity(depth)
        member_ids = {id(m) for m in members}
        for location in members:
            dst = getattr(location, "dst", None)
            if dst is not None:
                # Connector delivery: no timestamp adjustment.
                links.append((location, dst, identity))
                continue
            stage = location
            action = stage.timestamp_action()
            for outputs in stage.outputs:
                for connector in outputs:
                    if id(connector) in member_ids:
                        links.append((stage, connector, action))
                        continue
                    child = connector.dst.input_context
                    if child is not None and child.parent is scope:
                        # An ingress stage feeding a child scope:
                        # entering never changes the parent-depth
                        # prefix, so the collapsed node is reached
                        # with the identity.
                        links.append(
                            (stage, self._node_by_context[id(child)], identity)
                        )
                    # Otherwise the connector exits upward (an egress
                    # output): the stage is a sink at this level, and
                    # the parent's table links its ScopeNode instead.
        # Child egress outputs surface at this level as edges out of the
        # collapsed node.  The interior segment (entry -> egress) is the
        # identity at this depth — see the module docstring — so the
        # boundary summary of the whole traversal is the identity too.
        for child in children:
            node = self._node_by_context[id(child)]
            for stage in self._members[id(child)]:
                if getattr(stage, "kind", None) is None:
                    continue
                if stage.kind.value != "egress":
                    continue
                for outputs in stage.outputs:
                    for connector in outputs:
                        if id(connector) in member_ids:
                            links.append((node, connector, identity))
        table = minimal_summaries(locations, links, depths)
        self.tables[id(scope)] = table
        # Non-empty self paths per child node: the node's out-links
        # composed with any path back to it.
        reentry: Dict[ScopeNode, Antichain] = {}
        for node in child_nodes:
            chain = Antichain()
            for src, dst, summary in links:
                if src is not node:
                    continue
                back = table.get((dst, node))
                if not back:
                    continue
                for tail in back:
                    chain.insert(summary.then(tail))
            if chain:
                reentry[node] = chain
        self.reentry[id(scope)] = reentry

    # ------------------------------------------------------------------
    # Scope structure queries.
    # ------------------------------------------------------------------

    def scope_of(self, location) -> ScopeKey:
        try:
            return self._scope_of[id(location)]
        except KeyError:
            if isinstance(location, ScopeNode):
                return location.context.parent
            raise

    def scope_chain(self, scope: ScopeKey) -> Tuple[ScopeKey, ...]:
        chain = [scope]
        while chain[-1] is not None:
            chain.append(chain[-1].parent)
        return tuple(chain)

    def scope_node(self, context) -> ScopeNode:
        return self._node_by_context[id(context)]

    def projection(self, notifies: Callable[[object], bool]) -> Tuple[Tuple, Dict]:
        """The summarized scopes and the progress plane's projection
        table.

        Returns ``(scopes, table)``: every loop scope
        :func:`notifying_contexts` leaves summarized (nested ones
        included), in creation order, and ``location -> ScopeNode`` for
        every location interior to one.  The outermost summarized
        enclosing scope absorbs its whole nest.
        """
        notifying = notifying_contexts(self.graph.stages, notifies)
        loops = self.scopes[1:]  # the root streaming context has no boundary
        table: Dict[object, ScopeNode] = {}
        for scope in loops:
            # scope_chain runs innermost -> root; scan from the top so
            # the outermost summarized ancestor owns the projection.
            for ancestor in reversed(self.scope_chain(scope)[:-1]):
                if ancestor not in notifying:
                    node = self._node_by_context[id(ancestor)]
                    for member in self._members[id(scope)]:
                        table[member] = node
                    break
        return tuple(s for s in loops if s not in notifying), table

    # ------------------------------------------------------------------
    # Hierarchical could-result-in resolution.
    # ------------------------------------------------------------------

    def get(self, key, default=None):
        try:
            return self._merged[key]
        except KeyError:
            pass
        entry = self._resolve(key[0], key[1])
        if entry is not None and not entry:
            entry = None
        self._merged[key] = entry
        return entry if entry is not None else default

    def _resolve(self, l1, l2) -> Optional[SummarySet]:
        s1 = self.scope_of(l1)
        s2 = self.scope_of(l2)
        result = SummarySet()
        if s1 is s2:
            base = self.tables[id(s1)].get((l1, l2))
            if base:
                for summary in base:
                    result.insert(summary)
            above = self.scope_chain(s1)
        else:
            chain1 = self.scope_chain(s1)
            chain2 = self.scope_chain(s2)
            pos2 = {id(s): i for i, s in enumerate(chain2)}
            i1 = next(i for i, s in enumerate(chain1) if id(s) in pos2)
            lca = chain1[i1]
            a1 = l1 if i1 == 0 else self._node_by_context[id(chain1[i1 - 1])]
            i2 = pos2[id(lca)]
            a2 = l2 if i2 == 0 else self._node_by_context[id(chain2[i2 - 1])]
            if a1 is a2:
                # One endpoint is (work inside) the scope the other
                # endpoint's node represents: conservatively, interior
                # work at a projected time can reach anywhere interior
                # at that projected time.
                result.insert(PathSummary.identity(_scope_depth(lca)))
                node_reentry = self.reentry[id(lca)].get(a1)
                if node_reentry:
                    for summary in node_reentry:
                        result.insert(summary)
            else:
                base = self.tables[id(lca)].get((a1, a2))
                if base:
                    for summary in base:
                        result.insert(summary)
            above = chain1[i1:]
        # Leave-and-re-enter paths at every strictly higher level: both
        # endpoints lift into the same node there.
        for i in range(1, len(above)):
            level = above[i]
            node = self._node_by_context.get(id(above[i - 1]))
            if node is None:
                continue
            node_reentry = self.reentry[id(level)].get(node)
            if node_reentry:
                for summary in node_reentry:
                    result.insert(summary)
        return result if result else None

    # Mapping interface expected by ProgressState and Probe.

    def __contains__(self, key) -> bool:
        return self.get(key) is not None

    def __getitem__(self, key) -> SummarySet:
        entry = self.get(key)
        if entry is None:
            raise KeyError(key)
        return entry

    # ------------------------------------------------------------------
    # Flat (global single-table) view, kept for conformance testing.
    # ------------------------------------------------------------------

    def flat_table(self) -> Dict[Tuple, Antichain]:
        """The paper's one-big-pile table, computed on demand.

        The hierarchical resolution must never under-approximate this
        relation; the conformance suite checks exactly that.
        """
        if self._flat is None:
            graph = self.graph
            locations: List[object] = list(graph.stages) + list(graph.connectors)
            depths: Dict[object, int] = {}
            for stage in graph.stages:
                depths[stage] = stage.input_depth
            for connector in graph.connectors:
                depths[connector] = connector.depth
            links: List[Tuple[object, object, PathSummary]] = []
            for connector in graph.connectors:
                links.append(
                    (connector, connector.dst, PathSummary.identity(connector.depth))
                )
            for stage in graph.stages:
                action = stage.timestamp_action()
                for outputs in stage.outputs:
                    for connector in outputs:
                        links.append((stage, connector, action))
            self._flat = minimal_summaries(locations, links, depths)
        return self._flat
