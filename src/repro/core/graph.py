"""Logical dataflow graph structure (paper sections 2.1, 3.1 and 4.3).

A timely dataflow program is specified as a *logical graph* of stages
linked by typed connectors.  Stages are organised into possibly nested
loop contexts; edges enter a context through an ingress stage, leave it
through an egress stage, and every cycle passes through a feedback stage
of its innermost context.  At execution time a runtime expands each stage
into one vertex per worker and each connector into a set of edges,
optionally exchanging records between workers according to the
connector's partitioning function (section 3.1).

The logical graph is also the coordinate system for progress tracking:
Naiad projects physical pointstamps onto logical (stage / connector)
locations, and this module computes the projected could-result-in
relation via :func:`repro.core.pathsummary.minimal_summaries`.
"""

from __future__ import annotations

import enum
from typing import Callable, List, Optional

from .pathsummary import PathSummary


class StageKind(enum.Enum):
    """Role of a stage in the timely dataflow graph."""

    NORMAL = "normal"
    INPUT = "input"
    INGRESS = "ingress"
    EGRESS = "egress"
    FEEDBACK = "feedback"


class LoopContext:
    """A (possibly nested) loop context (section 2.1)."""

    __slots__ = ("graph", "parent", "name", "depth")

    def __init__(self, graph: "DataflowGraph", parent: Optional["LoopContext"], name: str):
        self.graph = graph
        self.parent = parent
        self.name = name
        self.depth = 1 if parent is None else parent.depth + 1

    def __repr__(self) -> str:
        return "LoopContext(%s, depth=%d)" % (self.name, self.depth)


def _context_depth(context: Optional[LoopContext]) -> int:
    return 0 if context is None else context.depth


_ACTIONS = {
    StageKind.INGRESS: PathSummary.ingress,
    StageKind.EGRESS: PathSummary.egress,
    StageKind.FEEDBACK: PathSummary.feedback,
}


class Stage:
    """A logical stage: a factory for identically-programmed vertices.

    A stage declares how many input and output ports it has; ports are
    referenced by index.  ``factory(stage, worker_index)`` must return a
    :class:`repro.core.vertex.Vertex` for one parallel instance.
    """

    __slots__ = (
        "graph",
        "index",
        "name",
        "kind",
        "factory",
        "num_inputs",
        "num_outputs",
        "context",
        "inputs",
        "outputs",
        "opspec",
        "_action",
    )

    def __init__(
        self,
        graph: "DataflowGraph",
        index: int,
        name: str,
        kind: StageKind,
        factory: Optional[Callable[["Stage", int], object]],
        num_inputs: int,
        num_outputs: int,
        context: Optional[LoopContext],
    ):
        self.graph = graph
        self.index = index
        self.name = name
        self.kind = kind
        self.factory = factory
        self.num_inputs = num_inputs
        self.num_outputs = num_outputs
        self.context = context
        #: incoming connector per input port (filled in by connect()).
        self.inputs: List[Optional[Connector]] = [None] * num_inputs
        #: outgoing connectors per output port (fan-out allowed).
        self.outputs: List[List[Connector]] = [[] for _ in range(num_outputs)]
        #: Optional operator metadata (:class:`repro.opt.plan.OpSpec`)
        #: attached by the builder layer; None means "opaque stage" and
        #: the optimizer leaves it untouched.
        self.opspec = None
        self._action: Optional[PathSummary] = None

    # ------------------------------------------------------------------
    # Loop-context bookkeeping.  System stages straddle a context
    # boundary; their input and output sides may live in different
    # contexts (and hence at different timestamp depths).
    # ------------------------------------------------------------------

    @property
    def input_context(self) -> Optional[LoopContext]:
        if self.kind is StageKind.INGRESS:
            if self.context is None:
                raise ValueError("ingress stage %r has no loop context" % self.name)
            return self.context.parent
        return self.context

    @property
    def output_context(self) -> Optional[LoopContext]:
        if self.kind is StageKind.EGRESS:
            if self.context is None:
                raise ValueError("egress stage %r has no loop context" % self.name)
            return self.context.parent
        return self.context

    @property
    def input_depth(self) -> int:
        return _context_depth(self.input_context)

    @property
    def output_depth(self) -> int:
        return _context_depth(self.output_context)

    def timestamp_action(self) -> PathSummary:
        """The summary applied to timestamps crossing this stage (fixed
        at construction and consulted by every send: computed once)."""
        if self._action is None:
            self._action = _ACTIONS.get(self.kind, PathSummary.identity)(
                self.input_depth
            )
        return self._action

    def __repr__(self) -> str:
        return "Stage(%d, %s, %s)" % (self.index, self.name, self.kind.value)


class Connector:
    """A logical edge from a stage output port to a stage input port.

    ``partitioner`` optionally maps a record to an integer; the runtime
    routes all records with the same value to the same downstream vertex
    (section 3.1).  Without a partitioner, records stay on the local
    worker (a "pipeline" connection).
    """

    __slots__ = (
        "graph",
        "index",
        "src",
        "src_port",
        "dst",
        "dst_port",
        "partitioner",
        "coalesce",
        "cut_through",
        "columnar",
    )

    def __init__(
        self,
        graph: "DataflowGraph",
        index: int,
        src: Stage,
        src_port: int,
        dst: Stage,
        dst_port: int,
        partitioner: Optional[Callable[[object], int]],
    ):
        self.graph = graph
        self.index = index
        self.src = src
        self.src_port = src_port
        self.dst = dst
        self.dst_port = dst_port
        self.partitioner = partitioner
        #: Set by the optimizer's batching pass: the destination vertex
        #: tolerates merged deliveries, so the runtime may coalesce
        #: adjacent same-(connector, timestamp) queue entries into one
        #: callback (see ``_Worker._select``).
        self.coalesce = False
        #: Set by the optimizer's plumbing pass: the destination is a
        #: stateless forwarding stage on the sender's own worker, so a
        #: send is forwarded inside the producing callback instead of
        #: being queued for the hop (see ``_Worker._cut_through``).
        self.cut_through = False
        #: Set by ``repro.opt.passes.mark_columnar`` when the columnar
        #: data plane is enabled: the :class:`repro.columnar.Schema`
        #: records on this connector conform to, so senders may encode
        #: them as :class:`~repro.columnar.ColumnarBatch` payloads.
        #: ``None`` keeps the record-list path.
        self.columnar = None

    @property
    def depth(self) -> int:
        """Loop depth of timestamps carried on this connector."""
        return self.dst.input_depth

    def __repr__(self) -> str:
        return "Connector(%d, %s[%d] -> %s[%d])" % (
            self.index,
            self.src.name,
            self.src_port,
            self.dst.name,
            self.dst_port,
        )


class GraphValidationError(ValueError):
    """Raised when a dataflow graph violates the structural rules."""


class UnclosedScopeError(GraphValidationError):
    """A builder scope was still open when the graph was frozen.

    Raised when ``build()`` runs inside a ``with computation.scope(...)``
    / ``with stream.scoped_loop(...)`` block: the scope's feedback wiring
    and validation happen at ``__exit__``, so freezing earlier would
    bake in a half-built loop.
    """

    def __init__(self, names):
        self.names = list(names)
        super().__init__(
            "cannot freeze the graph while scope(s) %s are still open; "
            "call build() after the with-block" % ", ".join(map(repr, self.names))
        )


class FeedbackNotConnectedError(GraphValidationError):
    """A loop scope was closed without connecting its feedback input.

    Every feedback stage created inside a ``scoped_loop`` /
    ``computation.scope`` block must be fed (``loop.feed(stream)``)
    before the with-block exits — a loop whose cycle is never closed
    deadlocks the iteration it was built for.
    """

    def __init__(self, scope_name, edges):
        self.scope_name = scope_name
        self.edges = edges
        super().__init__(
            "scope %r was closed with %d unconnected feedback edge(s); "
            "call loop.feed(stream) (or edge.feed(stream)) before the "
            "with-block exits" % (scope_name, edges)
        )


class CrossScopeConnectError(GraphValidationError):
    """A connector was drawn between two different loop scopes.

    Streams cross scope boundaries only through ingress/egress stages
    (the builder API's ``scoped_loop`` arranges these); any other
    cross-scope ``connect`` is rejected eagerly at build time.
    """

    def __init__(self, src, src_port, dst, dst_port):
        self.src = src
        self.dst = dst
        super().__init__(
            "connector %r[%d] -> %r[%d] crosses a loop-context boundary; "
            "route it through an ingress or egress stage (use "
            "stream.scoped_loop() / loop.leave_with())"
            % (src.name, src_port, dst.name, dst_port)
        )


class DataflowGraph:
    """A complete logical timely dataflow graph.

    Build with :meth:`new_stage`, :meth:`new_loop_context` and
    :meth:`connect`; call :meth:`freeze` to validate the structure and
    compute the minimal path-summary table used for progress tracking.
    """

    def __init__(self):
        self.stages: List[Stage] = []
        self.connectors: List[Connector] = []
        self.contexts: List[LoopContext] = []
        #: Builder scopes currently inside their with-block (the scope
        #: context managers push/pop); freeze() rejects a graph with
        #: open scopes eagerly.
        self.open_scopes: List[object] = []
        self._frozen = False
        self._summaries = None  # SummaryIndex once frozen

    # ------------------------------------------------------------------
    # Construction.
    # ------------------------------------------------------------------

    def new_loop_context(
        self, parent: Optional[LoopContext] = None, name: Optional[str] = None
    ) -> LoopContext:
        self._check_mutable()
        context = LoopContext(self, parent, name or "loop%d" % len(self.contexts))
        self.contexts.append(context)
        return context

    def new_stage(
        self,
        name: str,
        factory: Optional[Callable[[Stage, int], object]],
        num_inputs: int,
        num_outputs: int,
        kind: StageKind = StageKind.NORMAL,
        context: Optional[LoopContext] = None,
    ) -> Stage:
        self._check_mutable()
        if kind in (StageKind.INGRESS, StageKind.EGRESS, StageKind.FEEDBACK):
            if context is None:
                raise GraphValidationError(
                    "%s stage %r requires a loop context" % (kind.value, name)
                )
        if kind is StageKind.INPUT and context is not None:
            raise GraphValidationError("input stages must be in the streaming context")
        stage = Stage(
            self, len(self.stages), name, kind, factory, num_inputs, num_outputs, context
        )
        self.stages.append(stage)
        return stage

    def connect(
        self,
        src: Stage,
        src_port: int,
        dst: Stage,
        dst_port: int,
        partitioner: Optional[Callable[[object], int]] = None,
    ) -> Connector:
        self._check_mutable()
        if not 0 <= src_port < src.num_outputs:
            raise GraphValidationError("bad output port %d on %r" % (src_port, src))
        if not 0 <= dst_port < dst.num_inputs:
            raise GraphValidationError("bad input port %d on %r" % (dst_port, dst))
        if dst.inputs[dst_port] is not None:
            raise GraphValidationError(
                "input port %d of %r is already connected" % (dst_port, dst)
            )
        if src.output_context is not dst.input_context:
            raise CrossScopeConnectError(src, src_port, dst, dst_port)
        connector = Connector(
            self, len(self.connectors), src, src_port, dst, dst_port, partitioner
        )
        self.connectors.append(connector)
        src.outputs[src_port].append(connector)
        dst.inputs[dst_port] = connector
        return connector

    def _check_mutable(self) -> None:
        if self._frozen:
            raise GraphValidationError("graph is frozen; no further mutation allowed")

    # ------------------------------------------------------------------
    # Validation and summary computation.
    # ------------------------------------------------------------------

    def freeze(self) -> None:
        """Validate the structure and compute could-result-in summaries.

        Summaries are computed *per scope* (one table per loop context
        plus the root, child scopes collapsed to boundary nodes) and
        exposed through a hierarchical :class:`repro.core.scope
        .SummaryIndex` that keeps the mapping interface of the old
        global table.
        """
        if self._frozen:
            return
        if self.open_scopes:
            raise UnclosedScopeError(
                scope.context.name for scope in self.open_scopes
            )
        self.validate()
        from .scope import build_summary_index

        self._summaries = build_summary_index(self)
        self._frozen = True

    @property
    def frozen(self) -> bool:
        return self._frozen

    def validate(self) -> None:
        for stage in self.stages:
            for port, connector in enumerate(stage.inputs):
                if connector is None:
                    raise GraphValidationError(
                        "input port %d of %r is not connected" % (port, stage)
                    )
        self._check_acyclic_without_feedback()

    def _check_acyclic_without_feedback(self) -> None:
        """Every cycle must pass through a feedback stage (section 2.1)."""
        in_degree = {stage: 0 for stage in self.stages}
        for connector in self.connectors:
            if connector.src.kind is StageKind.FEEDBACK:
                continue
            in_degree[connector.dst] += 1
        ready = [stage for stage, degree in in_degree.items() if degree == 0]
        seen = 0
        while ready:
            stage = ready.pop()
            seen += 1
            if stage.kind is StageKind.FEEDBACK:
                continue
            for outputs in stage.outputs:
                for connector in outputs:
                    in_degree[connector.dst] -= 1
                    if in_degree[connector.dst] == 0:
                        ready.append(connector.dst)
        if seen != len(self.stages):
            cyclic = [
                stage.name
                for stage, degree in in_degree.items()
                if degree > 0
            ]
            raise GraphValidationError(
                "cycle without a feedback stage involving %r" % (cyclic,)
            )

    @property
    def summaries(self):
        """The hierarchical :class:`repro.core.scope.SummaryIndex`.

        Supports ``get((l1, l2))`` / ``(l1, l2) in`` / ``[...]`` exactly
        like the old global dict of antichains.
        """
        if self._summaries is None:
            raise GraphValidationError("freeze() the graph before using summaries")
        return self._summaries

    @property
    def summary_index(self):
        """Alias of :attr:`summaries`, named for scope-aware callers."""
        return self.summaries

    def input_stages(self) -> List[Stage]:
        return [stage for stage in self.stages if stage.kind is StageKind.INPUT]

    def __repr__(self) -> str:
        return "DataflowGraph(%d stages, %d connectors)" % (
            len(self.stages),
            len(self.connectors),
        )
