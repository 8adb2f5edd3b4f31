"""Fluent stream API over the timely dataflow graph (paper section 4).

A :class:`Stream` wraps one output port of a stage and offers the
LINQ-style operators of section 4.2 plus loop construction (section
4.3).  The prototypical program shape is the one from section 4.1::

    comp = Computation()
    result = (Stream.from_input(comp.new_input())
                .select_many(mapper)
                .group_by(key, reducer)
                .subscribe(lambda t, records: ...))
    comp.build()
    comp.inputs[0].on_next(first_epoch)
    comp.run()

Keyed operators (``group_by``, ``count_by``, ``join`` …) attach a hash
partitioning function to their input connector, so the same program runs
data-parallel on the distributed runtime without modification
(section 3.1).
"""

from __future__ import annotations

from typing import Any, Callable, Iterable, List, Optional

from ..core.computation import Computation, InputHandle
from ..core.graph import (
    FeedbackNotConnectedError,
    GraphValidationError,
    LoopContext,
    Stage,
)
from ..core.timestamp import Timestamp
from ..core.vertex import Vertex
from ..opt.plan import HashPartitioner, OpSpec
from . import operators as ops


def hash_partitioner(
    key: Callable[[Any], Any], key_col: Optional[int] = None
) -> HashPartitioner:
    """Route records with equal ``key`` to the same downstream vertex.

    Returns a :class:`repro.opt.plan.HashPartitioner`, whose structural
    equality (same key selector) lets the optimizer's exchange-elision
    pass prove when two exchanges route identically.  ``key_col``
    optionally asserts ``key(record) == record[key_col]`` so the
    columnar data plane can partition batches by column.
    """
    return HashPartitioner(key, key_col)


def _identity(record: Any) -> Any:
    return record


def _single_partition(record: Any) -> int:
    return 0


# Operator metadata consumed by repro.opt.  ``fusable`` marks the
# 1-in/1-out library vertices whose callback discipline the fusion pass
# relies on; ``batchable`` grants batch coalescing on input connectors;
# ``preserves_partitioning`` marks subset operators for exchange
# elision.  ``inspect`` is deliberately neither fusable (its per-batch
# probe callback is driver-side, coordinator_only) nor batchable (the
# probe observes batch boundaries).
_OPSPECS = {
    "select": ("select", True, True, False),
    "where": ("where", True, True, True),
    "select_many": ("select_many", True, True, False),
    "concat": ("concat", False, True, True),
    "inspect": ("inspect", False, False, True),
    "distinct": ("distinct", True, True, True),
    "group_by": ("group_by", True, True, False),
    "count_by": ("count_by", True, True, False),
    "aggregate_by": ("aggregate_by", True, True, False),
    "buffered": ("buffered", True, True, False),
    "binary_buffered": ("binary_buffered", False, True, False),
    "join": ("join", False, True, False),
    "probe": ("probe", False, True, False),
    "subscribe": ("subscribe", False, True, False),
}


def _opspec(kind: str, schema: Optional[Any] = None) -> OpSpec:
    kind, fusable, batchable, preserving = _OPSPECS[kind]
    return OpSpec(
        kind,
        fusable=fusable,
        batchable=batchable,
        preserves_partitioning=preserving,
        schema=schema,
    )


class Stream:
    """One output port of a stage, with operator methods."""

    __slots__ = ("computation", "stage", "port")

    def __init__(self, computation: Computation, stage: Stage, port: int = 0):
        self.computation = computation
        self.stage = stage
        self.port = port

    @staticmethod
    def from_input(handle: InputHandle) -> "Stream":
        """Wrap an input stage created by :meth:`Computation.new_input`."""
        return Stream(handle._computation, handle.stage, 0)

    @property
    def context(self) -> Optional[LoopContext]:
        """The loop context in which this stream's records travel."""
        return self.stage.output_context

    # ------------------------------------------------------------------
    # Internal plumbing.
    # ------------------------------------------------------------------

    def _add_stage(
        self,
        name: str,
        factory: Callable[[], Vertex],
        num_inputs: int = 1,
        num_outputs: int = 1,
        opspec: Optional[OpSpec] = None,
    ) -> Stage:
        stage = self.computation.graph.new_stage(
            name,
            lambda stage, worker: factory(),
            num_inputs,
            num_outputs,
            context=self.context,
        )
        stage.opspec = opspec
        return stage

    def _unary(
        self,
        name: str,
        factory: Callable[[], Vertex],
        partitioner: Optional[Callable[[Any], int]] = None,
        num_outputs: int = 1,
        opspec: Optional[OpSpec] = None,
    ) -> "Stream":
        stage = self._add_stage(name, factory, 1, num_outputs, opspec=opspec)
        self.computation.graph.connect(self.stage, self.port, stage, 0, partitioner)
        return Stream(self.computation, stage, 0)

    def connect_to(
        self,
        stage: Stage,
        dst_port: int = 0,
        partitioner: Optional[Callable[[Any], int]] = None,
    ) -> None:
        """Connect this stream to an input port of an existing stage."""
        self.computation.graph.connect(self.stage, self.port, stage, dst_port, partitioner)

    def output(self, port: int) -> "Stream":
        """A stream for another output port of the same stage."""
        return Stream(self.computation, self.stage, port)

    # ------------------------------------------------------------------
    # Stateless operators (no coordination).
    # ------------------------------------------------------------------

    def select(
        self,
        function: Callable[[Any], Any],
        name: str = "select",
        schema: Optional[Any] = None,
    ) -> "Stream":
        return self._unary(
            name, lambda: ops.SelectVertex(function), opspec=_opspec("select", schema)
        )

    def where(
        self,
        predicate: Callable[[Any], bool],
        name: str = "where",
        schema: Optional[Any] = None,
    ) -> "Stream":
        return self._unary(
            name, lambda: ops.WhereVertex(predicate), opspec=_opspec("where", schema)
        )

    def select_many(
        self,
        function: Callable[[Any], Iterable[Any]],
        name: str = "select_many",
        schema: Optional[Any] = None,
    ) -> "Stream":
        return self._unary(
            name,
            lambda: ops.SelectManyVertex(function),
            opspec=_opspec("select_many", schema),
        )

    def concat(self, other: "Stream", name: str = "concat") -> "Stream":
        if other.context is not self.context:
            raise ValueError("concat requires streams in the same loop context")
        stage = self._add_stage(name, ops.ConcatVertex, 2, 1, opspec=_opspec("concat"))
        self.connect_to(stage, 0)
        other.connect_to(stage, 1)
        return Stream(self.computation, stage, 0)

    def inspect(
        self, probe: Callable[[Timestamp, List[Any]], None], name: str = "inspect"
    ) -> "Stream":
        return self._unary(
            name, lambda: ops.InspectVertex(probe), opspec=_opspec("inspect")
        )

    # ------------------------------------------------------------------
    # Coordinated operators.
    # ------------------------------------------------------------------

    def distinct(self, name: str = "distinct") -> "Stream":
        return self._unary(
            name,
            ops.DistinctVertex,
            partitioner=hash_partitioner(_identity),
            opspec=_opspec("distinct"),
        )

    def group_by(
        self,
        key: Callable[[Any], Any],
        reducer: Callable[[Any, List[Any]], Iterable[Any]],
        name: str = "group_by",
    ) -> "Stream":
        return self._unary(
            name,
            lambda: ops.GroupByVertex(key, reducer),
            partitioner=hash_partitioner(key),
            opspec=_opspec("group_by"),
        )

    def count_by(
        self,
        key: Callable[[Any], Any],
        name: str = "count_by",
        key_col: Optional[int] = None,
        schema: Optional[Any] = None,
    ) -> "Stream":
        return self._unary(
            name,
            lambda: ops.CountByVertex(key, key_col=key_col),
            partitioner=hash_partitioner(key, key_col),
            opspec=_opspec("count_by", schema),
        )

    def aggregate_by(
        self,
        key: Callable[[Any], Any],
        value: Callable[[Any], Any],
        combine: Callable[[Any, Any], Any],
        name: str = "aggregate_by",
        key_col: Optional[int] = None,
        value_col: Optional[int] = None,
        schema: Optional[Any] = None,
    ) -> "Stream":
        return self._unary(
            name,
            lambda: ops.AggregateByVertex(
                key, value, combine, key_col=key_col, value_col=value_col
            ),
            partitioner=hash_partitioner(key, key_col),
            opspec=_opspec("aggregate_by", schema),
        )

    def count(self, name: str = "count") -> "Stream":
        """Total record count per timestamp (single group)."""
        return self._unary(
            name,
            lambda: ops.UnaryBufferingVertex(lambda records: [len(records)]),
            partitioner=hash_partitioner(_single_partition),
            opspec=_opspec("buffered"),
        )

    def join(
        self,
        other: "Stream",
        left_key: Callable[[Any], Any],
        right_key: Callable[[Any], Any],
        result: Callable[[Any, Any], Any],
        name: str = "join",
        left_key_col: Optional[int] = None,
        right_key_col: Optional[int] = None,
        schema: Optional[Any] = None,
    ) -> "Stream":
        if other.context is not self.context:
            raise ValueError("join requires streams in the same loop context")
        stage = self._add_stage(
            name,
            lambda: ops.JoinVertex(
                left_key,
                right_key,
                result,
                left_key_col=left_key_col,
                right_key_col=right_key_col,
            ),
            2,
            1,
            opspec=_opspec("join", schema),
        )
        self.connect_to(stage, 0, hash_partitioner(left_key, left_key_col))
        other.connect_to(stage, 1, hash_partitioner(right_key, right_key_col))
        return Stream(self.computation, stage, 0)

    def buffered(
        self,
        transform: Callable[[List[Any]], Iterable[Any]],
        partitioner: Optional[Callable[[Any], int]] = None,
        name: str = "buffered",
        schema: Optional[Any] = None,
    ) -> "Stream":
        """Generic coordinated unary operator (section 4.2)."""
        return self._unary(
            name,
            lambda: ops.UnaryBufferingVertex(transform),
            partitioner=partitioner,
            opspec=_opspec("buffered", schema),
        )

    def binary_buffered(
        self,
        other: "Stream",
        transform: Callable[[List[Any], List[Any]], Iterable[Any]],
        partitioner: Optional[Callable[[Any], int]] = None,
        name: str = "binary_buffered",
    ) -> "Stream":
        """Generic coordinated binary operator (section 4.2).

        Buffers both inputs per timestamp and applies
        ``transform(left_records, right_records)`` at completion.
        """
        if other.context is not self.context:
            raise ValueError("binary_buffered requires streams in the same context")
        stage = self._add_stage(
            name,
            lambda: ops.BinaryBufferingVertex(transform),
            2,
            1,
            opspec=_opspec("binary_buffered"),
        )
        self.connect_to(stage, 0, partitioner)
        other.connect_to(stage, 1, partitioner)
        return Stream(self.computation, stage, 0)

    def union(self, other: "Stream", name: str = "union") -> "Stream":
        """Set union per timestamp: concat then distinct."""
        return self.concat(other, name="%s.concat" % name).distinct(
            name="%s.distinct" % name
        )

    def min_by(
        self,
        key: Callable[[Any], Any],
        value: Callable[[Any], Any],
        name: str = "min_by",
    ) -> "Stream":
        """Per-key minimum value at each timestamp."""
        return self.aggregate_by(key, value, min, name=name)

    def max_by(
        self,
        key: Callable[[Any], Any],
        value: Callable[[Any], Any],
        name: str = "max_by",
    ) -> "Stream":
        """Per-key maximum value at each timestamp."""
        return self.aggregate_by(key, value, max, name=name)

    def top_k(
        self,
        k: int,
        score: Callable[[Any], Any],
        name: str = "top_k",
    ) -> "Stream":
        """The k highest-scoring records of each timestamp.

        Two-level: each worker keeps a local top-k (a combiner), then a
        single partition selects the global winners.
        """
        def local_top(records: List[Any]) -> List[Any]:
            return sorted(records, key=score, reverse=True)[:k]

        partials = self.buffered(local_top, partitioner=None, name="%s.local" % name)
        return partials.buffered(
            local_top,
            partitioner=hash_partitioner(_single_partition),
            name="%s.global" % name,
        )

    # ------------------------------------------------------------------
    # Outputs.
    # ------------------------------------------------------------------

    def probe(self, name: str = "probe") -> "Probe":
        """Attach a progress probe to this stream.

        After ``build()``, ``probe.done(epoch)`` reports whether all
        work at or before that epoch has drained past this point in the
        dataflow — the introspection used to rate-limit producers or
        implement bounded staleness.  On the distributed runtime the
        answer comes from a local view and is therefore conservative
        (never claims completion early).
        """
        stage = self._add_stage(name, ops.ProbeVertex, 1, 0, opspec=_opspec("probe"))
        self.connect_to(stage, 0)
        return Probe(self.computation, stage)

    def arrange_by(
        self,
        key: Callable[[Any], Any],
        name: str = "arrange",
        retain: int = 4,
        partitioner: Optional[Callable[[Any], int]] = None,
    ):
        """Arrange this diff stream ``(record, multiplicity)`` into a
        shared epoch-versioned index, keyed by ``key(record)``.

        The maintaining vertex applies each epoch's consolidated diffs
        exactly once; any number of serving sessions then read the same
        index at consistent epochs (``repro.serve``).  Returns an
        :class:`repro.serve.Arrangement` handle for a
        :class:`~repro.serve.SessionManager` (its probe also makes it a
        completion oracle on its own).  The index lives on worker 0 of
        the coordinator, like the driver-side query readers it replaces.
        """
        from ..serve.arrangement import Arrangement, ArrangeVertex

        stage = self._add_stage(
            name, lambda: ArrangeVertex(name, key, retain=retain), 1, 1
        )
        self.computation.graph.connect(
            self.stage, self.port, stage, 0, partitioner or (lambda rec: 0)
        )
        probe = Stream(self.computation, stage, 0).probe(name + ".probe")
        handle = Arrangement(self.computation, stage, name, probe)
        self.computation.register_arrangement(handle)
        return handle

    def subscribe(
        self,
        callback: Callable[[Timestamp, List[Any]], None],
        name: str = "subscribe",
    ) -> Stage:
        """Invoke ``callback(timestamp, records)`` for each complete time."""
        stage = self._add_stage(
            name, lambda: ops.SubscribeVertex(callback), 1, 0, opspec=_opspec("subscribe")
        )
        self.connect_to(stage, 0)
        return stage

    def collect(self, name: str = "collect") -> List:
        """Subscribe into (and return) a list of ``(timestamp, records)``."""
        sink: List = []
        self.subscribe(lambda t, records: sink.append((t, records)), name=name)
        return sink

    # ------------------------------------------------------------------
    # Loops (section 4.3).
    # ------------------------------------------------------------------

    def scoped_loop(
        self,
        name: str = "loop",
        max_iterations: Optional[int] = None,
    ) -> "LoopScope":
        """Open a loop scope with this stream as its primary input.

        Use as a context manager: on ``__enter__`` the stream is passed
        through an ingress into the new scope (available as
        ``loop.entered``); the block wires the body, feeds the cycle and
        takes results out::

            with edges.scoped_loop(name="cc", max_iterations=64) as loop:
                merged = loop.entered.concat(loop.feedback)
                result = body(merged)
                loop.feed(result, partitioner=part)
                labels = loop.leave_with(result)

        Validation is eager: ``__exit__`` raises
        :class:`repro.core.graph.FeedbackNotConnectedError` when the
        cycle was never fed, connecting across the boundary without an
        ingress/egress raises ``CrossScopeConnectError``, and freezing
        the graph inside the with-block raises ``UnclosedScopeError``.
        """
        return LoopScope(
            self.computation,
            parent=self.context,
            max_iterations=max_iterations,
            name=name,
            anchor=self,
        )

    def _enter_scope(self, context: LoopContext) -> "Stream":
        ingress = self.computation.add_ingress(context)
        self.connect_to(ingress, 0)
        return Stream(self.computation, ingress, 0)

    def _leave_scope(self) -> "Stream":
        if self.context is None:
            raise GraphValidationError("stream is not inside a loop context")
        egress = self.computation.add_egress(self.context)
        self.connect_to(egress, 0)
        return Stream(self.computation, egress, 0)

    def iterate(
        self,
        body: Callable[["Stream"], "Stream"],
        max_iterations: Optional[int] = None,
        partitioner: Optional[Callable[[Any], int]] = None,
        name: str = "iterate",
    ) -> "Stream":
        """Run ``body`` to fixed point inside a new loop scope.

        ``body`` receives the concatenation of this stream (entered into
        the loop) and the feedback stream, and returns the stream to feed
        back.  Iteration stops when the body stops producing records (or
        after ``max_iterations``).  Returns the body output, taken out of
        the loop through an egress.
        """
        with self.scoped_loop(name=name, max_iterations=max_iterations) as loop:
            merged = loop.entered.concat(loop.feedback)
            result = body(merged)
            loop.feed(result, partitioner=partitioner)
            out = loop.leave_with(result)
        return out

    def __repr__(self) -> str:
        return "Stream(%s[%d])" % (self.stage.name, self.port)


class Probe:
    """Observes completion of epochs at a point in the dataflow."""

    __slots__ = ("computation", "stage")

    def __init__(self, computation: Computation, stage: Stage):
        self.computation = computation
        self.stage = stage

    def _states(self):
        views = getattr(self.computation, "views", None)
        if views is not None:
            return [view.state for view in views]
        return [self.computation.progress]

    def first_incomplete(self) -> Optional[int]:
        """The earliest epoch that could still deliver work here.

        ``None`` means everything that will ever reach this probe has
        arrived (all inputs closed and drained).
        """
        summaries = self.computation.graph.summaries
        result: Optional[int] = None
        for state in self._states():
            for q in state.frontier():
                if (q.location, self.stage) in summaries:
                    epoch = q.timestamp.epoch
                    if result is None or epoch < result:
                        result = epoch
        return result

    def done(self, epoch: int) -> bool:
        """True iff no outstanding work can still reach this probe at
        or before ``epoch``."""
        first = self.first_incomplete()
        return first is None or first > epoch


class FeedbackEdge:
    """One feedback stage of a loop scope, wired output-first.

    The stage's output (``edge.stream``, iteration i+1's input) is
    available before its input is connected (``edge.feed``) — the one
    place the graph may be wired output-first (section 4.3) — enabling
    cyclic topologies.
    """

    __slots__ = ("computation", "stage", "connected")

    def __init__(self, computation: Computation, stage: Stage):
        self.computation = computation
        self.stage = stage
        self.connected = False

    @property
    def stream(self) -> Stream:
        """The feedback stage's output (iteration i+1's input)."""
        return Stream(self.computation, self.stage, 0)

    def feed(
        self, stream: Stream, partitioner: Optional[Callable[[Any], int]] = None
    ) -> None:
        """Close the cycle: feed ``stream`` into this feedback stage."""
        if self.connected:
            raise GraphValidationError(
                "feedback input of %r is already connected" % self.stage.name
            )
        stream.connect_to(self.stage, 0, partitioner)
        self.connected = True


class LoopScope:
    """Context-manager handle for building one loop scope (section 4.3).

    Created by :meth:`Stream.scoped_loop` (anchored on a stream) or
    :meth:`repro.core.computation.Computation.scope` (free-standing).
    Inside the with-block the handle offers:

    - ``entered`` — the anchor stream brought through the ingress
      (``scoped_loop`` only);
    - ``enter(stream)`` — bring a further parent-scope stream in;
    - ``feedback`` / ``feed(stream, partitioner)`` — the primary
      feedback cycle;
    - ``feedback_edge(max_iterations)`` — additional feedback stages
      for multi-cycle bodies;
    - ``leave_with(stream)`` — take a body stream out through an
      egress (also remembered as ``output``);
    - ``stage(...)`` — declare a raw vertex stage inside the scope.

    ``__exit__`` validates eagerly: every feedback edge must have been
    fed, else :class:`repro.core.graph.FeedbackNotConnectedError`.
    """

    def __init__(
        self,
        computation: Computation,
        parent: Optional[LoopContext] = None,
        max_iterations: Optional[int] = None,
        name: str = "loop",
        anchor: Optional[Stream] = None,
    ):
        self.computation = computation
        self.context = computation.new_loop_context(parent, name)
        self._parent = parent
        self._anchor = anchor
        self._primary = FeedbackEdge(
            computation, computation.add_feedback(self.context, max_iterations)
        )
        self._edges: List[FeedbackEdge] = [self._primary]
        #: The anchor stream inside the scope (set at ``__enter__``).
        self.entered: Optional[Stream] = None
        #: The last ``leave_with`` result (None until one is taken).
        self.output: Optional[Stream] = None

    # -- context manager protocol --------------------------------------

    def __enter__(self) -> "LoopScope":
        self.computation.graph.open_scopes.append(self)
        if self._anchor is not None:
            self.entered = self._anchor._enter_scope(self.context)
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        open_scopes = self.computation.graph.open_scopes
        if self in open_scopes:
            open_scopes.remove(self)
        if exc_type is not None:
            return False  # don't mask the body's exception
        unfed = sum(1 for edge in self._edges if not edge.connected)
        if unfed:
            raise FeedbackNotConnectedError(self.context.name, unfed)
        return False

    # -- building inside the scope -------------------------------------

    @property
    def feedback(self) -> Stream:
        """The primary feedback stream (iteration i+1's input)."""
        return self._primary.stream

    def feed(
        self, stream: Stream, partitioner: Optional[Callable[[Any], int]] = None
    ) -> None:
        """Close the primary cycle with ``stream`` (inside the scope)."""
        self._primary.feed(stream, partitioner)

    def feedback_edge(
        self, max_iterations: Optional[int] = None
    ) -> FeedbackEdge:
        """An additional feedback stage for multi-cycle loop bodies."""
        edge = FeedbackEdge(
            self.computation,
            self.computation.add_feedback(self.context, max_iterations),
        )
        self._edges.append(edge)
        return edge

    def enter(self, stream: Stream) -> Stream:
        """Bring a parent-scope stream in through a new ingress."""
        return stream._enter_scope(self.context)

    def leave_with(self, stream: Stream) -> Stream:
        """Take a scope-interior stream out through a new egress."""
        if stream.context is not self.context:
            raise GraphValidationError(
                "leave_with() expects a stream inside scope %r (got one in %r)"
                % (self.context.name, getattr(stream.context, "name", None))
            )
        self.output = stream._leave_scope()
        return self.output

    def stage(
        self,
        name: str,
        factory: Callable[[Stage, int], Vertex],
        num_inputs: int = 1,
        num_outputs: int = 1,
    ) -> Stage:
        """Declare a raw vertex stage inside this scope.

        ``factory(stage, worker_index)`` builds the vertex, matching
        :meth:`repro.core.graph.DataflowGraph.new_stage`.
        """
        return self.computation.graph.new_stage(
            name, factory, num_inputs, num_outputs, context=self.context
        )

    def __repr__(self) -> str:
        return "LoopScope(%r)" % self.context.name
