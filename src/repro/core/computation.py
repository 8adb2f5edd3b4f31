"""The single-threaded reference runtime (paper sections 2.3 and 4.1).

:class:`Computation` plays the role of Naiad's controller plus a single
worker: programs define a dataflow graph (inputs, stages, loop contexts,
connectors), call :meth:`Computation.build`, and then repeatedly supply
epochs of input via :class:`InputHandle.on_next`.  The scheduler delivers
messages before notifications (section 3.2) and delivers a notification
only when its pointstamp is in the frontier maintained by
:class:`repro.core.progress.ProgressState` — the paper's guarantee that
``on_notify(t)`` follows all deliveries at times ``t' <= t``.

This runtime executes programs for real and is the substrate for the
examples and correctness tests; the simulated distributed runtime in
:mod:`repro.runtime` reuses the same graphs and vertices.
"""

from __future__ import annotations

from collections import deque
from time import perf_counter
from typing import Any, Callable, Dict, List, Optional, Tuple

from ..obs.trace import TraceEvent, TraceSink, timestamp_tuple
from .graph import Connector, DataflowGraph, LoopContext, Stage, StageKind
from .progress import Pointstamp, ProgressState
from .runtime_api import RuntimeDebugState, TimelyRuntime
from .timestamp import Timestamp
from .vertex import ForwardingVertex, Vertex


class TimestampViolation(RuntimeError):
    """A callback tried to send or request notification in the past."""


class InputHandle:
    """External producer interface to an input stage (section 4.1).

    ``on_next(records)`` supplies one epoch of input *and* marks that
    epoch complete; ``on_completed()`` closes the input.  Epochs are
    consecutive integers starting at 0.
    """

    def __init__(self, computation: "Computation", stage: Stage):
        self._computation = computation
        self.stage = stage
        self.next_epoch = 0
        self.closed = False

    def on_next(self, records: Optional[List[Any]] = None) -> int:
        """Introduce (and complete) the next input epoch; returns it."""
        if self.closed:
            raise RuntimeError("input %r is closed" % self.stage.name)
        self._computation._check_built()
        epoch = self.next_epoch
        self._computation._input_epoch(self.stage, list(records or ()), epoch)
        self.next_epoch = epoch + 1
        return epoch

    def on_completed(self) -> None:
        """Close the input: no further epochs will arrive."""
        if self.closed:
            return
        self._computation._check_built()
        self._computation._input_closed(self.stage, self.next_epoch)
        self.closed = True


class Computation(TimelyRuntime):
    """A timely dataflow computation on the single-threaded runtime.

    ``build()`` compiles the graph through :mod:`repro.opt`'s default
    passes.  ``optimize=False`` (the unrewritten graph) and a custom
    pass list are oracle-only: the equivalence tests compare the default
    plan against them, and programs and benchmarks leave them alone.
    """

    #: Parallelism visible to vertices (the reference runtime has one worker).
    total_workers = 1

    def __init__(self, optimize: Optional[Any] = None):
        # Plan optimization (repro.opt): build() compiles the graph
        # through the default passes.  ``False`` (the unrewritten graph)
        # and a pass list exist as the equivalence tests' A/B oracle.
        self.optimize = optimize
        #: The compiled :class:`repro.opt.plan.PhysicalPlan` (None until
        #: build(), or with ``optimize=False``).
        self.plan = None
        self.graph = DataflowGraph()
        self.vertices: Dict[Stage, Vertex] = {}
        self.inputs: List[InputHandle] = []
        #: Serving layer (repro.serve): registered shared arrangements by
        #: name, and the session managers notified on every publish.
        self.arrangements: Dict[str, Any] = {}
        self.session_managers: List[Any] = []
        self.progress: Optional[ProgressState] = None
        self._message_queue: deque = deque()
        self._pending_notifications: Dict[Pointstamp, int] = {}
        self._pending_cleanups: Dict[Pointstamp, int] = {}
        self._frame: List[Tuple[Vertex, Timestamp, bool]] = []
        self._built = False
        #: Number of delivered messages / notifications (for inspection).
        self.delivered_messages = 0
        self.delivered_notifications = 0
        #: Sends forwarded through a loop plumbing stage inside the
        #: producing callback (``Connector.cut_through``), not queued.
        self.cut_through_hops = 0
        #: Attached observability sink (None = tracing off; the hot
        #: paths then perform a single identity test and nothing else).
        self._trace: Optional[TraceSink] = None
        #: Frontier version at the last emitted frontier event.
        self._trace_version = -1

    # ------------------------------------------------------------------
    # Observability (repro.obs).
    # ------------------------------------------------------------------

    def attach_trace_sink(self, sink: Optional[TraceSink]) -> None:
        """Emit trace events into ``sink`` from now on (None detaches)."""
        self._trace = sink

    def _logical_time(self) -> float:
        """The reference runtime has no virtual clock; trace events are
        stamped with the logical delivery counter instead."""
        return float(self.delivered_messages + self.delivered_notifications)

    # ------------------------------------------------------------------
    # Serving layer hooks (repro.serve).
    # ------------------------------------------------------------------

    def register_arrangement(self, handle) -> None:
        """Record a shared arrangement built by ``Stream.arrange_by``."""
        if handle.name in self.arrangements:
            raise ValueError(
                "arrangement name %r is already registered" % (handle.name,)
            )
        self.arrangements[handle.name] = handle

    def _arrangement_published(self, name: str, epoch: int) -> None:
        """Publish hook fired by :class:`repro.serve.ArrangeVertex` after
        applying one epoch: traces the publish and lets session managers
        re-check parked stale queries against the new frontier."""
        trace = self._trace
        if trace is not None:
            now = getattr(self, "now", None)
            trace.emit(
                TraceEvent(
                    "serve",
                    self._logical_time() if now is None else now,
                    0.0,
                    perf_counter(),
                    -1,
                    0,
                    name,
                    (epoch,),
                    ("publish",),
                )
            )
        for manager in self.session_managers:
            manager._on_publish(name, epoch)

    def _trace_frontier(self, trace: TraceSink) -> None:
        self.progress.settle()
        if self.progress.version == self._trace_version:
            return
        self._trace_version = self.progress.version
        frontier = self.progress.frontier()
        epochs = [p.timestamp.epoch for p in frontier]
        trace.emit(
            TraceEvent(
                "frontier",
                self._logical_time(),
                0.0,
                perf_counter(),
                0,
                0,
                "",
                (),
                (len(self.progress), len(frontier), min(epochs) if epochs else -1),
            )
        )

    # ------------------------------------------------------------------
    # Graph construction.
    # ------------------------------------------------------------------

    def new_input(self, name: Optional[str] = None) -> InputHandle:
        stage = self.graph.new_stage(
            name or "input%d" % len(self.inputs),
            factory=None,
            num_inputs=0,
            num_outputs=1,
            kind=StageKind.INPUT,
        )
        handle = InputHandle(self, stage)
        self.inputs.append(handle)
        return handle

    def add_stage(
        self,
        name: str,
        factory: Callable[[], Vertex],
        num_inputs: int = 1,
        num_outputs: int = 1,
        context: Optional[LoopContext] = None,
    ) -> Stage:
        """Add a user stage whose vertices come from ``factory()``."""
        return self.graph.new_stage(
            name,
            lambda stage, worker: factory(),
            num_inputs,
            num_outputs,
            StageKind.NORMAL,
            context,
        )

    def new_loop_context(
        self, parent: Optional[LoopContext] = None, name: Optional[str] = None
    ) -> LoopContext:
        return self.graph.new_loop_context(parent, name)

    def scope(
        self,
        name: str = "loop",
        max_iterations: Optional[int] = None,
        parent: Optional[LoopContext] = None,
    ):
        """Open a free-standing loop scope (a context manager).

        The builder-API counterpart of :meth:`Stream.scoped_loop` for
        loops without a single anchoring stream::

            with comp.scope("pregel", max_iterations=50) as scope:
                body = scope.stage(...)
                scope.enter(graph_stream).connect_to(body, 0, ...)
                scope.feedback.connect_to(body, 1, ...)
                scope.feed(Stream(comp, body, 0), partitioner=...)
                out = scope.leave_with(Stream(comp, body, 1))

        Returns a :class:`repro.lib.stream.LoopScope`; ``__exit__``
        validates that every feedback edge was fed and build() inside
        the block raises :class:`repro.core.graph.UnclosedScopeError`.
        """
        from ..lib.stream import LoopScope

        return LoopScope(
            self, parent=parent, max_iterations=max_iterations, name=name
        )

    def add_ingress(self, context: LoopContext, name: Optional[str] = None) -> Stage:
        return self.graph.new_stage(
            name or "%s.ingress" % context.name,
            lambda stage, worker: ForwardingVertex(),
            1,
            1,
            StageKind.INGRESS,
            context,
        )

    def add_egress(self, context: LoopContext, name: Optional[str] = None) -> Stage:
        return self.graph.new_stage(
            name or "%s.egress" % context.name,
            lambda stage, worker: ForwardingVertex(),
            1,
            1,
            StageKind.EGRESS,
            context,
        )

    def add_feedback(
        self,
        context: LoopContext,
        max_iterations: Optional[int] = None,
        name: Optional[str] = None,
    ) -> Stage:
        return self.graph.new_stage(
            name or "%s.feedback" % context.name,
            lambda stage, worker: ForwardingVertex(max_iterations),
            1,
            1,
            StageKind.FEEDBACK,
            context,
        )

    def connect(
        self,
        src: Stage,
        dst: Stage,
        src_port: int = 0,
        dst_port: int = 0,
        partitioner: Optional[Callable[[Any], int]] = None,
    ) -> Connector:
        return self.graph.connect(src, src_port, dst, dst_port, partitioner)

    # ------------------------------------------------------------------
    # Build.
    # ------------------------------------------------------------------

    def _apply_optimizer(self) -> None:
        """Compile the logical plan through repro.opt (when enabled).

        Runs immediately before ``freeze()`` in both runtimes; the
        rewritten graph is what gets validated, summarised and expanded
        into vertices.  The resulting :class:`PhysicalPlan` is kept on
        ``self.plan`` for ``explain()``/``to_dot()`` inspection.
        """
        if self.optimize is False or self.graph.frozen:
            return
        from ..opt.passes import compile_plan

        passes = None if self.optimize in (None, True) else self.optimize
        self.plan = compile_plan(
            self.graph,
            total_workers=self.total_workers,
            passes=passes,
            trace=self._trace,
        )

    def build(self) -> None:
        """Validate the graph, compute summaries, instantiate vertices."""
        if self._built:
            return
        self._apply_optimizer()
        self.graph.freeze()
        self.progress = ProgressState(self.graph.summaries)
        for stage in self.graph.stages:
            if stage.kind is StageKind.INPUT:
                continue
            vertex = stage.factory(stage, 0)
            vertex.stage = stage
            vertex.worker = 0
            vertex._harness = self
            self.vertices[stage] = vertex
        for handle in self.inputs:
            # Section 2.3: one active pointstamp per input, first epoch.
            self.progress.update(Pointstamp(Timestamp(0), handle.stage), +1)
        for manager in self.session_managers:
            manager._attach(self)
        self._built = True

    def _check_built(self) -> None:
        if not self._built:
            raise RuntimeError("call Computation.build() first")

    # ------------------------------------------------------------------
    # Input-stage events (overridden by the distributed runtime).
    # ------------------------------------------------------------------

    def _input_epoch(self, stage: Stage, records: List[Any], epoch: int) -> None:
        """Section 2.3: deliver epoch data, then advance the input's
        active pointstamp from ``epoch`` to ``epoch + 1``."""
        timestamp = Timestamp(epoch)
        trace = self._trace
        if trace is not None:
            trace.emit(
                TraceEvent(
                    "input",
                    self._logical_time(),
                    0.0,
                    perf_counter(),
                    0,
                    0,
                    stage.name,
                    (epoch,),
                    (len(records),),
                )
            )
        if records:
            self._enqueue_output(stage, 0, records, timestamp)
        self.progress.update(Pointstamp(Timestamp(epoch + 1), stage), +1)
        self.progress.update(Pointstamp(timestamp, stage), -1)

    def _input_closed(self, stage: Stage, next_epoch: int) -> None:
        """Retire the input's active pointstamp entirely."""
        self.progress.update(Pointstamp(Timestamp(next_epoch), stage), -1)

    # ------------------------------------------------------------------
    # Harness interface used by Vertex.send_by / Vertex.notify_at.
    # ------------------------------------------------------------------

    def send(
        self, vertex: Vertex, output_port: int, records: List[Any], timestamp: Timestamp
    ) -> None:
        stage = vertex.stage
        if stage.kind is StageKind.NORMAL:
            self._enforce_causality(timestamp, "send_by")
        self._enqueue_output(stage, output_port, records, timestamp)

    def charge(self, records: List[Any]) -> None:
        """Fused vertices report constituent hand-offs for the cluster's
        cost model; the reference runtime has no virtual clock."""

    def request_notification(
        self, vertex: Vertex, timestamp: Timestamp, capability: bool = True
    ) -> None:
        stage = vertex.stage
        self._enforce_causality(timestamp, "notify_at")
        pointstamp = Pointstamp(timestamp, stage)
        if capability:
            self.progress.update(pointstamp, +1)
            self._pending_notifications[pointstamp] = (
                self._pending_notifications.get(pointstamp, 0) + 1
            )
        else:
            # Section 2.4: guarantee-only (capability = ⊤) request; it
            # holds no pointstamp and so cannot delay anything.
            self._pending_cleanups[pointstamp] = (
                self._pending_cleanups.get(pointstamp, 0) + 1
            )

    def _enforce_causality(self, timestamp: Timestamp, what: str) -> None:
        if not self._frame:
            return
        _, current, capability = self._frame[-1]
        if not capability:
            raise TimestampViolation(
                "%s from a capability-free (state purging) notification" % (what,)
            )
        if current.depth == timestamp.depth and not current.less_equal(timestamp):
            raise TimestampViolation(
                "%s at %r from a callback at %r sends backwards in time"
                % (what, timestamp, current)
            )

    def _enqueue_output(
        self, stage: Stage, output_port: int, records: List[Any], timestamp: Timestamp
    ) -> None:
        out_time = stage.timestamp_action().apply(timestamp)
        for connector in stage.outputs[output_port]:
            if connector.cut_through:
                # Plumbing cut-through (repro.opt): run the stateless
                # hop here — no pointstamp, queue entry or delivery.
                self.cut_through_hops += 1
                hop = connector.dst
                if not self.vertices[hop].drops(out_time):
                    self._enqueue_output(hop, 0, records, out_time)
                continue
            self.progress.update(Pointstamp(out_time, connector), +1)
            self._message_queue.append((connector, records, out_time))

    def _deliver_message(
        self, connector: Connector, records: List[Any], timestamp: Timestamp
    ) -> None:
        vertex = self.vertices[connector.dst]
        trace = self._trace
        wall = perf_counter() if trace is not None else 0.0
        self._frame.append((vertex, timestamp, True))
        try:
            vertex.on_recv(connector.dst_port, records, timestamp)
        finally:
            self._frame.pop()
        self.progress.update(Pointstamp(timestamp, connector), -1)
        self.delivered_messages += 1
        if trace is not None:
            trace.emit(
                TraceEvent(
                    "activation",
                    self._logical_time(),
                    perf_counter() - wall,
                    wall,
                    0,
                    0,
                    connector.dst.name,
                    timestamp_tuple(timestamp),
                    (len(records), connector.dst_port),
                )
            )
            self._trace_frontier(trace)

    # ------------------------------------------------------------------
    # Scheduling.
    # ------------------------------------------------------------------

    def step(self) -> bool:
        """Deliver one message or one frontier notification.

        Returns False when no work can currently be performed.
        """
        self._check_built()
        if self._message_queue:
            connector, records, timestamp = self._message_queue.popleft()
            self._deliver_message(connector, records, timestamp)
            return True
        return self._deliver_notification()

    def _deliver_notification(self) -> bool:
        """Deliver one frontier notification, or else one guarantee-only
        (capability-free) cleanup.

        A notification is deliverable once its pointstamp is in the
        frontier; a cleanup once no active pointstamp could-result-in
        it.  A cleanup holds no occurrence count, so it never blocks
        anything else and retires nothing.
        """
        table, capability = self._pending_notifications, True
        ready = [p for p in table if self.progress.in_frontier(p)]
        if not ready:
            table, capability = self._pending_cleanups, False
            ready = [p for p in table if not self.progress.frontier_dominates(p)]
            if not ready:
                return False
        pointstamp = min(ready, key=lambda p: (p.timestamp, p.location.index))
        remaining = table[pointstamp] - 1
        if remaining:
            table[pointstamp] = remaining
        else:
            del table[pointstamp]
        vertex = self.vertices[pointstamp.location]
        trace = self._trace
        wall = perf_counter() if trace is not None else 0.0
        self._frame.append((vertex, pointstamp.timestamp, capability))
        try:
            vertex.on_notify(pointstamp.timestamp)
        finally:
            self._frame.pop()
        if capability:
            self.progress.update(pointstamp, -1)
        self.delivered_notifications += 1
        if trace is not None:
            trace.emit(
                TraceEvent(
                    "notification" if capability else "cleanup",
                    self._logical_time(),
                    perf_counter() - wall,
                    wall,
                    0,
                    0,
                    pointstamp.location.name,
                    timestamp_tuple(pointstamp.timestamp),
                    (),
                )
            )
            if capability:
                self._trace_frontier(trace)
        return True

    def run(
        self,
        max_steps: Optional[int] = None,
        until: Optional[float] = None,
    ) -> int:
        """Deliver events until quiescent; returns the number of steps.

        ``until`` is accepted for signature compatibility with the
        simulated cluster runtime (the unified :class:`TimelyRuntime`
        surface); the reference runtime has no virtual clock, so it is
        a documented no-op.
        """
        steps = 0
        while self.step():
            steps += 1
            if max_steps is not None and steps >= max_steps:
                break
        return steps

    def drained(self) -> bool:
        """True when no events remain anywhere in the computation."""
        return self.progress is not None and len(self.progress) == 0

    def frontier(self) -> List[Pointstamp]:
        self._check_built()
        return self.progress.frontier()

    def debug_state(self) -> RuntimeDebugState:
        """A structured snapshot of runtime state (``str()``-able)."""
        self._check_built()
        pending = sum(self._pending_notifications.values()) + sum(
            self._pending_cleanups.values()
        )
        frontier = tuple(
            sorted(timestamp_tuple(p.timestamp) for p in self.progress.frontier())
        )
        text = "queued=%d pending_notifications=%d delivered=%d+%d frontier=%r" % (
            len(self._message_queue),
            pending,
            self.delivered_messages,
            self.delivered_notifications,
            list(frontier),
        )
        text += " cut_through_hops=%d" % self.cut_through_hops
        return RuntimeDebugState(
            runtime=type(self).__name__,
            delivered_messages=self.delivered_messages,
            delivered_notifications=self.delivered_notifications,
            cut_through_hops=self.cut_through_hops,
            queued_messages=len(self._message_queue),
            pending_notifications=pending,
            frontier=frontier,
            text=text,
        )

    # ------------------------------------------------------------------
    # Fault tolerance (section 3.4).
    # ------------------------------------------------------------------

    def checkpoint(self) -> Dict[str, Any]:
        """Produce a consistent checkpoint of the whole computation.

        Mirrors the paper's cycle: flush message queues by delivering
        outstanding on_recv events, then snapshot every stateful vertex
        and the progress-tracking state.
        """
        self._check_built()
        if self._frame:
            raise RuntimeError(
                "checkpoint() called from inside a vertex callback; "
                "a consistent snapshot requires the worker to be paused"
            )
        while self._message_queue:
            connector, records, timestamp = self._message_queue.popleft()
            self._deliver_message(connector, records, timestamp)
        trace = self._trace
        if trace is not None:
            trace.emit(
                TraceEvent(
                    "checkpoint",
                    self._logical_time(),
                    0.0,
                    perf_counter(),
                    -1,
                    -1,
                    "",
                    (),
                    (len(self.vertices),),
                )
            )
        return {
            "vertices": {
                stage.index: vertex.checkpoint()
                for stage, vertex in self.vertices.items()
            },
            "occurrence": dict(self.progress.occurrence),
            "pending": dict(self._pending_notifications),
            "cleanups": dict(self._pending_cleanups),
            "epochs": [(h.next_epoch, h.closed) for h in self.inputs],
        }

    def restore(self, snapshot: Dict[str, Any]) -> None:
        """Reset the computation to a :meth:`checkpoint` snapshot."""
        self._check_built()
        if self._frame:
            raise RuntimeError(
                "restore() called from inside a vertex callback; "
                "rollback requires the worker to be paused"
            )
        self._message_queue.clear()
        by_index = {stage.index: stage for stage in self.graph.stages}
        for index, state in snapshot["vertices"].items():
            self.vertices[by_index[index]].restore(state)
        self.progress = ProgressState(self.graph.summaries)
        for pointstamp, count in snapshot["occurrence"].items():
            self.progress.update(pointstamp, count)
        self._pending_notifications = dict(snapshot["pending"])
        self._pending_cleanups = dict(snapshot.get("cleanups", {}))
        for handle, (epoch, closed) in zip(self.inputs, snapshot["epochs"]):
            handle.next_epoch = epoch
            handle.closed = closed
        trace = self._trace
        if trace is not None:
            trace.emit(
                TraceEvent(
                    "restore",
                    self._logical_time(),
                    0.0,
                    perf_counter(),
                    -1,
                    -1,
                    "",
                    (),
                    (len(snapshot["vertices"]),),
                )
            )
            self._trace_version = -1
            self._trace_frontier(trace)

    def __repr__(self) -> str:
        return "Computation(%r, built=%s)" % (self.graph, self._built)
