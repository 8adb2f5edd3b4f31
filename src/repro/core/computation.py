"""The single-threaded reference runtime (paper sections 2.3 and 4.1).

:class:`Computation` plays the role of Naiad's controller plus a single
worker: programs define a dataflow graph (inputs, stages, loop contexts,
connectors), call :meth:`Computation.build`, and then repeatedly supply
epochs of input via :class:`InputHandle.on_next`.  It runs one
:class:`repro.core.worker.Worker` — the simulated cluster of
:mod:`repro.runtime` runs many — and commits each callback at once to its
:class:`repro.core.progress.ProgressState` and queue.  This runtime
executes programs for real and is the substrate for the examples and
correctness tests.
"""

from __future__ import annotations

from time import perf_counter
from typing import Any, Callable, Dict, List, Optional, Tuple

from ..obs.trace import TraceEvent, TraceSink, timestamp_tuple
from .graph import Connector, DataflowGraph, LoopContext, Stage, StageKind
from .progress import Pointstamp, ProgressState
from .runtime_api import RuntimeDebugState, TimelyRuntime
from .timestamp import Timestamp
from .vertex import ForwardingVertex, Vertex
from .worker import Worker


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
        #: ``(stage, worker index) -> vertex``, filled by build().
        self.vertices: Dict[Tuple[Stage, int], Vertex] = {}
        self.inputs: List[InputHandle] = []
        #: Serving layer (repro.serve): registered shared arrangements by
        #: name, and the session managers notified on every publish.
        self.arrangements: Dict[str, Any] = {}
        self.session_managers: List[Any] = []
        self.progress: Optional[ProgressState] = None
        #: The workers (one here), created by build().
        self.workers: List[Worker] = []
        self._built = False
        #: Sends forwarded through a loop plumbing stage inside the
        #: producing callback (``Connector.cut_through``), not queued.
        self.cut_through_hops = 0
        #: Queue entries merged away by batch coalescing (the
        #: optimizer's ``Connector.coalesce`` hints; see Worker._select).
        self.coalesced_batches = 0
        #: Same-callback dispatches to one (connector, dest, time) merged
        #: into a single dispatch (see Worker._dispatch).
        self.sender_merged_dispatches = 0
        #: Attached observability sink (None = tracing off; the hot
        #: paths then perform a single identity test and nothing else).
        self._trace: Optional[TraceSink] = None
        #: Frontier version at the last emitted frontier event.
        self._trace_version = -1

    @property
    def delivered_messages(self) -> int:
        """Messages delivered so far, over all workers."""
        return sum(worker.delivered_messages for worker in self.workers)

    @property
    def delivered_notifications(self) -> int:
        """Notifications and cleanups delivered so far, over all workers."""
        return sum(worker.delivered_notifications for worker in self.workers)

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

    def _trace_frontier(
        self, trace: TraceSink, state: ProgressState, now: float, worker: int
    ) -> None:
        """Emit a ``frontier`` event if ``state``'s frontier moved."""
        state.settle()
        if state.version == self._trace_version:
            return
        self._trace_version = state.version
        frontier = state.frontier()
        epochs = [p.timestamp.epoch for p in frontier]
        trace.emit(
            TraceEvent(
                "frontier",
                now,
                0.0,
                perf_counter(),
                worker,
                0,
                "",
                (),
                (len(state), len(frontier), min(epochs) if epochs else -1),
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
        self._expand()
        worker = Worker(self, 0)
        self.workers = [worker]
        for vertex in self.vertices.values():
            worker.bind(vertex)
        for handle in self.inputs:
            # Section 2.3: one active pointstamp per input, first epoch.
            self.progress.update(Pointstamp(Timestamp(0), handle.stage), +1)
        for manager in self.session_managers:
            manager._attach(self)
        self._built = True

    def _expand(self) -> None:
        """Section 3.1: one vertex per (stage, worker)."""
        for stage in self.graph.stages:
            if stage.kind is StageKind.INPUT:
                continue
            for index in range(self.total_workers):
                vertex = stage.factory(stage, index)
                vertex.stage = stage
                vertex.worker = index
                self.vertices[(stage, index)] = vertex

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
            enqueue = self.workers[0].enqueue
            for connector in stage.outputs[0]:
                self.progress.update(Pointstamp(timestamp, connector), +1)
                enqueue((connector, records, timestamp, 0, 0, None))
        self.progress.update(Pointstamp(Timestamp(epoch + 1), stage), +1)
        self.progress.update(Pointstamp(timestamp, stage), -1)

    def _input_closed(self, stage: Stage, next_epoch: int) -> None:
        """Retire the input's active pointstamp entirely."""
        self.progress.update(Pointstamp(Timestamp(next_epoch), stage), -1)

    # ------------------------------------------------------------------
    # Scheduling.
    # ------------------------------------------------------------------

    def step(self) -> bool:
        """Run one unit of work — a message, or else a deliverable
        notification or cleanup — and commit it.

        Returns False when no work can currently be performed.
        """
        self._check_built()
        worker = self.workers[0]
        trace = self._trace
        wall = perf_counter() if trace is not None else 0.0
        ran = worker.run_one()
        if ran is None:
            return False
        work, _, updates, dispatches = ran
        update = self.progress.update
        for pointstamp, delta in updates:
            update(pointstamp, delta)
        enqueue = worker.enqueue
        for connector, _dest, batch, out_time in dispatches:
            enqueue((connector, batch, out_time, 0, 0, None))
        if trace is not None:
            now = self._logical_time()
            worker._trace_span(trace, work, len, now, perf_counter() - wall, wall)
            if work[0] != "cleanup":
                self._trace_frontier(trace, self.progress, now, 0)
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
        return (
            self.progress is not None
            and len(self.progress) == 0
            and not self.workers[0].has_work()
        )

    def frontier(self) -> List[Pointstamp]:
        self._check_built()
        return self.progress.frontier()

    def debug_state(self) -> RuntimeDebugState:
        """A structured snapshot of runtime state (``str()``-able)."""
        self._check_built()
        state = self._debug_state()
        state.text = (
            f"queued={state.queued_messages} "
            f"pending_notifications={state.pending_notifications} "
            f"delivered={state.delivered_messages}+{state.delivered_notifications} "
            f"frontier={list(state.frontier)!r} cut_through_hops={state.cut_through_hops}"
        )
        return state

    def _debug_state(self, **fields) -> RuntimeDebugState:
        """The fields both runtimes report, plus ``fields``."""
        frontier = self.frontier() if self._built else ()
        return RuntimeDebugState(
            runtime=type(self).__name__,
            delivered_messages=self.delivered_messages,
            delivered_notifications=self.delivered_notifications,
            cut_through_hops=self.cut_through_hops,
            queued_messages=sum(len(worker.queue) for worker in self.workers),
            pending_notifications=sum(worker.pending_requests for worker in self.workers),
            frontier=tuple(sorted(timestamp_tuple(p.timestamp) for p in frontier)),
            **fields,
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
        worker = self.workers[0]
        if worker._frame_time is not None:
            raise RuntimeError(
                "checkpoint() called from inside a vertex callback; "
                "a consistent snapshot requires the worker to be paused"
            )
        while worker.queue:
            self.step()
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
            "vertices": self.checkpoint_vertex_states(),
            "occurrence": dict(self.progress.occurrence),
            "pending": dict(worker.pending_notifications),
            "cleanups": dict(worker.pending_cleanups),
            "epochs": [(h.next_epoch, h.closed) for h in self.inputs],
        }

    def checkpoint_vertex_states(self) -> Dict[Tuple[int, int], Any]:
        """Snapshot every vertex's state, keyed ``(stage.index, worker)``.
        The caller guarantees quiescence."""
        return {
            (stage.index, index): vertex.checkpoint()
            for (stage, index), vertex in self.vertices.items()
        }

    def _restore_vertex_states(self, states: Dict[Tuple[int, int], Any], workers) -> None:
        """Reload the vertices of ``workers`` from ``states``."""
        by_index = {stage.index: stage for stage in self.graph.stages}
        for (stage_index, index), state in states.items():
            if index in workers:
                self.vertices[(by_index[stage_index], index)].restore(state)

    def restore(self, snapshot: Dict[str, Any]) -> None:
        """Reset the computation to a :meth:`checkpoint` snapshot."""
        self._check_built()
        worker = self.workers[0]
        if worker._frame_time is not None:
            raise RuntimeError(
                "restore() called from inside a vertex callback; "
                "rollback requires the worker to be paused"
            )
        worker.queue.clear()
        worker.queued_keys.clear()
        self._restore_vertex_states(snapshot["vertices"], (0,))
        self.progress.reset(snapshot["occurrence"])
        worker.load_pending(snapshot["pending"], snapshot.get("cleanups", {}))
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
            self._trace_frontier(trace, self.progress, self._logical_time(), 0)

    def __repr__(self) -> str:
        return "Computation(%r, built=%s)" % (self.graph, self._built)
