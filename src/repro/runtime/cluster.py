"""The simulated distributed Naiad runtime (paper section 3).

:class:`ClusterComputation` executes an unmodified timely dataflow
program on a model of the paper's cluster: ``num_processes`` processes,
each hosting ``workers_per_process`` workers, connected by the network
model of :mod:`repro.sim.network`.  The logical graph expands into a
physical graph with one vertex per (stage, worker); connectors with a
partitioning function exchange records between workers by key
(section 3.1).  Vertices *really execute* — outputs are real — while
elapsed time follows a calibrated cost model and a discrete-event
simulation, so scaling and latency experiments run in virtual time.

Progress coordination uses the distributed protocol of section 3.3
(:mod:`repro.runtime.protocol`): workers broadcast occurrence-count
deltas; notifications are delivered only when the process's local view
shows no possible earlier work, which — by the protocol's safety
property — never precedes the true global frontier.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from time import perf_counter
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from ..core.computation import Computation
from ..core.graph import Connector, Stage
from ..core.progress import Pointstamp
from ..core.runtime_api import RuntimeDebugState
from ..core.timestamp import Timestamp
from ..core.vertex import Vertex
from ..core.worker import TimestampViolation, Worker, route
from ..obs.trace import TraceEvent, TraceSink, timestamp_tuple
from ..sim.des import Simulator
from ..sim.network import Network, NetworkConfig
from .checkpoint import RECOVERY_POLICIES, RecoveryManager, share, spread
from .protocol import ProgressPlane
from .synthetic import batch_bytes, record_count


@dataclass
class CostModel:
    """Per-operation virtual-time costs, calibrated to section 5.

    The defaults were tuned so that single-computer microbenchmark
    results land in the same regime as the paper's hardware (2.1 GHz
    Opterons): roughly 5M records/s/worker of processing and ~100 MB/s
    of serialization throughput per core.
    """

    #: Fixed cost of dispatching one callback (on_recv / on_notify).
    callback_overhead: float = 2e-6
    #: CPU time per record handled in a callback.
    per_record_cost: float = 200e-9
    #: Sender-side serialization cost per byte (remote sends only).
    serialize_per_byte: float = 8e-9
    #: Receiver-side deserialization cost per byte.
    deserialize_per_byte: float = 8e-9
    #: Default serialized record size when not synthetic.
    record_bytes: int = 8
    #: Cost of delivering one notification.
    notification_cost: float = 2e-6


@dataclass
class FaultTolerance:
    """Fault-tolerance policy knobs (sections 3.4 and 6.3).

    ``mode`` selects what is durable: ``"none"`` journals only the raw
    input (the external producer can always resupply it); ``"checkpoint"``
    takes a full consistent checkpoint every ``checkpoint_every`` input
    epochs; ``"logging"`` additionally journals every cross-process
    message batch continually (and still checkpoints periodically, which
    bounds how far recovery must read the log).  All three modes survive
    :meth:`ClusterComputation.kill_process` with identical outputs —
    they differ in how much virtual time the run and the recovery cost.

    Every cut is taken by the marker-based asynchronous protocol of
    :mod:`repro.runtime.async_checkpoint`: vertices snapshot
    incrementally on marker arrival while the dataflow keeps running,
    and failures roll back only the lost process (partial rollback).
    The paper's stop-the-world cycle is the comparison baseline
    :class:`repro.baselines.BarrierCheckpoints`.
    """

    #: "none", "checkpoint" (periodic full checkpoints) or "logging"
    #: (continual logging of sent messages).
    mode: str = "none"
    #: Take a checkpoint every N input epochs ("checkpoint"/"logging").
    checkpoint_every: int = 100
    #: State written per worker at each checkpoint, bytes.
    state_bytes_per_worker: int = 4 << 20
    #: Sequential disk bandwidth for checkpoints and logs, bytes/s.
    disk_bandwidth: float = 200e6
    #: Fixed log-record overhead per message batch ("logging" mode).
    log_bytes_per_batch: int = 64
    #: Placement after a kill: "restart" the failed process in place, or
    #: "reassign" its workers round-robin across the survivors.
    recovery: str = "restart"
    #: Failure detection + process restart/failover time, seconds.
    restart_delay: float = 1.0
    #: Accepts only "async", the one cut protocol.
    checkpoint_mode: str = "async"
    #: Memory bandwidth for the in-place state copy an asynchronous
    #: snapshot charges to the worker (the only pause it ever takes);
    #: the durable disk write happens in the background.
    snapshot_copy_bandwidth: float = 5e9


class _Worker(Worker):
    """A :class:`repro.core.worker.Worker` on the simulated cluster: plus DES
    scheduling, cost, async-checkpoint hooks, mp pool tasks, fencing and
    the network commit."""

    __slots__ = (
        "busy_until",
        "dead",
        "cut",
        "_cut_deferred",
        "_scheduled",
        "_commit_pending",
        "_pending_updates",
        "_charged",
    )

    def __init__(self, cluster: "ClusterComputation", index: int):
        super().__init__(cluster, index)
        self.process = cluster.worker_process(index)
        self.view = cluster.plane.view(self.process)
        self.busy_until = 0.0
        #: Set when the hosting process is killed; scheduled events that
        #: still reference this object become no-ops.
        self.dead = False
        #: Highest async-checkpoint cycle this worker has cut for (its
        #: message color: sends carry the sender's ``cut`` as a tag).
        self.cut = 0
        #: An async cut is owed but was blocked by an uncommitted
        #: callback; taken at commit end.
        self._cut_deferred = False
        self._scheduled = False
        #: A _step finished but its _commit has not run yet; the cluster
        #: is not quiescent while any commit is outstanding.
        self._commit_pending = False
        #: The update list of the uncommitted callback (async partial
        #: rollback applies its retirements if the worker dies here).
        self._pending_updates: Optional[List[Tuple[Pointstamp, int]]] = None
        #: Records charge() billed to the running callback.
        self._charged = 0

    # ------------------------------------------------------------------
    # Harness interface: the cluster's additions.
    # ------------------------------------------------------------------

    def charge(self, records: Any) -> None:
        self._charged += record_count(records)

    def request_notification(
        self, vertex: Vertex, timestamp: Timestamp, capability: bool = True
    ) -> None:
        cluster = self.computation
        stage = vertex.stage
        plane = cluster.plane
        if capability and plane.summarized_scopes and plane.is_summarized(stage):
            raise TimestampViolation(
                "notify_at(%r) with a capability on stage %r, which "
                "lives inside a summarized loop scope: its vertex "
                "class declares notifies=False, so interior "
                "pointstamps are never disseminated and the "
                "notification could not be coordinated. Set "
                "notifies=True on the vertex class" % (timestamp, stage.name)
            )
        Worker.request_notification(self, vertex, timestamp, capability)

    # ------------------------------------------------------------------
    # Scheduling.
    # ------------------------------------------------------------------

    def enqueue_message(
        self,
        connector: Connector,
        records: List[Any],
        timestamp: Timestamp,
        remote_bytes: int = 0,
        src: int = -1,
        sent: float = -1.0,
        tag: int = 0,
        key: Optional[int] = None,
        fence: Optional[Tuple[int, int]] = None,
    ) -> None:
        cluster = self.computation
        if fence is not None:
            # Generation fencing: the sender stamped its (process,
            # incarnation); a mismatch means the sender was fenced while
            # this message was in flight — it is provably stale and is
            # discarded before any journaling or delivery side effect.
            src_process, generation = fence
            if cluster.generations[src_process] != generation:
                cluster.fenced_drops += 1
                ac = cluster.async_ckpt
                if ac is not None:
                    # A partial rollback may have cancelled this copy
                    # by key as well; the fence is what drops it.
                    ac.cancelled.discard(key)
                trace = cluster._trace
                if trace is not None:
                    trace.emit(
                        TraceEvent(
                            "detect",
                            cluster.sim.now,
                            0.0,
                            perf_counter(),
                            self.index,
                            self.process,
                            "drop",
                            timestamp_tuple(timestamp),
                            ("stale-data", src_process, generation),
                        )
                    )
                return
        if self.dead:
            return  # message addressed to a lost worker; replay covers it
        ac = cluster.async_ckpt
        if ac is not None:
            if key in ac.cancelled:
                # Sent by a worker a partial rollback replaced: its
                # replay sends these records again (see partial_rollback).
                ac.cancelled.discard(key)
                return
            # Journal the delivery, settle its in-flight ledger entry,
            # and — during an active cycle — cut this worker first if
            # the message is post-cut, or channel-log it if pre-cut.
            ac.on_delivery(self, connector, records, timestamp, remote_bytes, src, tag, key)
        # The mp backend starts a pure map's work now; the entry carries
        # the task, so whatever drops the entry drops the task with it.
        pool = cluster.pool
        task = None
        if pool is not None:
            task = pool.submit(self.index, connector, records, timestamp)
        self.enqueue((connector, records, timestamp, remote_bytes, tag, task))
        if cluster.plane.summarized_scopes:
            cluster.plane.note_enqueue(connector, timestamp, self.process)
        trace = cluster._trace
        if trace is not None:
            now = cluster.sim.now
            trace.emit(
                TraceEvent(
                    "deliver",
                    now,
                    now - sent if sent >= 0.0 else 0.0,
                    perf_counter(),
                    self.index,
                    self.process,
                    connector.dst.name,
                    timestamp_tuple(timestamp),
                    (src, record_count(records)),
                )
            )
        self.activate()

    def activate(self) -> None:
        if self.dead or self._scheduled:
            return
        if (
            not self.queue
            and self._deliverable(self.pending_notifications, True) is None
            and self._deliverable(self.pending_cleanups, False) is None
        ):
            return
        self._scheduled = True
        cluster = self.computation
        start = max(
            cluster.sim.now,
            self.busy_until,
            cluster.network.process_available_at(self.process),
        )
        cluster.sim.schedule_at(start, self._step)

    def _select(self) -> Optional[Tuple]:
        work = Worker._select(self)
        if work is not None and work[0] == "activation":
            cluster = self.computation
            if cluster.plane.summarized_scopes:
                cluster.plane.note_dequeue(work[1], work[3], self.process, work[5])
        return work

    def _take_results(self, vertex: Vertex, timestamp: Timestamp, tasks: List) -> None:
        # A pure map a pool child already ran: take its result here, in
        # DES order, as if on_recv had just run.
        output, handed = self.computation.pool.results(tasks)
        self._charged += handed
        if output is not None:
            self.send(vertex, 0, output, timestamp)

    def _ran(self, work: Tuple, vertex: Vertex) -> float:
        """Mark the vertex dirty for the next async cut and charge the
        callback: overhead, records handled, bytes deserialized, and
        what a fused vertex handed on inside it."""
        cluster = self.computation
        if cluster.async_ckpt is not None:
            cluster.async_ckpt.dirty.add((vertex.stage.index, self.index))
        cost_model = cluster.cost_model
        if work[0] == "activation":
            cost = (
                cost_model.callback_overhead
                + cluster.stage_record_cost(work[1].dst) * record_count(work[2])
                + cost_model.deserialize_per_byte * work[4]
            )
        else:
            cost = cost_model.notification_cost
        if self._charged:
            cost += cluster.stage_record_cost(vertex.stage) * self._charged
            self._charged = 0
        return cost

    def _hop_cost(self, hop: Stage, batch: Any) -> float:
        cluster = self.computation
        cost = cluster.stage_record_cost(hop) * record_count(batch)
        return cost + cluster.cost_model.callback_overhead

    def _step(self) -> None:
        if self.dead:
            return
        self._scheduled = False
        cluster = self.computation
        now = cluster.sim.now
        if self._cut_deferred and cluster.async_ckpt is not None:
            # Take the owed async cut before selecting more work; the
            # copy stall lands in busy_until and delays this step.
            cluster.async_ckpt.try_deferred_cut(self)
        start = max(now, self.busy_until, cluster.network.process_available_at(self.process))
        if start > now:
            self._scheduled = True
            cluster.sim.schedule_at(start, self._step)
            return
        trace = cluster._trace
        wall = perf_counter() if trace is not None else 0.0
        ran = self.run_one()
        if ran is None:
            return
        work, cost, updates, dispatches = ran
        cost_model = cluster.cost_model

        # Sender-side serialization and (optionally) logging costs.  The
        # batch size is computed once here and carried on the dispatch
        # tuple, so _commit's network sends reuse it instead of paying a
        # second cost-model pass over every remote batch.
        log_bytes = 0
        for i in range(len(dispatches)):
            connector, dest, batch, out_time = dispatches[i]
            if cluster.worker_process(dest) != self.process:
                size = batch_bytes(batch, cost_model.record_bytes)
                cluster.batch_bytes_calls += 1
                cost += cost_model.serialize_per_byte * size
                log_bytes += size + cluster.fault_tolerance.log_bytes_per_batch
            else:
                size = 0
            dispatches[i] = (connector, dest, batch, out_time, size)
        if cluster.fault_tolerance.mode == "logging" and dispatches:
            if log_bytes == 0:
                log_bytes = cluster.fault_tolerance.log_bytes_per_batch
            cost += log_bytes / cluster.fault_tolerance.disk_bandwidth
            cluster.recovery.note_logged(log_bytes)

        finish = start + cost
        self.busy_until = finish
        self._commit_pending = True
        # The async snapshot protocol needs the uncommitted retirements
        # if this worker dies between _step and _commit (its dispatches
        # and notify requests died with it, but the retirements it was
        # about to publish must still be compensated).
        self._pending_updates = updates
        if trace is not None:
            self._trace_span(trace, work, record_count, start, cost, wall)
        cluster.sim.schedule_at(finish, self._commit, updates, dispatches)

    def _commit(
        self,
        updates: List[Tuple[Pointstamp, int]],
        dispatches: List[Tuple[Connector, int, List[Any], Timestamp, int]],
    ) -> None:
        if self.dead:
            return  # the callback's effects died with the process
        self._commit_pending = False
        self._pending_updates = None
        cluster = self.computation
        now = cluster.sim.now
        ac = cluster.async_ckpt
        if ac is not None and ac.replay_dedup:
            # Journal replay after a partial rollback: suppress record
            # batches the surviving destinations already received.
            ac.filter_replayed(self.index, dispatches, updates)
        tag = self.cut if ac is not None else 0
        fence = (self.process, cluster.generations[self.process])
        for connector, dest, batch, out_time, size in dispatches:
            dest_worker = cluster.workers[dest]
            if dest == self.index:
                dest_worker.enqueue_message(
                    connector, batch, out_time, 0, self.index, now, tag
                )
            else:
                key = None
                if ac is not None:
                    key = ac.register_inflight(
                        dest, connector, batch, out_time, size, self.index, tag
                    )
                cluster.network.send(
                    self.process, cluster.worker_process(dest), size, "data",
                    dest_worker.enqueue_message, connector, batch, out_time, size,
                    self.index, now, tag, key, fence,
                )
        cluster.plane.submit(self.process, updates)
        if ac is not None and self._cut_deferred:
            ac.try_deferred_cut(self)
        self.activate()


class ClusterComputation(Computation):
    """A timely dataflow computation on the simulated cluster.

    Use exactly like :class:`repro.core.Computation` — same graph
    construction, same :class:`repro.lib.Stream` operators — then drive
    inputs and call :meth:`run`.  Time is virtual: :attr:`now` reports
    seconds of modeled cluster time.

    Two constructor switches are oracle-only: ``optimize=False`` (the
    unrewritten plan) and ``progress_tracking="flat"`` (every interior
    pointstamp disseminated, the paper's one-big-pile protocol).  They
    exist so tests can compare the defaults against them; programs and
    benchmarks leave them alone.
    """

    def __init__(
        self,
        num_processes: int = 2,
        workers_per_process: int = 2,
        network: Optional[NetworkConfig] = None,
        cost_model: Optional[CostModel] = None,
        progress_mode: str = "local",
        fault_tolerance: Optional[FaultTolerance] = None,
        seed: int = 0,
        backend: str = "inline",
        pool_workers: Optional[int] = None,
        optimize: Optional[Any] = None,
        progress_tracking: str = "scoped",
    ):
        super().__init__(optimize=optimize)
        if progress_tracking not in ("scoped", "flat"):
            raise ValueError(
                "progress_tracking must be 'scoped' or 'flat' (got %r)"
                % (progress_tracking,)
            )
        # "scoped" (the default) disseminates only boundary projections
        # for loop scopes whose vertices all declare notifies=False;
        # "flat" broadcasts every interior pointstamp (the paper's
        # one-big-pile protocol): oracle-only, for conformance tests.
        self.progress_tracking = progress_tracking
        # Execution backend: "inline" runs every vertex callback on the
        # DES thread; "mp" maps pure record chains in a fork pool of
        # ``pool_workers`` children, with bit-identical results (see
        # repro.parallel).
        if backend not in ("inline", "mp"):
            raise ValueError(
                "backend must be 'inline' or 'mp' (got %r)" % (backend,)
            )
        if pool_workers is not None and (
            type(pool_workers) is not int or pool_workers < 1
        ):
            raise ValueError(
                "pool_workers must be a positive int (got %r)" % (pool_workers,)
            )
        if backend == "mp":
            from ..parallel import fork_available

            if not fork_available():
                raise ValueError(
                    "backend='mp' requires the fork start method "
                    "(user functions are closures and do not pickle)"
                )
        self.backend = backend
        self.pool_workers = pool_workers
        #: The mp backend's OrderedMap; created lazily on the first
        #: run()/step()/checkpoint() after build(), so the fork captures
        #: the fully constructed physical graph.
        self.pool = None
        self.num_processes = num_processes
        self.workers_per_process = workers_per_process
        self.total_workers = num_processes * workers_per_process
        self.sim = Simulator(seed=seed)
        self.network = Network(self.sim, num_processes, network or NetworkConfig())
        self.cost_model = cost_model or CostModel()
        self.progress_mode = progress_mode
        self.fault_tolerance = fault_tolerance or FaultTolerance()
        if self.fault_tolerance.mode not in ("none", "checkpoint", "logging"):
            raise ValueError(
                "FaultTolerance.mode must be 'none', 'checkpoint' or "
                "'logging' (got %r)" % (self.fault_tolerance.mode,)
            )
        if self.fault_tolerance.recovery not in RECOVERY_POLICIES:
            raise ValueError(
                "FaultTolerance.recovery must be one of %r" % (RECOVERY_POLICIES,)
            )
        if self.fault_tolerance.checkpoint_mode != "async":
            raise ValueError(
                "FaultTolerance.checkpoint_mode accepts only 'async' (got %r); "
                "the stop-the-world barrier is the comparison baseline "
                "repro.baselines.BarrierCheckpoints"
                % (self.fault_tolerance.checkpoint_mode,)
            )
        #: The marker-based asynchronous snapshot coordinator; created in
        #: build() unless mode == "none", else stays None and every hook
        #: in the hot path is a single attribute test.
        self.async_ckpt = None
        #: The progress plane (:class:`repro.runtime.protocol
        #: .ProgressPlane`), created in build(): its ``views``, ``nodes``,
        #: ``central`` and ``summarized_scopes`` are the cluster's.
        self.plane: Optional[ProgressPlane] = None
        self._stage_costs: Dict[Stage, float] = {}
        #: Worker index -> hosting process.  Initially the contiguous
        #: block layout; failure recovery with the "reassign" policy
        #: remaps a dead process's entries onto the survivors.
        self._worker_process: List[int] = [
            index // workers_per_process for index in range(self.total_workers)
        ]
        self._process_workers: Dict[int, List[_Worker]] = {}
        #: Current cluster membership (elastic rescaling).  The list is
        #: *shared* with every protocol node and the central accumulator
        #: as their broadcast target set, so a membership change takes
        #: effect everywhere at once.  ``total_workers`` never changes —
        #: data partitioning is modulo the worker count, so rescaling
        #: only moves worker *placement* — and a process killed under
        #: the "reassign" policy stays listed (its ghost node keeps
        #: receiving broadcasts, exactly as before rescaling existed);
        #: only a planned ``remove_process`` departure leaves the list.
        self.live_processes: List[int] = list(range(num_processes))
        self._removed_processes: set = set()
        #: Per-process incarnation numbers.  Every remote data message
        #: and progress-protocol copy is stamped with its sender's
        #: current generation; fencing a process (advancing its entry)
        #: makes all traffic its old incarnation still has in flight
        #: provably stale, discarded deterministically at delivery.
        self.generations: List[int] = [0] * num_processes
        #: Stale data/progress messages discarded by generation fencing.
        self.fenced_drops = 0
        #: Silent crashes injected via :meth:`crash_process` — the
        #: coordinator is *not* told; only a supervisor can notice.
        self.crashes: List[Dict[str, Any]] = []
        #: Monotone counter of completed membership changes, and the
        #: completed changes themselves (dicts; see
        #: :meth:`RecoveryManager.move`).
        self.rescale_generation = 0
        self.rescales: List[Dict[str, Any]] = []
        #: Accepted ``add_process`` calls that have not run yet.
        self._adds_pending = 0
        self.recovery: Optional[RecoveryManager] = None
        #: The attached self-healing supervisor, if any
        #: (:meth:`attach_supervisor`).
        self.supervisor = None
        #: DES self-profiling counters (see repro.obs.profile).
        self.batch_bytes_calls = 0
        self.stage_cost_calls = 0

    # ------------------------------------------------------------------
    # Configuration.
    # ------------------------------------------------------------------

    def worker_process(self, worker_index: int) -> int:
        return self._worker_process[worker_index]

    def set_stage_cost(self, stage: Stage, per_record_seconds: float) -> None:
        """Override the per-record CPU cost for one stage."""
        self._stage_costs[stage] = per_record_seconds

    def stage_record_cost(self, stage: Stage) -> float:
        self.stage_cost_calls += 1
        cost = self._stage_costs.get(stage)
        if cost is not None:
            return cost
        return self.cost_model.per_record_cost

    # ------------------------------------------------------------------
    # Observability (repro.obs).
    # ------------------------------------------------------------------

    def attach_trace_sink(self, sink: Optional[TraceSink]) -> None:
        """Emit trace events into ``sink`` from now on (None detaches).

        The same sink object a :class:`repro.core.Computation` accepts;
        it is shared with the simulator kernel (``run`` spans) and the
        network model (``message`` events).
        """
        self._trace = sink
        self.sim.trace = sink
        self.network.trace = sink

    def _trace_cluster_frontier(self, _updates) -> None:
        # Registered on the process-0 view at build time; a single
        # attribute test when tracing is off.
        if self._trace is not None:
            self._trace_frontier(self._trace, self.plane.views[0], self.sim.now, -1)

    @property
    def now(self) -> float:
        """Virtual cluster time, seconds."""
        return self.sim.now

    # ------------------------------------------------------------------
    # Build: physical expansion (section 3.1).
    # ------------------------------------------------------------------

    def build(self) -> None:
        if self._built:
            return
        self._apply_optimizer()
        self.graph.freeze()
        # Vertices first: which stages notify decides which loop scopes
        # the progress plane summarizes, and workers bind to its views.
        self._expand()
        # "scoped" summarizes the loop scopes none of whose vertices
        # notify; "flat" treats every stage as notifying, so every
        # interior pointstamp is disseminated (the paper's one-big-pile
        # protocol), kept for conformance testing.
        flat = self.progress_tracking == "flat"
        self.plane = plane = ProgressPlane(
            self.graph.summaries,
            lambda stage: flat
            or getattr(self.vertices.get((stage, 0)), "notifies", True),
            self.sim,
            self.network,
            self.live_processes,
            self.progress_mode,
            on_frontier_change=self._recheck_process,
            on_stale=self._note_stale_progress,
        )
        self.workers = [_Worker(self, index) for index in range(self.total_workers)]
        self._rebuild_process_index()
        for (_, index), vertex in self.vertices.items():
            self.workers[index].bind(vertex)
        plane.views[0].listeners.append(self._trace_cluster_frontier)
        plane.apply_all(
            [(Pointstamp(Timestamp(0), handle.stage), +1) for handle in self.inputs]
        )
        # Serving layer: resolve arrangement readers and hook frontier
        # advances for parked stale queries (repro.serve).
        for manager in self.session_managers:
            manager._attach(self)
        self.recovery = RecoveryManager(self)
        self._wrap_external_outputs()
        # The rollback target before any checkpoint exists: the freshly
        # built cluster, from which the whole input journal can replay.
        self.recovery.initial = self.recovery.take_snapshot()
        # Mode "none" takes no periodic cuts, so it skips the manager's
        # per-send in-flight ledger and delivery journal: building it on
        # the wcc64 spine workload cost +13-24% wall time and +3.6 MB RSS.
        if self.fault_tolerance.mode != "none":
            from .async_checkpoint import AsyncCheckpointManager

            self.async_ckpt = AsyncCheckpointManager(self)
        self._built = True

    def _wrap_external_outputs(self) -> None:
        """Make subscriber callbacks exactly-once across replays,
        including a subscriber fused behind its producer."""
        from ..lib.operators import SubscribeVertex
        from ..opt.fused import FusedVertex

        for (stage, index), vertex in self.vertices.items():
            if type(vertex) is FusedVertex:
                vertex = vertex.parts[-1]  # a sink only ever ends a chain
            if isinstance(vertex, SubscribeVertex):
                vertex.callback = self._exactly_once(
                    stage.index, index, vertex.callback
                )

    def _exactly_once(
        self, stage_index: int, worker: int, callback: Callable
    ) -> Callable:
        def release(timestamp: Timestamp, records: List[Any]) -> None:
            if self.recovery.note_release(stage_index, worker, timestamp):
                callback(timestamp, records)

        return release

    def _recheck_process(self, process: int) -> None:
        # The plane's on_frontier_change: ``process``'s frontier moved,
        # so its workers' pending requests may have become deliverable.
        for worker in self._process_workers.get(process, ()):
            if worker.pending_notifications or worker.pending_cleanups:
                worker.activate()

    def _note_stale_progress(self, src: int, dst: int) -> None:
        # The plane's on_stale: a progress copy whose fence entry was
        # settled (or rolled back) straggled in and was discarded.
        self.fenced_drops += 1
        self._detect("drop", dst, ("stale-progress", src, self.generations[src]))

    def _rebuild_process_index(self) -> None:
        index: Dict[int, List[_Worker]] = {}
        for worker in self.workers:
            index.setdefault(worker.process, []).append(worker)
        self._process_workers = index

    # ------------------------------------------------------------------
    # Inputs (the external producer feeds all workers' input vertices).
    # ------------------------------------------------------------------

    def _input_epoch(self, stage: Stage, records: List[Any], epoch: int) -> None:
        # Journal first (the durable replay log), then release through
        # the recovery manager.
        self.recovery.journal_epoch(stage, records, epoch)

    def _input_closed(self, stage: Stage, next_epoch: int) -> None:
        self.recovery.journal_close(stage, next_epoch)

    def _release_epoch(self, stage: Stage, records: List[Any], epoch: int) -> None:
        timestamp = Timestamp(epoch)
        trace = self._trace
        if trace is not None:
            trace.emit(
                TraceEvent(
                    "input",
                    self.sim.now,
                    0.0,
                    perf_counter(),
                    -1,
                    0,
                    stage.name,
                    (epoch,),
                    (record_count(records),),
                )
            )
        updates: List[Tuple[Pointstamp, int]] = []
        ac = self.async_ckpt
        for connector in stage.outputs[0]:
            for dest, batch in self._partition_input(connector, records):
                updates.append((Pointstamp(timestamp, connector), +1))
                worker = self.workers[dest]
                tag = 0
                key = None
                if ac is not None:
                    tag = ac.cycle
                    key = ac.register_inflight(
                        dest, connector, batch, timestamp, 0, -1, tag
                    )
                self.sim.schedule(
                    0.0, worker.enqueue_message,
                    connector, batch, timestamp, 0, -1, -1.0, tag, key,
                )
        updates.append((Pointstamp(Timestamp(epoch + 1), stage), +1))
        updates.append((Pointstamp(timestamp, stage), -1))
        self.plane.controller_broadcast(updates)

    def _partition_input(
        self, connector: Connector, records: List[Any]
    ) -> List[Tuple[int, List[Any]]]:
        """Distribute one epoch of input across workers.

        Ingest itself is free (each computer reads its partition from
        local storage, as in the paper's experiments); partitioned
        connectors are honoured so keyed consumers stay correct.
        """
        if not records:
            return []
        total = self.total_workers
        if connector.partitioner is not None:
            return list(route(connector, records, total, -1))
        buckets: Dict[int, List[Any]] = {}
        for offset, record in enumerate(records):
            buckets.setdefault(offset % total, []).append(record)
        return list(buckets.items())

    def _release_close(self, stage: Stage, next_epoch: int) -> None:
        self.plane.controller_broadcast(
            [(Pointstamp(Timestamp(next_epoch), stage), -1)]
        )

    # ------------------------------------------------------------------
    # Execution.
    # ------------------------------------------------------------------

    def _ensure_pool(self) -> None:
        if self.backend != "mp" or self.pool is not None:
            return
        from ..parallel import DEFAULT_POOL_WORKERS, OrderedMap

        self.pool = OrderedMap(self, self.pool_workers or DEFAULT_POOL_WORKERS)

    def close(self) -> None:
        """Shut down the execution backend (the mp pool's children).
        Deliveries still queued run inline if the computation goes on."""
        if self.pool is not None:
            self.pool.close()
            self.pool = None
            for worker in self.workers:
                worker.queue = deque((*entry[:5], None) for entry in worker.queue)

    def step(self) -> bool:
        if self._built:
            self._ensure_pool()
        return self.sim.step()

    def run(
        self,
        max_steps: Optional[int] = None,
        until: Optional[float] = None,
    ) -> float:
        """Run the simulation until idle; returns virtual elapsed time.

        ``max_steps`` bounds delivered simulator events and ``until``
        bounds virtual time — the unified :class:`TimelyRuntime`
        spellings.
        """
        self._check_built()
        self._ensure_pool()
        start = self.sim.now
        self.sim.run(until=until, max_events=max_steps)
        if self.async_ckpt is not None and not self.sim.pending_events:
            self._await_cut("rescale")  # a move still queued has stalled
        return self.sim.now - start

    def drained(self) -> bool:
        return (
            all(
                len(view) == 0
                for view in self.plane.agreeing_views(live_only=True)
            )
            and not any(worker.has_work() for worker in self.workers)
            and self.sim.pending_events == 0
        )

    def frontier(self) -> List[Pointstamp]:
        """The process-0 view's frontier (a conservative global view)."""
        self._check_built()
        return self.plane.views[0].frontier()

    def debug_state(self) -> RuntimeDebugState:
        lines = ["t=%.6f pending_events=%d" % (self.sim.now, self.sim.pending_events)]
        ft = self.fault_tolerance
        lines.append("  fault-tolerance: mode=%s recovery=%s" % (ft.mode, ft.recovery))
        lines.append("  plan: cut_through_hops=%d" % self.cut_through_hops)
        if self.recovery is not None:
            lines.extend(self.recovery.describe())
        if self.async_ckpt is not None:
            lines.extend(self.async_ckpt.describe())
        if self.rescale_generation or self.live_processes != list(
            range(self.num_processes)
        ):
            lines.append(
                "  membership: live=%r generation=%d removed=%r"
                % (
                    tuple(self.live_processes),
                    self.rescale_generation,
                    tuple(sorted(self._removed_processes)),
                )
            )
        if self.plane is not None:
            lines.extend(self.plane.describe())
        for worker in self.workers:
            if worker.has_work():
                lines.append(
                    "  worker %d (process %d): queue=%d pending=%r"
                    % (
                        worker.index,
                        worker.process,
                        len(worker.queue),
                        worker.pending_notifications,
                    )
                )
        recovery = self.recovery
        ft_info: Dict[str, Any] = {
            "mode": ft.mode,
            "recovery": ft.recovery,
            "live_processes": tuple(self.live_processes),
            "rescale_generation": self.rescale_generation,
        }
        if self.async_ckpt is not None:
            ft_info.update(
                async_cycle=self.async_ckpt.cycle,
                async_completed_cycle=self.async_ckpt.completed_cycle,
                async_durable_cycle=self.async_ckpt.durable_cycle,
                async_active=self.async_ckpt.active,
            )
        if recovery is not None:
            ft_info.update(
                checkpoints=recovery.checkpoint_count,
                last_checkpoint_time=recovery.last_checkpoint_time,
                journal_entries=len(recovery.journal),
                journal_released=recovery.released,
                logged_batches=recovery.logged_batches,
                logged_bytes=recovery.logged_bytes,
            )
        return self._debug_state(
            now=self.sim.now,
            pending_events=self.sim.pending_events,
            fault_tolerance=ft_info,
            dead_processes=tuple(sorted(recovery.dead_processes))
            if recovery is not None
            else (),
            failures=tuple(dict(f) for f in recovery.failures)
            if recovery is not None
            else (),
            busy_workers=tuple(
                (w.index, w.process, len(w.queue))
                for w in self.workers
                if w.has_work()
            ),
            text="\n".join(lines),
        )

    # ------------------------------------------------------------------
    # Fault tolerance (section 3.4): checkpoints, failure injection,
    # rollback recovery.  Recovery lives in
    # :class:`repro.runtime.checkpoint.RecoveryManager`, the marker cut
    # in :class:`repro.runtime.async_checkpoint.AsyncCheckpointManager`.
    # ------------------------------------------------------------------

    def checkpoint(self) -> Dict[str, Any]:
        """Take a consistent checkpoint now and return the snapshot.

        Same signature as :meth:`repro.core.Computation.checkpoint`.
        Under ``mode="checkpoint"``/``"logging"`` it waits like a planned
        move (:meth:`AsyncCheckpointManager.after_cut`) for a marker cut
        begun once no replay is draining to turn durable, while the
        computation keeps running; it raises "checkpoint stalled" if the
        events run out first.  Under ``mode="none"`` it drives the
        simulation to quiescence, flushes the progress-protocol
        accumulators so every process view agrees, snapshots vertices,
        pending notifications and occurrence counts, and charges the
        write to virtual time.  Either way the snapshot becomes the
        durable rollback target for subsequent failures.
        """
        self._check_built()
        self._check_not_in_event("checkpoint")
        self._ensure_pool()
        recovery = self.recovery
        if self.async_ckpt is not None:
            return self._await_cut("checkpoint", lambda: recovery.snapshot)
        while True:
            self.sim.run()
            if recovery.settle() and self.sim.pending_events == 0:
                break
        return recovery.complete_checkpoint()

    def restore(self, snapshot: Dict[str, Any]) -> None:
        """Roll the cluster back to ``snapshot`` and replay the input
        journal recorded since it was taken.

        Same signature as :meth:`repro.core.Computation.restore`, with
        recovery semantics: input supplied after the checkpoint is not
        forgotten — it re-executes from the journal, and outputs already
        released to subscribers are suppressed (exactly-once).  Call
        :meth:`run` afterwards to drive the replay to completion.
        """
        self._check_built()
        self._check_not_in_event("restore")
        self.recovery.rollback_to(snapshot)

    def kill_process(self, process: int, at: Optional[float] = None) -> None:
        """Inject a process failure (now, or at virtual time ``at``).

        The process's workers, queues and in-flight messages are lost.
        Recovery skips the rollback, restores only the lost workers, or
        rolls every worker back to the latest durable checkpoint (the
        built state if none was taken) and replays the journaled input:
        the three tiers of :mod:`repro.runtime.checkpoint`.  Placement
        of the dead process's workers follows
        ``FaultTolerance.recovery``.
        """
        self._check_process(process)
        if at is None:
            self._check_not_in_event("kill_process")
            self.recovery.fail_process(process)
        else:
            self.sim.schedule_at(at, self.recovery.fail_process, process)

    # ------------------------------------------------------------------
    # Self-healing: silent crashes, generation fencing and supervised
    # recovery (repro.runtime.supervisor).
    # ------------------------------------------------------------------

    def crash_process(self, process: int, at: Optional[float] = None) -> None:
        """Crash a process *silently* (now, or at virtual time ``at``).

        Unlike :meth:`kill_process`, nothing is told: the hosted workers
        simply stop executing (their scheduled events become no-ops) and
        no recovery runs.  The cluster will hang on the lost work unless
        a :class:`repro.runtime.supervisor.Supervisor` notices the
        missing heartbeats, fences the dead incarnation, and drives
        recovery itself.
        """
        self._check_process(process)
        if process == 0:
            raise ValueError(
                "process 0 hosts the controller and the supervisor and "
                "cannot crash silently"
            )
        if at is None:
            self._check_not_in_event("crash_process")
            self._crash_now(process)
        else:
            self.sim.schedule_at(at, self._crash_now, process)

    def _crash_now(self, process: int) -> None:
        if process in self._removed_processes:
            return
        if self.recovery is not None and process in self.recovery.dead_processes:
            return
        hosted = [w for w in self.workers if w.process == process and not w.dead]
        if not hosted:
            return
        for worker in hosted:
            # Frozen, not replaced: recovery has not run, so the worker
            # object stays in place with its queue intact — exactly what
            # a machine that stops responding looks like from outside.
            worker.dead = True
        self.crashes.append(
            {
                "process": process,
                "at": self.sim.now,
                "generation": self.generations[process],
            }
        )
        self._detect("crash", process, (len(hosted), self.generations[process]))

    def _fence_process(self, process: int) -> int:
        """Advance ``process``'s incarnation and settle its outstanding
        progress copies; returns how many copies were settled.

        After this, every data message and progress copy the old
        incarnation still has in flight is provably stale and will be
        discarded at delivery — a zombie (falsely suspected, paused, or
        partitioned-away process) can keep talking forever without any
        of it being applied.
        """
        settled = self.plane.settle(process)
        self.generations[process] += 1
        self._detect("fence", process, (settled, self.generations[process]))
        return settled

    def _detect(self, phase: str, process: int, detail: tuple) -> None:
        """Trace one ``detect`` event about ``process``: a crash, a fence,
        a stale message dropped, or a supervisor phase."""
        if self._trace is not None:
            self._trace.emit(
                TraceEvent(
                    "detect",
                    self.sim.now,
                    0.0,
                    perf_counter(),
                    -1,
                    process,
                    phase,
                    (),
                    detail,
                )
            )

    def attach_supervisor(self, config=None, autoscaler=None):
        """Attach and start a self-healing supervisor on process 0.

        Returns the started :class:`repro.runtime.supervisor.Supervisor`.
        """
        from .supervisor import Supervisor

        self.supervisor = Supervisor(self, config, autoscaler).start()
        return self.supervisor

    # ------------------------------------------------------------------
    # Elastic rescaling: grow or shrink the live process set while the
    # computation keeps running.  Both operations wait for a *fresh*
    # durable asynchronous cut and then migrate only the moving workers
    # through RecoveryManager.move, the path every failure takes — the
    # survivors' live state is never touched (see DESIGN.md, "Elastic
    # rescaling").
    # ------------------------------------------------------------------

    def _check_rescalable(self, name: str) -> None:
        """Eagerly reject configurations that cannot rescale, with the
        reason, instead of failing deep inside a migration cut."""
        ft = self.fault_tolerance
        if ft.mode == "none":
            raise ValueError(
                "%s() requires FaultTolerance(mode='checkpoint') or "
                "mode='logging': migration ships state over a marker-based "
                "cut, and mode='none' takes none" % (name,)
            )
        if ft.recovery != "reassign":
            raise ValueError(
                "%s() requires FaultTolerance(recovery='reassign'): "
                "moving workers between processes is exactly the "
                "reassign placement; recovery='restart' pins every "
                "worker to its original process (got recovery=%r)"
                % (name, ft.recovery)
            )

    def _live_hosts(self) -> List[int]:
        """Live members that can actually host workers (not dead)."""
        dead = self.recovery.dead_processes if self.recovery is not None else ()
        return [p for p in self.live_processes if p not in dead]

    def _add_share(self) -> int:
        """Workers a new process would receive, counting every accepted
        add that has not run yet as a host already."""
        hosts = len(self._live_hosts()) + self._adds_pending
        return self.total_workers // (hosts + 1)

    def add_process(self, at: Optional[float] = None) -> Optional[int]:
        """Grow the cluster by one process while the computation runs.

        Waits for a fresh durable asynchronous cut, then migrates an
        even share of workers — drawn from the most-loaded hosts — to
        the new process by restoring *only their* cut state there and
        replaying their journal suffix; every other worker keeps its
        live state and keeps running.  Requires
        ``FaultTolerance(mode="checkpoint", recovery="reassign")``.

        With ``at=None`` the call is synchronous (drives the simulation
        until the migration completes) and returns the new process
        index; with ``at`` it is scheduled at that virtual time and
        returns None (the completed change appears in
        :attr:`rescales`).
        """
        self._check_built()
        self._check_rescalable("add_process")
        if self._add_share() < 1:
            raise ValueError(
                "add_process(): %d workers across %d hosts (counting adds "
                "not yet run) leaves no share for a new process; grow "
                "workers_per_process instead"
                % (self.total_workers, len(self._live_hosts()) + self._adds_pending)
            )
        return self._rescale(None, share, "add", at)

    def remove_process(self, process: int, at: Optional[float] = None) -> None:
        """Gracefully drain ``process`` out of the cluster.

        Planned departure, not a kill: the operation waits for a fresh
        durable cut, force-flushes the departing node's withheld
        progress updates, rehomes its workers round-robin across the
        survivors (restoring only *their* state, with replay dedup
        keeping deliveries exactly-once), and drops the process from
        the broadcast membership.  Requires
        ``FaultTolerance(mode="checkpoint", recovery="reassign")``.
        """
        self._check_process(process)
        self._check_rescalable("remove_process")
        if process == 0:
            raise ValueError(
                "process 0 hosts the input controller and the progress "
                "accumulator and cannot be removed"
            )
        if process not in self.live_processes:
            raise ValueError("process %d has already been removed" % process)
        if process in self.recovery.dead_processes:
            raise ValueError(
                "process %d is dead; its workers were already reassigned "
                "to the survivors" % process
            )
        if len(self._live_hosts()) <= 1:
            raise ValueError(
                "remove_process(%d) would leave no live process to host "
                "the workers" % process
            )
        self._rescale(process, spread, "remove", at)

    def _rescale(self, process, place, reason, at) -> Optional[int]:
        """Queue a planned move behind a fresh durable cut at virtual
        time ``at``, or (``at=None``) now, and wait until it has run."""
        if at is None:
            self._check_not_in_event("add_process/remove_process")
        if reason == "add":
            self._adds_pending += 1

        def move() -> Optional[Dict[str, Any]]:
            return self.recovery.move(process, place, reason, self.sim.now)

        if at is not None:
            self.sim.schedule_at(at, self.async_ckpt.after_cut, move)
            return None
        self._ensure_pool()
        record = self._await_cut("rescale", move)
        return record["process"] if reason == "add" else None

    def _await_cut(self, what: str, then: Optional[Callable[[], Any]] = None) -> Any:
        """Queue ``then`` behind a fresh durable cut now, step the
        simulation until it has run and return its result (with
        ``then=None``, until no waiter is left).  If the events run out
        first, drop ``then`` and raise "<what> stalled"."""
        ac = self.async_ckpt
        fired: List[Any] = []

        def waiter() -> None:
            fired.append(then())

        if then is not None:
            self.sim.schedule_at(self.sim.now, ac.after_cut, waiter)
        while not fired and (then is not None or ac.moves):
            if not self.sim.step():
                error = RuntimeError(
                    "%s stalled: no pending events while waiting for a "
                    "durable cut:\n%s" % (what, self.debug_state().text)
                )
                if waiter in ac.moves:
                    ac.moves.remove(waiter)  # its caller gives up on it
                raise error
        return fired[0] if fired else None

    def _check_process(self, process: int) -> None:
        self._check_built()
        if not 0 <= process < self.num_processes:
            raise ValueError(
                "process %d out of range (cluster has %d)"
                % (process, self.num_processes)
            )

    def _check_not_in_event(self, name: str) -> None:
        # Re-entering the control API from inside a simulator event (a
        # vertex callback, a subscription) would re-run the event loop
        # under the caller's feet; schedule the call instead.
        if self.sim.in_event:
            raise RuntimeError(
                "%s() may not be called from inside a vertex callback; "
                "use sim.schedule_at() or call it between run()s" % name
            )

    def _restore_workers(
        self, snapshot: Dict[str, Any], indices: Sequence[int], busy_until: float
    ) -> None:
        """Restart the workers ``indices`` from ``snapshot``: global
        rollback names every worker, partial rollback the moving ones.

        The old worker objects are flagged dead, so their scheduled
        events become no-ops and their queues die with them; each
        replacement starts idle at ``busy_until`` (the recovery-ready
        time) with the cut's pending tables, and its vertices are
        re-bound to it and reloaded from the cut.
        """
        restored = set(indices)
        for index in indices:
            self.workers[index].dead = True
            worker = self.workers[index] = _Worker(self, index)
            worker.busy_until = busy_until
            worker.load_pending(
                snapshot["pending"].get(index, {}), snapshot["cleanups"].get(index, {})
            )
        self._rebuild_process_index()
        for (_, index), vertex in self.vertices.items():
            if index in restored:
                self.workers[index].bind(vertex)
        self._restore_vertex_states(snapshot["vertices"], restored)

    def __repr__(self) -> str:
        return "ClusterComputation(%d procs x %d workers, mode=%s)" % (
            self.num_processes,
            self.workers_per_process,
            self.progress_mode,
        )
