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

import os
from collections import deque
from dataclasses import dataclass
from time import perf_counter
from typing import Any, Callable, Dict, List, Optional, Tuple

from ..columnar import ColumnarBatch, combine_payloads, route
from ..core.computation import Computation, TimestampViolation
from ..core.graph import Connector, Stage, StageKind
from ..core.progress import Pointstamp
from ..core.runtime_api import RuntimeDebugState
from ..core.timestamp import Timestamp
from ..core.vertex import Vertex
from ..obs.trace import TraceEvent, TraceSink, timestamp_tuple
from ..sim.des import Simulator
from ..sim.network import Network, NetworkConfig
from .checkpoint import RECOVERY_POLICIES, RecoveryManager
from .protocol import (
    CentralAccumulator,
    ProgressPlane,
    ProgressView,
    ProtocolNode,
)
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

    ``checkpoint_mode`` selects *how* the cut is taken: ``"barrier"``
    is the paper's stop-the-world pause-drain-snapshot-resume cycle;
    ``"async"`` is the marker-based asynchronous protocol of
    :mod:`repro.runtime.async_checkpoint` — vertices snapshot
    incrementally on marker arrival while the dataflow keeps running,
    and failures roll back only the lost process (partial rollback).
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
    #: "barrier" (stop-the-world section 3.4 cycle) or "async"
    #: (marker-based incremental snapshots + partial rollback).
    checkpoint_mode: str = "barrier"
    #: Memory bandwidth for the in-place state copy an asynchronous
    #: snapshot charges to the worker (the only pause it ever takes);
    #: the durable disk write happens in the background.
    snapshot_copy_bandwidth: float = 5e9


class _Worker:
    """One Naiad worker: a partition of vertices plus an event queue."""

    __slots__ = (
        "cluster",
        "index",
        "process",
        "view",
        "queue",
        "pending_notifications",
        "pending_cleanups",
        "busy_until",
        "dead",
        "cut",
        "_cut_deferred",
        "_scheduled",
        "_commit_pending",
        "_pending_updates",
        "_frame_time",
        "_frame_capability",
        "_updates",
        "_dispatches",
        "_charged",
        "delivered_messages",
        "delivered_notifications",
        "_pending_rev",
        "_notif_memo",
        "_cleanup_memo",
    )

    def __init__(self, cluster: "ClusterComputation", index: int):
        self.cluster = cluster
        self.index = index
        self.process = cluster.worker_process(index)
        self.view = cluster.plane.view(self.process)
        self.queue: deque = deque()
        self.pending_notifications: Dict[Pointstamp, int] = {}
        self.pending_cleanups: Dict[Pointstamp, int] = {}
        self.busy_until = 0.0
        #: Set when the hosting process is killed; scheduled events that
        #: still reference this object become no-ops.
        self.dead = False
        #: Highest async-checkpoint cycle this worker has cut for (its
        #: message color: sends carry the sender's ``cut`` as a tag).
        self.cut = 0
        #: An async cut is owed but was blocked by an uncommitted
        #: callback or an unconsumed pool claim; taken at commit end.
        self._cut_deferred = False
        self._scheduled = False
        #: A _step finished but its _commit has not run yet; the cluster
        #: is not quiescent while any commit is outstanding.
        self._commit_pending = False
        #: The update list of the uncommitted callback (async partial
        #: rollback applies its retirements if the worker dies here).
        self._pending_updates: Optional[List[Tuple[Pointstamp, int]]] = None
        self._frame_time: Optional[Timestamp] = None
        self._frame_capability = True
        self._updates: Optional[List[Tuple[Pointstamp, int]]] = None
        #: (connector, dest, batch, out_time) from send(); _step's
        #: serialization pass appends the precomputed remote batch size.
        self._dispatches: Optional[List[Tuple]] = None
        #: Records charge() billed to the running callback.
        self._charged = 0
        self.delivered_messages = 0
        self.delivered_notifications = 0
        #: Bumped whenever the pending notification/cleanup tables gain
        #: or lose a key; with the progress view's frontier version it
        #: keys the deliverability memos below — ``activate()`` runs the
        #: full unblocked() scan once per (frontier, pending-set) state
        #: instead of once per delivery.
        self._pending_rev = 0
        self._notif_memo: Optional[Tuple] = None
        self._cleanup_memo: Optional[Tuple] = None

    # ------------------------------------------------------------------
    # Harness interface (Vertex.send_by / Vertex.notify_at).
    # ------------------------------------------------------------------

    @property
    def total_workers(self) -> int:
        return self.cluster.total_workers

    def send(
        self, vertex: Vertex, output_port: int, records: List[Any], timestamp: Timestamp
    ) -> None:
        stage = vertex.stage
        if not self._frame_capability:
            raise TimestampViolation(
                "send_by from a capability-free (state purging) notification"
            )
        if stage.kind is StageKind.NORMAL and self._frame_time is not None:
            current = self._frame_time
            if current.depth == timestamp.depth and not current.less_equal(timestamp):
                raise TimestampViolation(
                    "send_by at %r from a callback at %r" % (timestamp, current)
                )
        out_time = stage.timestamp_action().apply(timestamp)
        total = self.cluster.total_workers
        for connector in stage.outputs[output_port]:
            pointstamp = Pointstamp(out_time, connector)
            for dest, batch in route(connector, records, total, self.index):
                # -1 size sentinel: "not yet computed"; _step's
                # serialization pass fills it in.  Pool children record
                # dispatches with the size precomputed instead.
                self._dispatch(pointstamp, dest, batch, -1)

    def _dispatch(self, pointstamp: Pointstamp, dest: int, batch: Any, size: int) -> None:
        """Record one share of a send: the dispatch and its +1.

        Sender-side batch coalescing: a callback that sends several
        times to the same (connector, dest, time) — e.g. per-record
        emission loops feeding a coalescible destination — would be
        charged per-message network bytes and a +1/-1 occurrence round
        trip for each, even though the receiver merges them on arrival.
        Merge into the previous dispatch instead, so per-message costs
        are paid once per coalesced batch.  Adjacency-only, so ordering
        relative to other connectors is untouched; shared by send() and
        _apply_effects, so the inline and mp backends stay identical."""
        out_time, connector = pointstamp
        dispatches = self._dispatches
        if connector.coalesce and dispatches:
            prev = dispatches[-1]
            if prev[0] is connector and prev[1] == dest and prev[3] == out_time:
                payload = combine_payloads([prev[2], batch])
                size = prev[4] + size if prev[4] >= 0 and size >= 0 else -1
                dispatches[-1] = (connector, dest, payload, out_time, size)
                # The receiver will consume one queue entry, not two.
                self.cluster.sender_merged_dispatches += 1
                return
        if not connector.cut_through:  # else no queue entry: see _step
            self._updates.append((pointstamp, +1))
        dispatches.append((connector, dest, batch, out_time, size))

    def charge(self, records: Any) -> None:
        """A fused vertex handed ``records`` to a later constituent
        inside the running callback: bill them like a delivery."""
        self._charged += record_count(records)

    def request_notification(
        self, vertex: Vertex, timestamp: Timestamp, capability: bool = True
    ) -> None:
        if not self._frame_capability:
            raise TimestampViolation(
                "notify_at from a capability-free (state purging) notification"
            )
        if self._frame_time is not None:
            current = self._frame_time
            if current.depth == timestamp.depth and not current.less_equal(timestamp):
                raise TimestampViolation(
                    "notify_at at %r from a callback at %r" % (timestamp, current)
                )
        stage = vertex.stage
        pointstamp = Pointstamp(timestamp, stage)
        if capability:
            cluster = self.cluster
            if cluster.summarized_scopes and cluster.plane.is_summarized(stage):
                raise TimestampViolation(
                    "notify_at(%r) with a capability on stage %r, which "
                    "lives inside a summarized loop scope: its vertex "
                    "class declares notifies=False, so interior "
                    "pointstamps are never disseminated and the "
                    "notification could not be coordinated. Set "
                    "notifies=True on the vertex class, or build the "
                    "cluster with progress_tracking='flat'"
                    % (timestamp, stage.name)
                )
            self._updates.append((pointstamp, +1))
            table = self.pending_notifications
        else:
            # Section 2.4: guarantee-only request — no pointstamp, no
            # protocol traffic, cannot delay anything anywhere.
            table = self.pending_cleanups
        table[pointstamp] = table.get(pointstamp, 0) + 1
        self._pending_rev += 1

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
        if fence is not None:
            # Generation fencing: the sender stamped its (process,
            # incarnation); a mismatch means the sender was fenced while
            # this message was in flight — it is provably stale and is
            # discarded before any journaling or delivery side effect.
            src_process, generation = fence
            cluster = self.cluster
            if cluster.generations[src_process] != generation:
                cluster.fenced_drops += 1
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
        ac = self.cluster.async_ckpt
        if ac is not None:
            # Journal the delivery, settle its in-flight ledger entry,
            # and — during an active cycle — cut this worker first if
            # the message is post-cut, or channel-log it if pre-cut.
            ac.on_delivery(self, connector, records, timestamp, remote_bytes, src, tag, key)
        self.queue.append((connector, records, timestamp, remote_bytes, tag))
        if self.cluster.summarized_scopes:
            self.cluster.plane.note_enqueue(connector, timestamp, self.process)
        trace = self.cluster._trace
        if trace is not None:
            now = self.cluster.sim.now
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
            and self._deliverable_notification() is None
            and self._deliverable_cleanup() is None
        ):
            return
        self._scheduled = True
        start = max(
            self.cluster.sim.now,
            self.busy_until,
            self.cluster.network.process_available_at(self.process),
        )
        self.cluster.sim.schedule_at(start, self._step)

    def _delivery_candidates(self, pending: Dict[Pointstamp, int]) -> List[Pointstamp]:
        """The pending pointstamps whose delivery test decides the table.

        Delivery tests are needed only for per-location *minima* of
        flat (counter-free) pointstamps: two flat requests at the same
        location share the counter part of every could-result-in
        verdict, so a frontier element blocking the earlier epoch
        blocks every later one too (it cannot *be* the later one — its
        epoch is <= the earlier's).  Loop timestamps don't share
        verdicts this way and are tested individually.
        """
        candidates: Dict[Any, Pointstamp] = {}
        loop_stamps: List[Pointstamp] = []
        for pointstamp in pending:
            if pointstamp.timestamp.counters:
                loop_stamps.append(pointstamp)
                continue
            current = candidates.get(pointstamp.location)
            if current is None or pointstamp.timestamp < current.timestamp:
                candidates[pointstamp.location] = pointstamp
        return [*candidates.values(), *loop_stamps]

    def _deliverable_notification(self) -> Optional[Pointstamp]:
        if not self.pending_notifications:
            return None
        view = self.view
        key = (id(view.state), view.state.version, self._pending_rev)
        memo = self._notif_memo
        if memo is not None and memo[0] == key:
            return memo[1]
        best = None
        for pointstamp in self._delivery_candidates(self.pending_notifications):
            if view.unblocked(pointstamp):
                if best is None or (pointstamp.timestamp, pointstamp.location.index) < (
                    best.timestamp,
                    best.location.index,
                ):
                    best = pointstamp
        self._notif_memo = (key, best)
        return best

    def _deliverable_cleanup(self) -> Optional[Pointstamp]:
        if not self.pending_cleanups:
            return None
        view = self.view
        key = (id(view.state), view.state.version, self._pending_rev)
        memo = self._cleanup_memo
        if memo is not None and memo[0] == key:
            return memo[1]
        # Any unblocked one will do: if a flat group's earliest member
        # is blocked the whole group is.
        found = None
        for pointstamp in self._delivery_candidates(self.pending_cleanups):
            if view.unblocked(pointstamp):
                found = pointstamp
                break
        self._cleanup_memo = (key, found)
        return found

    def _select(self) -> Optional[Tuple]:
        """Dequeue this worker's next unit of work, or None if idle.

        Returns ``("recv", connector, records, timestamp, remote_bytes,
        batches)`` (``batches`` = queue entries consumed, > 1 when batch
        coalescing merged adjacent deliveries), ``("notify",
        pointstamp)`` or ``("cleanup", pointstamp)``, with the queue /
        pending tables already decremented.  Called either
        by :meth:`_step` (inline backend) or at prefetch time by the
        :class:`repro.parallel.VertexPool` dispatcher — selection state
        cannot change between prefetch and execution within one
        same-instant batch, so both call sites pick identical work.
        """
        if self.queue:
            batches = 1
            if self.cluster.scheduling == "earliest" and len(self.queue) > 1:
                # Section 3.2's alternative policy: deliver the message
                # with the earliest pointstamp to cut end-to-end latency.
                index = min(
                    range(len(self.queue)),
                    key=lambda i: self.queue[i][2],
                )
                self.queue.rotate(-index)
                connector, records, timestamp, remote_bytes, _tag = self.queue.popleft()
                self.queue.rotate(index)
            else:
                connector, records, timestamp, remote_bytes, _tag = self.queue.popleft()
                if connector.coalesce and self.queue:
                    # Batch coalescing (repro.opt hints): merge *adjacent*
                    # queue entries for the same (connector, timestamp)
                    # into one delivery, paying the callback overhead
                    # once.  Adjacency preserves the exact interleaving
                    # of deliveries from other connectors/times, and the
                    # pass only hints destinations whose record-sequence
                    # semantics are batching-insensitive.  FIFO only:
                    # "earliest" reorders the queue between selections.
                    queue = self.queue
                    parts = None
                    while queue:
                        head = queue[0]
                        if head[0] is not connector or head[2] != timestamp:
                            break
                        if parts is None:
                            parts = [records]
                        parts.append(head[1])
                        remote_bytes += head[3]
                        queue.popleft()
                        batches += 1
                        self.cluster.coalesced_batches += 1
                    if parts is not None:
                        # Same-schema columnar parts concatenate without
                        # materializing records; mixed parts flatten to
                        # one record list (the pre-columnar behaviour).
                        records = combine_payloads(parts)
            if self.cluster.summarized_scopes:
                self.cluster.plane.note_dequeue(
                    connector, timestamp, self.process, batches
                )
            return ("recv", connector, records, timestamp, remote_bytes, batches)
        pointstamp = self._deliverable_notification()
        if pointstamp is not None:
            remaining = self.pending_notifications[pointstamp] - 1
            if remaining:
                self.pending_notifications[pointstamp] = remaining
            else:
                del self.pending_notifications[pointstamp]
            self._pending_rev += 1
            return ("notify", pointstamp)
        pointstamp = self._deliverable_cleanup()
        if pointstamp is None:
            return None
        remaining = self.pending_cleanups[pointstamp] - 1
        if remaining:
            self.pending_cleanups[pointstamp] = remaining
        else:
            del self.pending_cleanups[pointstamp]
        self._pending_rev += 1
        return ("cleanup", pointstamp)

    def _apply_effects(self, vertex: Vertex, effects: List[Tuple]) -> None:
        """Replay the effects a pool child recorded while executing a
        callback, in callback order, through the same bookkeeping the
        inline path uses — updates and dispatches come out identical."""
        stage = vertex.stage
        for effect in effects:
            if effect[0] == "send":
                _, output_port, out_time, plan = effect
                outputs = stage.outputs[output_port]
                for conn_pos, shares in plan:
                    connector = outputs[conn_pos]
                    pointstamp = Pointstamp(out_time, connector)
                    for dest, batch, nbytes in shares:
                        self._dispatch(pointstamp, dest, batch, nbytes)
            elif effect[0] == "charge":
                self._charged += effect[1]
            else:
                # No frame is open while effects replay (the child
                # already checked them), so this is bookkeeping only.
                self.request_notification(vertex, effect[1], effect[2])

    def _cut_through(self, connector: Connector, batch: Any, timestamp: Timestamp) -> float:
        """Run ``connector``'s plumbing hop now, as its ForwardingVertex
        would on delivery: apply the timestamp action and route onto its
        outputs (recursively, where marked too), so that only what
        reaches a real queue is dispatched.  Returns the virtual CPU the
        hop's own callback would have been charged."""
        cluster = self.cluster
        hop = connector.dst
        cluster.cut_through_hops += 1
        cost = cluster.stage_record_cost(hop) * record_count(batch)
        cost += cluster.cost_model.callback_overhead
        if cluster.vertices[(hop, self.index)].drops(timestamp):
            return cost
        out_time = hop.timestamp_action().apply(timestamp)
        total = cluster.total_workers
        for downstream in hop.outputs[0]:
            pointstamp = Pointstamp(out_time, downstream)
            for dest, share in route(downstream, batch, total, self.index):
                if downstream.cut_through:
                    cost += self._cut_through(downstream, share, out_time)
                else:
                    self._dispatch(pointstamp, dest, share, -1)
        return cost

    def _step(self) -> None:
        if self.dead:
            return
        self._scheduled = False
        cluster = self.cluster
        now = cluster.sim.now
        if self._cut_deferred and cluster.async_ckpt is not None:
            # Take the owed async cut before selecting more work; the
            # copy stall lands in busy_until and delays this step.
            cluster.async_ckpt.try_deferred_cut(self)
        start = max(now, self.busy_until, cluster.network.process_available_at(self.process))
        if start > now:
            # Re-arm for later; an unconsumed pool claim (if any) stays
            # valid and is executed when the deferred step runs.
            self._scheduled = True
            cluster.sim.schedule_at(start, self._step)
            return
        pool = cluster.pool
        claim = pool.take_claim(self) if pool is not None else None
        work = claim.work if claim is not None else self._select()
        if work is None:
            return
        offloaded = claim is not None and claim.offloaded
        cost_model = cluster.cost_model
        self._updates = []
        self._dispatches = []
        cost = 0.0
        trace = cluster._trace
        wall = perf_counter() if trace is not None else 0.0
        span = None
        async_ckpt = cluster.async_ckpt
        if work[0] == "recv":
            _, connector, records, timestamp, remote_bytes, batches = work
            vertex = cluster.vertices[(connector.dst, self.index)]
            if async_ckpt is not None:
                async_ckpt.dirty.add((connector.dst.index, self.index))
            if offloaded:
                self._apply_effects(vertex, claim.effects)
            else:
                self._frame_time = timestamp
                try:
                    if type(records) is ColumnarBatch:
                        vertex.on_recv_batch(connector.dst_port, records, timestamp)
                    else:
                        vertex.on_recv(connector.dst_port, records, timestamp)
                finally:
                    self._frame_time = None
            # Every coalesced queue entry carried its own +1 occurrence
            # at dispatch time; retire each one.
            pointstamp = Pointstamp(timestamp, connector)
            for _ in range(batches):
                self._updates.append((pointstamp, -1))
            self.delivered_messages += 1
            cost += (
                cost_model.callback_overhead
                + cluster.stage_record_cost(connector.dst) * record_count(records)
                + cost_model.deserialize_per_byte * remote_bytes
            )
            if trace is not None:
                span = (
                    "activation",
                    connector.dst.name,
                    timestamp,
                    (record_count(records), connector.dst_port),
                )
        else:
            kind, pointstamp = work
            vertex = cluster.vertices[(pointstamp.location, self.index)]
            if async_ckpt is not None:
                async_ckpt.dirty.add((pointstamp.location.index, self.index))
            if offloaded:
                self._apply_effects(vertex, claim.effects)
            else:
                self._frame_time = pointstamp.timestamp
                if kind == "cleanup":
                    self._frame_capability = False
                try:
                    vertex.on_notify(pointstamp.timestamp)
                finally:
                    self._frame_time = None
                    self._frame_capability = True
            if kind == "notify":
                self._updates.append((pointstamp, -1))
            self.delivered_notifications += 1
            cost += cost_model.notification_cost
            if trace is not None:
                span = (
                    "notification" if kind == "notify" else "cleanup",
                    pointstamp.location.name,
                    pointstamp.timestamp,
                    (),
                )

        if self._charged:
            cost += cluster.stage_record_cost(vertex.stage) * self._charged
            self._charged = 0

        # Plumbing cut-through (repro.opt; section 3.2): a dispatch on a
        # marked connector crosses its ingress/egress/feedback hop here,
        # inside the producing callback, which pays the hop's cost.
        # After the callback, so a merged run crosses once, as it would
        # have been delivered; after _apply_effects, so the inline and
        # mp backends stay identical.
        sent, self._dispatches = self._dispatches, []
        for entry in sent:
            if entry[0].cut_through:
                cost += self._cut_through(entry[0], entry[2], entry[3])
            else:
                self._dispatches.append(entry)
        dispatches = self._dispatches

        # Sender-side serialization and (optionally) logging costs.  The
        # batch size is computed once here and carried on the dispatch
        # tuple, so _commit's network sends reuse it instead of paying a
        # second cost-model pass over every remote batch.  Dispatches
        # recorded by a pool child already carry their size (>= 0); the
        # coordinator then skips the O(records) sizing pass entirely.
        log_bytes = 0
        for i in range(len(dispatches)):
            connector, dest, batch, out_time, presize = dispatches[i]
            if cluster.worker_process(dest) != self.process:
                if presize >= 0:
                    size = presize
                else:
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
        updates = self._updates
        self._updates = None
        self._dispatches = None
        self._commit_pending = True
        # The async snapshot protocol needs the uncommitted retirements
        # if this worker dies between _step and _commit (its dispatches
        # and notify requests died with it, but the retirements it was
        # about to publish must still be compensated).
        self._pending_updates = updates
        if trace is not None and span is not None:
            trace.emit(
                TraceEvent(
                    span[0],
                    start,
                    cost,
                    wall,
                    self.index,
                    self.process,
                    span[1],
                    timestamp_tuple(span[2]),
                    span[3],
                )
            )
            if offloaded:
                # Per-pool-worker timeline: which pool rank executed the
                # callback body and how much real CPU it burned there.
                trace.emit(
                    TraceEvent(
                        "pool",
                        start,
                        cost,
                        wall,
                        self.index,
                        claim.pool_rank,
                        span[1],
                        timestamp_tuple(span[2]),
                        (work[0], claim.child_wall),
                    )
                )
        cluster.sim.schedule_at(finish, lambda: self._commit(updates, dispatches))

    def _commit(
        self,
        updates: List[Tuple[Pointstamp, int]],
        dispatches: List[Tuple[Connector, int, List[Any], Timestamp, int]],
    ) -> None:
        if self.dead:
            return  # the callback's effects died with the process
        self._commit_pending = False
        self._pending_updates = None
        cluster = self.cluster
        now = cluster.sim.now
        ac = cluster.async_ckpt
        if ac is not None and ac.replay_dedup:
            # Journal replay after a partial rollback: suppress record
            # batches the surviving destinations already received.
            ac.filter_replayed(self.index, dispatches, updates)
        tag = self.cut if ac is not None else 0
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
                        self.index, dest, connector, batch, out_time, size, tag
                    )
                cluster.network.send(
                    self.process,
                    cluster.worker_process(dest),
                    size,
                    "data",
                    lambda w=dest_worker, c=connector, b=batch, t=out_time, s=size, i=self.index, n=now, g=tag, k=key, f=(
                        self.process,
                        cluster.generations[self.process],
                    ): (w.enqueue_message(c, b, t, s, i, n, g, k, f)),
                )
        cluster.plane.submit(self.process, updates)
        if ac is not None and self._cut_deferred:
            ac.commit_hook(self)
        self.activate()

    def has_work(self) -> bool:
        return (
            bool(self.queue)
            or bool(self.pending_notifications)
            or bool(self.pending_cleanups)
        )


class ClusterComputation(Computation):
    """A timely dataflow computation on the simulated cluster.

    Use exactly like :class:`repro.core.Computation` — same graph
    construction, same :class:`repro.lib.Stream` operators — then drive
    inputs and call :meth:`run`.  Time is virtual: :attr:`now` reports
    seconds of modeled cluster time.
    """

    def __init__(
        self,
        num_processes: int = 2,
        workers_per_process: int = 2,
        network: Optional[NetworkConfig] = None,
        cost_model: Optional[CostModel] = None,
        progress_mode: str = "local",
        fault_tolerance: Optional[FaultTolerance] = None,
        scheduling: str = "fifo",
        seed: int = 0,
        backend: Optional[str] = None,
        pool_workers: Optional[int] = None,
        optimize: Optional[Any] = None,
        progress_tracking: str = "scoped",
        progress_batch_interval: float = 250e-6,
        columnar: Optional[bool] = None,
    ):
        super().__init__(optimize=optimize)
        if scheduling not in ("fifo", "earliest"):
            raise ValueError("scheduling must be 'fifo' or 'earliest'")
        self.scheduling = scheduling
        if progress_tracking not in ("scoped", "flat"):
            raise ValueError(
                "progress_tracking must be 'scoped' or 'flat' (got %r)"
                % (progress_tracking,)
            )
        # "scoped" (the default) disseminates only boundary projections
        # for loop scopes whose vertices all declare notifies=False;
        # "flat" broadcasts every interior pointstamp (the paper's
        # one-big-pile protocol), kept for conformance testing.
        self.progress_tracking = progress_tracking
        # Accumulation interval for unholdable boundary deltas under
        # scoped tracking: rather than one dissemination per callback,
        # an endpoint flushes at most once per interval (Naiad batches
        # progress updates the same way; §6 measures the resulting
        # coordination rounds at a few hundred microseconds).  Zero
        # disables batching.  Only summarized scopes are affected —
        # flat tracking and scope-free graphs never defer.
        self.progress_batch_interval = progress_batch_interval
        # Execution backend: "inline" runs vertex callbacks on the DES
        # thread; "mp" runs them in a persistent fork pool with
        # bit-identical virtual-time results (see repro.parallel).
        # Defaults come from REPRO_BACKEND / REPRO_POOL_WORKERS so CI
        # and benchmarks can switch without touching call sites.
        if backend is None:
            backend = os.environ.get("REPRO_BACKEND", "inline")
        if backend not in ("inline", "mp"):
            raise ValueError(
                "backend must be 'inline' or 'mp' (got %r)" % (backend,)
            )
        self.backend = backend
        if pool_workers is None:
            env_workers = os.environ.get("REPRO_POOL_WORKERS")
            pool_workers = int(env_workers) if env_workers else None
        self.pool_workers = pool_workers
        # The columnar data plane (repro.columnar): schema-marked
        # connectors move array-backed batches instead of record lists.
        # Strictly an encoding — outputs and virtual time are
        # bit-identical with the plane off.  Defaults to REPRO_COLUMNAR.
        if columnar is None:
            from ..opt.passes import parse_optimize_env

            columnar = parse_optimize_env(os.environ.get("REPRO_COLUMNAR"))
        self.columnar = bool(columnar)
        #: Connectors mark_columnar annotated at build time.
        self.columnar_connectors = 0
        #: The mp backend's VertexPool; created lazily on the first
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
        if self.fault_tolerance.checkpoint_mode not in ("barrier", "async"):
            raise ValueError(
                "FaultTolerance.checkpoint_mode must be 'barrier' or 'async' "
                "(got %r)" % (self.fault_tolerance.checkpoint_mode,)
            )
        #: The marker-based asynchronous snapshot coordinator; created in
        #: build() when checkpoint_mode == "async", else stays None and
        #: every hook in the hot path is a single attribute test.
        self.async_ckpt = None
        #: The progress plane (:class:`repro.runtime.protocol
        #: .ProgressPlane`), created in build().  ``views``, ``nodes``,
        #: ``central`` and ``summarized_scopes`` are plain aliases of
        #: its own attributes, kept for introspection.
        self.plane: Optional[ProgressPlane] = None
        self.views: List[ProgressView] = []
        self.nodes: List[ProtocolNode] = []
        self.central: Optional[CentralAccumulator] = None
        self.summarized_scopes: Tuple = ()
        self.workers: List[_Worker] = []
        self.vertices: Dict[Tuple[Stage, int], Vertex] = {}
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
        #: completed changes themselves (dicts; see :meth:`_note_rescale`).
        self.rescale_generation = 0
        self.rescales: List[Dict[str, Any]] = []
        self._rescale_queue: List[Tuple[str, Optional[int]]] = []
        self._rescale_active: Optional[Dict[str, Any]] = None
        self._rescale_pump_token = 0
        self.recovery: Optional[RecoveryManager] = None
        #: The attached self-healing supervisor, if any
        #: (:meth:`attach_supervisor`).
        self.supervisor = None
        #: DES self-profiling counters (see repro.obs.profile).
        self.batch_bytes_calls = 0
        self.stage_cost_calls = 0
        #: Queue entries merged away by batch coalescing (the
        #: optimizer's ``Connector.coalesce`` hints; see _Worker._select).
        self.coalesced_batches = 0
        #: Same-callback dispatches to one (connector, dest, time) merged
        #: into a single wire message before serialization (_Worker._step),
        #: so per-message costs are charged once per coalesced batch.
        self.sender_merged_dispatches = 0

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
        trace = self._trace
        if trace is None:
            return
        state = self.views[0].state
        if state.version == self._trace_version:
            return
        self._trace_version = state.version
        frontier = state.frontier()
        epochs = [p.timestamp.epoch for p in frontier]
        trace.emit(
            TraceEvent(
                "frontier",
                self.sim.now,
                0.0,
                perf_counter(),
                -1,
                0,
                "",
                (),
                (len(state), len(frontier), min(epochs) if epochs else -1),
            )
        )

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
        if self.columnar:
            # After the pass pipeline (fusion settles the final stages
            # and schemas), before freeze.  Not a compiler pass: marking
            # is runtime configuration and never appears in explain().
            from ..opt.passes import mark_columnar

            self.columnar_connectors = mark_columnar(self.graph)
        self.graph.freeze()
        # Vertices first: which stages notify decides which loop scopes
        # the progress plane summarizes, and workers bind to its views.
        for stage in self.graph.stages:
            if stage.kind is StageKind.INPUT:
                continue
            for index in range(self.total_workers):
                vertex = stage.factory(stage, index)
                vertex.stage = stage
                vertex.worker = index
                self.vertices[(stage, index)] = vertex
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
            self.progress_batch_interval,
            on_frontier_change=self._recheck_process,
            on_stale=self._note_stale_progress,
        )
        self.views = plane.views
        self.nodes = plane.nodes
        self.central = plane.central
        self.summarized_scopes = plane.summarized_scopes
        self.workers = [_Worker(self, index) for index in range(self.total_workers)]
        self._rebuild_process_index()
        for (stage, index), vertex in self.vertices.items():
            vertex._harness = self.workers[index]
        self.views[0].listeners.append(self._trace_cluster_frontier)
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
        if self.fault_tolerance.checkpoint_mode == "async":
            from .async_checkpoint import AsyncCheckpointManager

            self.async_ckpt = AsyncCheckpointManager(self)
        self._built = True

    def _wrap_external_outputs(self) -> None:
        """Make subscriber callbacks exactly-once across replays."""
        from ..lib.operators import SubscribeVertex

        for (stage, index), vertex in self.vertices.items():
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
        if self._trace is not None:
            self._trace.emit(
                TraceEvent(
                    "detect",
                    self.sim.now,
                    0.0,
                    perf_counter(),
                    -1,
                    dst,
                    "drop",
                    (),
                    ("stale-progress", src, self.generations[src]),
                )
            )

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
        # the recovery manager — which defers the release while a
        # checkpoint barrier is draining the cluster.
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
                        -1, dest, connector, batch, timestamp, 0, tag
                    )
                self.sim.schedule(
                    0.0, lambda w=worker, c=connector, b=batch, t=timestamp, g=tag, k=key: (
                        w.enqueue_message(c, b, t, 0, -1, -1.0, g, k)
                    )
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
        buckets: Dict[int, List[Any]] = {}
        if connector.partitioner is not None:
            partitioner = connector.partitioner
            for record in records:
                buckets.setdefault(partitioner(record) % total, []).append(record)
        else:
            for offset, record in enumerate(records):
                buckets.setdefault(offset % total, []).append(record)
        shares = list(buckets.items())
        schema = connector.columnar
        if schema is not None:
            # Encode each conforming share at the ingest boundary so the
            # whole downstream path moves batches.
            encoded = []
            for dest, share in shares:
                batch = ColumnarBatch.from_records(share, schema)
                encoded.append((dest, share if batch is None else batch))
            return encoded
        return shares

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
        from ..parallel import DEFAULT_POOL_WORKERS, VertexPool

        self.pool = VertexPool(self, self.pool_workers or DEFAULT_POOL_WORKERS)
        self.sim.dispatcher = self.pool

    def close(self) -> None:
        """Shut down the execution backend (the mp pool's children)."""
        if self.pool is not None:
            self.pool.close()
            self.pool = None
            self.sim.dispatcher = None

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
        return self.sim.now - start

    def drained(self) -> bool:
        return (
            all(
                len(view.state) == 0
                for view in self.plane.agreeing_views(live_only=True)
            )
            and not any(worker.has_work() for worker in self.workers)
            and self.sim.pending_events == 0
        )

    def frontier(self) -> List[Pointstamp]:
        """The process-0 view's frontier (a conservative global view)."""
        self._check_built()
        return self.views[0].state.frontier()

    def debug_state(self) -> RuntimeDebugState:
        lines = ["t=%.6f pending_events=%d" % (self.sim.now, self.sim.pending_events)]
        ft = self.fault_tolerance
        lines.append(
            "  fault-tolerance: mode=%s recovery=%s%s"
            % (
                ft.mode,
                ft.recovery,
                " (checkpoint barrier draining)"
                if self.recovery is not None and self.recovery.paused
                else "",
            )
        )
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
            "checkpoint_mode": ft.checkpoint_mode,
            "draining": bool(recovery is not None and recovery.paused),
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
        frontier: Tuple[Tuple[int, ...], ...] = ()
        if self._built:
            frontier = tuple(
                sorted(
                    timestamp_tuple(p.timestamp)
                    for p in self.views[0].state.frontier()
                )
            )
        return RuntimeDebugState(
            runtime=type(self).__name__,
            now=self.sim.now,
            pending_events=self.sim.pending_events,
            delivered_messages=sum(w.delivered_messages for w in self.workers),
            delivered_notifications=sum(
                w.delivered_notifications for w in self.workers
            ),
            cut_through_hops=self.cut_through_hops,
            queued_messages=sum(len(w.queue) for w in self.workers),
            pending_notifications=sum(
                sum(w.pending_notifications.values()) for w in self.workers
            ),
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
            frontier=frontier,
            text="\n".join(lines),
        )

    # ------------------------------------------------------------------
    # Fault tolerance (section 3.4): checkpoint barrier, failure
    # injection, rollback recovery.  The cycle itself lives in
    # :class:`repro.runtime.checkpoint.RecoveryManager`.
    # ------------------------------------------------------------------

    def checkpoint(self) -> Dict[str, Any]:
        """Take a consistent checkpoint now and return the snapshot.

        Same signature as :meth:`repro.core.Computation.checkpoint`.
        Drives the simulation to quiescence (delivering any outstanding
        work), flushes the progress-protocol accumulators so every
        process view agrees, then snapshots vertices, pending
        notifications and occurrence counts.  The snapshot becomes the
        durable rollback target for subsequent failures, and the write
        pause is charged to virtual time.
        """
        self._check_built()
        self._check_not_in_event("checkpoint")
        self._ensure_pool()
        recovery = self.recovery
        ac = self.async_ckpt
        if ac is not None:
            # Marker-based asynchronous cut: start a cycle (unless one is
            # already in flight) and step the DES — computation keeps
            # running — until that cut is assembled and durable.
            if not ac.active:
                ac.begin_cycle()
            target = ac.cycle
            while ac.durable_cycle < target:
                if not ac.active and ac.completed_cycle < target:
                    # The in-progress cycle was abandoned (a failure
                    # arrived mid-cut); start a fresh one.
                    ac.begin_cycle()
                    target = ac.cycle
                    continue
                if not self.sim.step():
                    raise RuntimeError(
                        "async checkpoint cycle stalled before completing:\n"
                        + self.debug_state().text
                    )
            return recovery.snapshot
        while True:
            self.sim.run()
            self.plane.flush_all()
            for worker in self.workers:
                worker.activate()
            if self.sim.pending_events == 0 and recovery.quiescent():
                break
        return recovery.complete_checkpoint()

    def checkpoint_vertex_states(self) -> Dict[Tuple[int, int], Any]:
        """Snapshot every vertex's state, keyed ``(stage.index, worker)``.

        Under the mp backend the authoritative state of pool-executed
        vertices lives in the pool children; those are pulled over the
        pipes first and the coordinator-pinned remainder (system stages,
        ``coordinator_only`` vertices) fills in locally.  The caller
        guarantees quiescence.
        """
        states: Dict[Tuple[int, int], Any] = (
            self.pool.checkpoint_states() if self.pool is not None else {}
        )
        for (stage, index), vertex in self.vertices.items():
            key = (stage.index, index)
            if key not in states:
                states[key] = vertex.checkpoint()
        return states

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

        The process's workers, queues and in-flight messages are lost;
        every peer rolls back to the latest durable checkpoint (the
        built state if none was taken) and the journaled input replays.
        Placement of the dead process's workers follows
        ``FaultTolerance.recovery``.
        """
        self._check_built()
        if not 0 <= process < self.num_processes:
            raise ValueError(
                "process %d out of range (cluster has %d)"
                % (process, self.num_processes)
            )
        if at is None:
            self._check_not_in_event("kill_process")
            self.recovery.fail_process(process)
        else:
            self.sim.schedule_at(at, lambda: self.recovery.fail_process(process))

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
        self._check_built()
        if not 0 <= process < self.num_processes:
            raise ValueError(
                "process %d out of range (cluster has %d)"
                % (process, self.num_processes)
            )
        if process == 0:
            raise ValueError(
                "process 0 hosts the controller and the supervisor and "
                "cannot crash silently"
            )
        if at is None:
            self._check_not_in_event("crash_process")
            self._crash_now(process)
        else:
            self.sim.schedule_at(at, lambda: self._crash_now(process))

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
        if self._trace is not None:
            self._trace.emit(
                TraceEvent(
                    "detect",
                    self.sim.now,
                    0.0,
                    perf_counter(),
                    -1,
                    process,
                    "crash",
                    (),
                    (len(hosted), self.generations[process]),
                )
            )

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
        if self._trace is not None:
            self._trace.emit(
                TraceEvent(
                    "detect",
                    self.sim.now,
                    0.0,
                    perf_counter(),
                    -1,
                    process,
                    "fence",
                    (),
                    (settled, self.generations[process]),
                )
            )
        return settled

    def _evict_process(self, process: int) -> None:
        """Drop a quarantined process from the membership for good.

        Only valid after a reassign recovery already moved its workers:
        eviction is then the pure-bookkeeping branch of the
        ``remove_process`` path (membership drop + rescale record)."""
        self._execute_remove(process)

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
    # via the partial-rollback machinery — the survivors' live state is
    # never touched (see DESIGN.md, "Elastic rescaling").
    # ------------------------------------------------------------------

    def _check_rescalable(self, name: str) -> None:
        """Eagerly reject configurations that cannot rescale, with the
        reason, instead of failing deep inside a migration cut."""
        ft = self.fault_tolerance
        if ft.checkpoint_mode != "async":
            raise ValueError(
                "%s() requires FaultTolerance(checkpoint_mode='async'): "
                "migration ships state over a marker-based cut taken "
                "under live load, which the stop-the-world 'barrier' "
                "mode cannot provide (got checkpoint_mode=%r)"
                % (name, ft.checkpoint_mode)
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

    def add_process(self, at: Optional[float] = None) -> Optional[int]:
        """Grow the cluster by one process while the computation runs.

        Waits for a fresh durable asynchronous cut, then migrates an
        even share of workers — drawn from the most-loaded hosts — to
        the new process by restoring *only their* cut state there and
        replaying their journal suffix; every other worker keeps its
        live state and keeps running.  Requires
        ``FaultTolerance(checkpoint_mode="async", recovery="reassign")``.

        With ``at=None`` the call is synchronous (drives the simulation
        until the migration completes) and returns the new process
        index; with ``at`` it is scheduled at that virtual time and
        returns None (the completed change appears in
        :attr:`rescales`).
        """
        self._check_built()
        self._check_rescalable("add_process")
        hosting = len(self._live_hosts())
        if self.total_workers // (hosting + 1) < 1:
            raise ValueError(
                "add_process(): %d workers across %d hosts leaves no "
                "share for a new process; grow workers_per_process "
                "instead" % (self.total_workers, hosting)
            )
        return self._submit_rescale(("add", None), at)

    def remove_process(self, process: int, at: Optional[float] = None) -> None:
        """Gracefully drain ``process`` out of the cluster.

        Planned departure, not a kill: the operation waits for a fresh
        durable cut, force-flushes the departing node's withheld
        progress updates, rehomes its workers round-robin across the
        survivors (restoring only *their* state, with replay dedup
        keeping deliveries exactly-once), and drops the process from
        the broadcast membership.  Requires
        ``FaultTolerance(checkpoint_mode="async", recovery="reassign")``.
        """
        self._check_built()
        self._check_rescalable("remove_process")
        if not 0 <= process < self.num_processes:
            raise ValueError(
                "process %d out of range (cluster has %d)"
                % (process, self.num_processes)
            )
        if process == 0:
            raise ValueError(
                "process 0 hosts the input controller and the progress "
                "accumulator and cannot be removed"
            )
        if (
            process in self._removed_processes
            or process not in self.live_processes
        ):
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
        self._submit_rescale(("remove", process), at)

    def _submit_rescale(
        self, op: Tuple[str, Optional[int]], at: Optional[float]
    ) -> Optional[int]:
        if at is not None:
            def queue_op() -> None:
                self._rescale_queue.append(op)
                self._pump_rescales()

            self.sim.schedule_at(at, queue_op)
            return None
        self._check_not_in_event("add_process/remove_process")
        self._ensure_pool()
        marker = len(self.rescales)
        self._rescale_queue.append(op)
        self._arm_pump_at(self.sim.now)
        while len(self.rescales) <= marker:
            if not self.sim.step():
                raise RuntimeError(
                    "rescale stalled before completing:\n"
                    + self.debug_state().text
                )
        record = self.rescales[marker]
        return record["process"] if record["kind"] == "add" else None

    def _pump_rescales(self) -> None:
        """Drive queued rescale operations forward.

        A small state machine re-armed off the DES event stream: wait
        until no journal-replay dedup is draining (migrating mid-replay
        could not tell replayed duplicates from migrated re-sends),
        take a *fresh* durable cut so the moving workers' state and
        ledger entries are current, re-check, then execute the
        membership change.  The computation keeps running throughout.
        """
        # Invalidate any armed wake-up: this call supersedes it.  Keeping
        # at most one live pump event matters — two pump events at the
        # same instant would each see the other as the "next event" when
        # re-arming and spin at a frozen virtual time forever.
        self._rescale_pump_token += 1
        ac = self.async_ckpt
        while True:
            state = self._rescale_active
            if state is None:
                if not self._rescale_queue:
                    return
                state = self._rescale_active = {
                    "op": self._rescale_queue.pop(0),
                    "stage": "dedup",
                    "target": 0,
                }
            if state["stage"] == "dedup":
                if ac.replay_dedup:
                    # A replay is draining (pending deliveries exist):
                    # wake up when the system next moves.
                    self._rearm_rescale()
                    return
                if not ac.active:
                    ac.begin_cycle()
                state["target"] = ac.cycle
                state["stage"] = "cut"
            if ac.durable_cycle < state["target"]:
                if not ac.active and ac.completed_cycle < state["target"]:
                    # The cycle was abandoned (a failure rolled back
                    # mid-cut); start over from a clean point now —
                    # waiting for an event first could strand the op if
                    # the abandonment was the last event in the queue.
                    state["stage"] = "dedup"
                    continue
                self._rearm_rescale()
                return
            if ac.replay_dedup:
                # A failure recovered between our cut and now; its
                # replay must drain before the migration can start.
                state["stage"] = "dedup"
                self._rearm_rescale()
                return
            kind, process = state["op"]
            self._rescale_active = None
            if kind == "add":
                self._execute_add()
            else:
                self._execute_remove(process)
            # Loop: a queued follow-up op starts its own cut right away
            # (the just-finished execution may have been the final
            # pending event, leaving nothing to re-arm against).

    def _rearm_rescale(self) -> None:
        upcoming = self.sim.next_event_time
        if upcoming is None:
            raise RuntimeError(
                "rescale stalled: no pending events while waiting for "
                "the migration cut:\n" + self.debug_state().text
            )
        # Same-time events run in scheduling order, so the pump fires
        # after the event it is waiting on.
        self._arm_pump_at(max(upcoming, self.sim.now))

    def _arm_pump_at(self, time: float) -> None:
        """Schedule the rescale pump, invalidating any earlier arming.

        The pump can be armed from several places (a re-arm while it
        waits for the cut, a scheduled ``at=`` submission firing, a
        synchronous submission); the token ensures only the most recent
        arming fires, so there is never more than one live pump event.
        """
        token = self._rescale_pump_token

        def fire() -> None:
            if token == self._rescale_pump_token:
                self._pump_rescales()

        self.sim.schedule_at(time, fire)

    def _migration_delay(self, moving: List[int]) -> float:
        """Virtual-time cost of shipping the moving workers' snapshot
        state and exactly-once ledger entries to their new home."""
        ft = self.fault_tolerance
        net = self.network.config
        moving_set = set(moving)
        state_bytes = ft.state_bytes_per_worker * len(moving)
        ledger_entries = sum(
            1 for entry in self.async_ckpt.journal if entry[1] in moving_set
        )
        return (
            state_bytes / ft.disk_bandwidth
            + (state_bytes + 64 * ledger_entries) / net.bandwidth
            + 2 * net.latency
        )

    def _execute_add(self) -> None:
        now = self.sim.now
        process = self.network.add_process()
        self.num_processes += 1
        self.plane.add_mirror(process)
        self.generations.append(0)
        self.live_processes.append(process)
        # Pick the migrating share: repeatedly take the highest-index
        # worker from the most-loaded donor, never draining a donor
        # below one worker.
        hosts = [p for p in self._live_hosts() if p != process]
        loads: Dict[int, List[int]] = {p: [] for p in hosts}
        for index, owner in enumerate(self._worker_process):
            if owner in loads:
                loads[owner].append(index)
        for owned in loads.values():
            owned.sort()
        share = self.total_workers // (len(hosts) + 1)
        moving: List[int] = []
        while len(moving) < share:
            donor = max(loads, key=lambda p: (len(loads[p]), -p))
            if len(loads[donor]) <= 1:
                break
            moving.append(loads[donor].pop())
        moving.sort()
        snapshot = self.recovery.snapshot or self.recovery.initial
        ready = now + self._migration_delay(moving)
        injected = self.async_ckpt.partial_rollback(
            -1,
            snapshot,
            ready,
            moving=moving,
            placement={index: process for index in moving},
            reason="rescale",
            flush_node=None,
        )
        self._note_rescale("add", process, moving, ready, injected)

    def _execute_remove(self, process: int) -> None:
        now = self.sim.now
        if process not in self.live_processes:
            return  # already gone (a queued duplicate); nothing to do
        moving = [
            index
            for index, owner in enumerate(self._worker_process)
            if owner == process
        ]
        survivors = [p for p in self._live_hosts() if p != process]
        # Leave the membership first: the departing node's view goes
        # stale by design, broadcasts stop targeting it, and agreement
        # checks (drained, snapshot assembly) no longer count it.
        self.live_processes.remove(process)
        self._removed_processes.add(process)
        if not moving:
            # It hosted nothing (e.g. it died earlier under reassign
            # and its workers already moved): pure bookkeeping.
            self._note_rescale("remove", process, moving, now, 0)
            return
        placement = {
            index: survivors[cursor % len(survivors)]
            for cursor, index in enumerate(moving)
        }
        snapshot = self.recovery.snapshot or self.recovery.initial
        ready = now + self._migration_delay(moving)
        injected = self.async_ckpt.partial_rollback(
            process,
            snapshot,
            ready,
            moving=moving,
            placement=placement,
            reason="rescale",
            flush_node=process,
        )
        self._note_rescale("remove", process, moving, ready, injected)

    def _note_rescale(
        self,
        kind: str,
        process: int,
        moving: List[int],
        ready: float,
        injected: int,
    ) -> None:
        self.rescale_generation += 1
        now = self.sim.now
        record = {
            "kind": kind,
            "process": process,
            "at": now,
            "ready": ready,
            "workers": tuple(moving),
            "injected": injected,
            "generation": self.rescale_generation,
            "live": tuple(self.live_processes),
        }
        self.rescales.append(record)
        trace = self._trace
        if trace is not None:
            trace.emit(
                TraceEvent(
                    "rescale",
                    now,
                    max(0.0, ready - now),
                    perf_counter(),
                    -1,
                    process,
                    kind,
                    (),
                    (
                        kind,
                        self.rescale_generation,
                        len(self.live_processes),
                        tuple(moving),
                        injected,
                    ),
                )
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

    def _rebuild_workers(self, busy_until: float = 0.0) -> None:
        """Replace every worker object (global rollback after a kill).

        Old workers are flagged dead so their already-scheduled events
        become no-ops; vertices are re-bound to the replacements, which
        start idle at ``busy_until`` (the recovery-ready time).
        """
        for worker in self.workers:
            worker.dead = True
        # Every queue dies with its worker (the plane's reset forgets
        # them); re-injected deliveries pass through enqueue_message.
        self.workers = [_Worker(self, index) for index in range(self.total_workers)]
        for worker in self.workers:
            worker.busy_until = busy_until
        self._rebuild_process_index()
        for (stage, index), vertex in self.vertices.items():
            vertex._harness = self.workers[index]
        if self.pool is not None:
            # Claims and in-flight tasks reference the dead workers;
            # drain and drop them before the snapshot is shipped back.
            self.pool.reset()

    def _replace_workers(
        self, indices: List[int], busy_until: float = 0.0
    ) -> None:
        """Replace only ``indices``'s worker objects (partial rollback).

        The survivors' workers — queues, pending notifications, claim
        protocol state — are left untouched; the named workers are
        flagged dead (their scheduled events become no-ops) and fresh
        replacements take their place, idle until ``busy_until``.
        """
        replaced = set(indices)
        if self.summarized_scopes:
            # The dying workers' queued interior deliveries vanish;
            # their re-injections re-increment through enqueue_message.
            for index in indices:
                worker = self.workers[index]
                for entry in worker.queue:
                    self.plane.note_dequeue(entry[0], entry[2], worker.process)
        for index in indices:
            self.workers[index].dead = True
            self.workers[index] = _Worker(self, index)
            self.workers[index].busy_until = busy_until
        self._rebuild_process_index()
        for (stage, index), vertex in self.vertices.items():
            if index in replaced:
                vertex._harness = self.workers[index]

    def _restore_snapshot(self, snapshot: Dict[str, Any]) -> None:
        """Load a consistent cut into the (freshly rebuilt) cluster."""
        by_index = {stage.index: stage for stage in self.graph.stages}
        for (stage_index, worker_index), state in snapshot["vertices"].items():
            self.vertices[(by_index[stage_index], worker_index)].restore(state)
        if self.pool is not None:
            # The children's resident copies are the authoritative ones
            # for pool-executed vertices; roll those back too.
            self.pool.restore_states(snapshot["vertices"])
        for worker in self.workers:
            worker.pending_notifications = dict(
                snapshot["pending"].get(worker.index, {})
            )
            worker.pending_cleanups = dict(
                snapshot["cleanups"].get(worker.index, {})
            )
            worker._pending_rev += 1
        self.plane.reset(snapshot["occurrence"])
        if self.async_ckpt is not None:
            self.async_ckpt.note_global_restore(snapshot)
        for worker in self.workers:
            worker.activate()

    def __repr__(self) -> str:
        return "ClusterComputation(%d procs x %d workers, mode=%s)" % (
            self.num_processes,
            self.workers_per_process,
            self.progress_mode,
        )
