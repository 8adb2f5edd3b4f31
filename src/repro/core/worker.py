"""One timely dataflow worker: the rule every vertex runs under.

A worker takes queued messages before notifications (section 3.2),
delivers ``on_notify(t)`` only when no other active pointstamp
could-result-in ``t`` (section 2.3), and rejects a callback that sends
or requests a notification into the past, or does either from a
capability-free cleanup (section 2.4).  One unit of work returns what
its callback did as data, for the runtime to commit: the reference
:class:`repro.core.Computation` at once, the cluster's worker
(:mod:`repro.runtime.cluster`) over its network and progress plane.
"""

from __future__ import annotations

from collections import deque
from typing import Any, Callable, Dict, Iterable, List, Optional, Tuple

from ..obs.trace import TraceEvent, TraceSink, timestamp_tuple
from ..opt.plan import HashPartitioner
from .graph import Connector, Stage, StageKind
from .progress import Pointstamp, ProgressState
from .timestamp import Timestamp
from .vertex import Vertex


class TimestampViolation(RuntimeError):
    """A callback tried to send or request notification in the past."""


def route(
    connector, records: List[Any], total: int, local_index: int
) -> Iterable[Tuple[int, List[Any]]]:
    """Partition one send's records across the workers of a connector.

    Yields ``(dest_worker, share)`` pairs: pipeline connectors (no
    partitioner) keep the records on the local worker; exchanges bucket
    them by ``partitioner(record) % total``, each share in send order,
    through :meth:`HashPartitioner.route` for a hash partitioner.  The
    single routing implementation behind :meth:`Worker.send`, the
    cut-through of plumbing hops and the cluster's keyed ingest.
    """
    partitioner = connector.partitioner
    if partitioner is None:
        return ((local_index, records),)
    if type(partitioner) is HashPartitioner:
        return partitioner.route(records, total).items()
    buckets: Dict[int, List[Any]] = {}
    for record in records:
        buckets.setdefault(partitioner(record) % total, []).append(record)
    return buckets.items()


class Worker:
    """The runtime-neutral half of a worker; also the vertices' harness.

    A vertex reaches its runtime only through ``_harness``: ``send``,
    ``request_notification``, ``charge``, ``total_workers`` and
    ``computation``.

    Queue entries are ``(connector, records, timestamp, remote_bytes,
    tag, task)``; the last three are the cluster's (deserialization
    bytes, async-checkpoint colour, mp-pool task) and are ``0, 0, None``
    on the reference runtime.
    """

    __slots__ = (
        "computation",
        "index",
        "process",
        "view",
        "vertices",
        "queue",
        "queued_keys",
        "pending_notifications",
        "pending_cleanups",
        "_frame_time",
        "_frame_capability",
        "_updates",
        "_dispatches",
        "delivered_messages",
        "delivered_notifications",
        "_pending_rev",
        "_memos",
    )

    def __init__(self, computation, index: int):
        self.computation = computation
        self.index = index
        #: The hosting process (the reference runtime's one worker: 0).
        self.process = 0
        #: The progress state notifications are delivered against: the
        #: reference runtime's one state, or (set by the cluster's
        #: worker) its process's view.  One object for the worker's
        #: life; recovery resets it in place.
        self.view: Optional[ProgressState] = computation.progress
        #: Stage -> this worker's vertex of it.
        self.vertices: Dict[Stage, Vertex] = {}
        self.queue: deque = deque()
        #: (connector, timestamp) -> queued entries behind the head, for
        #: coalescible connectors only: what _select merges into the
        #: head's delivery.  The head is left out so that a delivery that
        #: finds the queue empty and leaves it empty costs no dict op.
        self.queued_keys: Dict[Tuple[Connector, Timestamp], int] = {}
        self.pending_notifications: Dict[Pointstamp, int] = {}
        self.pending_cleanups: Dict[Pointstamp, int] = {}
        #: The running callback's frame: its time (None between
        #: callbacks) and whether it holds a capability.
        self._frame_time: Optional[Timestamp] = None
        self._frame_capability = True
        #: The running unit of work's updates and dispatches (None
        #: between units).
        self._updates: Optional[List[Tuple[Pointstamp, int]]] = None
        self._dispatches: Optional[List[Tuple]] = None
        self.delivered_messages = 0
        self.delivered_notifications = 0
        #: Bumped whenever the pending notification/cleanup tables gain
        #: or lose a key; with the view's frontier version it
        #: keys the deliverability memos (cleanups, notifications), so
        #: the full scan runs once per (frontier, pending-set) state
        #: instead of once per delivery.
        self._pending_rev = 0
        self._memos: List[Optional[Tuple]] = [None, None]

    def bind(self, vertex: Vertex) -> None:
        """Host ``vertex`` here: it becomes this worker's vertex of its
        stage, and this worker its harness."""
        vertex._harness = self
        self.vertices[vertex.stage] = vertex

    def load_pending(self, pending: Dict, cleanups: Dict) -> None:
        """Install a checkpoint's pending notification/cleanup tables."""
        self.pending_notifications = dict(pending)
        self.pending_cleanups = dict(cleanups)
        self._pending_rev += 1

    @property
    def pending_requests(self) -> int:
        """Outstanding notification requests, with or without capability."""
        return sum(self.pending_notifications.values()) + sum(
            self.pending_cleanups.values()
        )

    def enqueue(self, entry: Tuple) -> None:
        """Queue one delivery entry (the only way entries are added)."""
        queue = self.queue
        if queue and entry[0].coalesce:
            key = entry[0], entry[2]
            self.queued_keys[key] = self.queued_keys.get(key, 0) + 1
        queue.append(entry)

    def has_work(self) -> bool:
        return bool(self.queue or self.pending_notifications or self.pending_cleanups)

    # ------------------------------------------------------------------
    # Harness interface (Vertex.send_by / Vertex.notify_at).
    # ------------------------------------------------------------------

    @property
    def total_workers(self) -> int:
        return self.computation.total_workers

    def charge(self, records: Any) -> None:
        """A fused vertex handed ``records`` to a later constituent
        inside the running callback.  Only the cluster bills them."""

    def _check_causality(self, timestamp: Timestamp, what: str, timed: bool) -> None:
        if not self._frame_capability:
            raise TimestampViolation(
                "%s from a capability-free (state purging) notification" % (what,)
            )
        current = self._frame_time
        if timed and current is not None and current.depth == timestamp.depth:
            if not current.less_equal(timestamp):
                raise TimestampViolation(
                    "%s at %r from a callback at %r sends backwards in time"
                    % (what, timestamp, current)
                )

    def send(
        self, vertex: Vertex, output_port: int, records: List[Any], timestamp: Timestamp
    ) -> None:
        stage = vertex.stage
        # System stages (ingress/egress/feedback) adjust the time they
        # send at, so only user stages are held to the frame's time.
        self._check_causality(timestamp, "send_by", stage.kind is StageKind.NORMAL)
        out_time = stage.timestamp_action().apply(timestamp)
        total = self.computation.total_workers
        for connector in stage.outputs[output_port]:
            pointstamp = Pointstamp(out_time, connector)
            if connector.partitioner is None:  # route()'s pipeline case, inlined
                self._dispatch(pointstamp, self.index, records)
                continue
            for dest, batch in route(connector, records, total, self.index):
                self._dispatch(pointstamp, dest, batch)

    def _dispatch(self, pointstamp: Pointstamp, dest: int, batch: Any) -> None:
        """Record one share of a send: the dispatch and its +1.

        Sender-side batch coalescing: a callback that sends several
        times to the same (connector, dest, time) — e.g. per-record
        emission loops feeding a coalescible destination — would be
        charged per-message network bytes and a +1/-1 occurrence round
        trip for each, even though the receiver would merge them in
        ``_select``.  Merge into the previous dispatch instead, so
        per-message costs are paid once per coalesced batch.  Only the
        previous dispatch, so a lookup per send stays O(1); the receiver
        merges whatever this leaves apart."""
        out_time, connector = pointstamp
        dispatches = self._dispatches
        if connector.coalesce and dispatches:
            prev = dispatches[-1]
            if prev[0] is connector and prev[1] == dest and prev[3] == out_time:
                dispatches[-1] = (connector, dest, [*prev[2], *batch], out_time)
                # The receiver will consume one queue entry, not two.
                self.computation.sender_merged_dispatches += 1
                return
        if not connector.cut_through:  # else no queue entry: see run_one()
            self._updates.append((pointstamp, +1))
        dispatches.append((connector, dest, batch, out_time))

    def request_notification(
        self, vertex: Vertex, timestamp: Timestamp, capability: bool = True
    ) -> None:
        self._check_causality(timestamp, "notify_at", True)
        pointstamp = Pointstamp(timestamp, vertex.stage)
        if capability:
            self._updates.append((pointstamp, +1))
            table = self.pending_notifications
        else:
            # Section 2.4: guarantee-only request — it holds no
            # pointstamp and so cannot delay anything anywhere.
            table = self.pending_cleanups
        table[pointstamp] = table.get(pointstamp, 0) + 1
        self._pending_rev += 1

    # ------------------------------------------------------------------
    # Choosing the next unit of work.
    # ------------------------------------------------------------------

    @staticmethod
    def _delivery_candidates(pending: Dict[Pointstamp, int]) -> List[Pointstamp]:
        """The pending pointstamps whose delivery test decides the table.

        Delivery tests are needed only for per-location *minima* of
        flat (counter-free) pointstamps: two flat requests at the same
        location share the counter part of every could-result-in
        verdict, so a frontier element blocking the earlier epoch
        blocks every later one too (it cannot *be* the later one — its
        epoch is <= the earlier's).  Loop timestamps don't share
        verdicts this way and are tested individually.
        """
        if len(pending) == 1:
            return list(pending)
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

    def _deliverable(
        self, pending: Dict[Pointstamp, int], earliest: bool
    ) -> Optional[Pointstamp]:
        """An unblocked pending request, or None: the earliest one for
        notifications, the first found for cleanups (a cleanup holds no
        pointstamp, so its delivery never blocks or retires another)."""
        if not pending:
            return None
        state = self.view
        state.settle()  # the frontier version is current only once settled
        key = (state.version, self._pending_rev)
        memo = self._memos[earliest]
        if memo is not None and memo[0] == key:
            return memo[1]
        best = None
        for pointstamp in self._delivery_candidates(pending):
            if state.unblocked(pointstamp):
                if not earliest:
                    best = pointstamp
                    break
                if best is None or (pointstamp.timestamp, pointstamp.location.index) < (
                    best.timestamp,
                    best.location.index,
                ):
                    best = pointstamp
        self._memos[earliest] = (key, best)
        return best

    def _select(self) -> Optional[Tuple]:
        """Dequeue this worker's next unit of work, or None if idle.

        Returns ``("activation", connector, records, timestamp,
        remote_bytes, batches, tasks)`` (``batches`` = queue entries
        consumed, > 1 when batch coalescing merged every queued entry of
        the (connector, timestamp); ``tasks`` = the entries' mp tasks,
        or None if the first has none), ``("notification", pointstamp)``
        or ``("cleanup", pointstamp)``, with the queue / pending tables
        already decremented.
        """
        queue = self.queue
        if queue:
            batches = 1
            connector, records, timestamp, remote_bytes, _tag, task = queue.popleft()
            tasks = None if task is None else [task]
            counts = self.queued_keys
            if connector.coalesce and queue:
                # Batch coalescing (repro.opt hints): take every queued
                # entry of this (connector, timestamp) into this one
                # delivery, in queue order, paying the callback overhead
                # once.  The pass hints only batchable destinations, and
                # timely dataflow orders nothing across channels or
                # times, so moving the later entries ahead of other
                # keys' entries is a schedule the network could produce.
                # A fresh list: the parts are shared with dispatch
                # tuples and ledgers.
                more = counts.pop((connector, timestamp), 0)
                if more:
                    batches += more
                    self.computation.coalesced_batches += more
                    merged = list(records)
                    skipped = []
                    while more:
                        entry = queue.popleft()
                        if entry[0] is not connector or entry[2] != timestamp:
                            skipped.append(entry)
                            continue
                        merged.extend(entry[1])
                        remote_bytes += entry[3]
                        if tasks is not None:
                            tasks.append(entry[5])
                        more -= 1
                    queue.extendleft(reversed(skipped))
                    records = merged
            if queue and queue[0][0].coalesce:  # the new head leaves the count
                key = queue[0][0], queue[0][2]
                left = counts[key] - 1
                if left:
                    counts[key] = left
                else:
                    del counts[key]
            return "activation", connector, records, timestamp, remote_bytes, batches, tasks
        table, kind = self.pending_notifications, "notification"
        pointstamp = self._deliverable(table, True)
        if pointstamp is None:
            table, kind = self.pending_cleanups, "cleanup"
            pointstamp = self._deliverable(table, False)
            if pointstamp is None:
                return None
        remaining = table[pointstamp] - 1
        if remaining:
            table[pointstamp] = remaining
        else:
            del table[pointstamp]
        self._pending_rev += 1
        return (kind, pointstamp)

    def run_one(self) -> Optional[Tuple[Tuple, float, List, List]]:
        """Select one unit of work and run it; returns ``(work, cost,
        updates, dispatches)`` — ``(pointstamp, delta)`` pairs and
        ``(connector, dest_worker, records, timestamp)`` sends left after
        plumbing cut-through — or None if idle."""
        work = self._select()
        if work is None:
            return None
        updates = self._updates = []
        sent = self._dispatches = []
        if work[0] == "activation":
            _, connector, records, timestamp, _bytes, batches, tasks = work
            vertex = self.vertices[connector.dst]
            if tasks is not None and None not in tasks:  # the cluster's mp pool ran it
                self._take_results(vertex, timestamp, tasks)
            else:
                self._frame_time = timestamp
                try:
                    vertex.on_recv(connector.dst_port, records, timestamp)
                finally:
                    self._frame_time = None
            # Every coalesced queue entry carried its own +1 occurrence
            # at dispatch time; retire each one.
            retire = (Pointstamp(timestamp, connector), -1)
            if batches == 1:
                updates.append(retire)
            else:
                updates.extend([retire] * batches)
            self.delivered_messages += 1
        else:
            kind, pointstamp = work
            vertex = self.vertices[pointstamp.location]
            self._frame_time = pointstamp.timestamp
            if kind == "cleanup":
                self._frame_capability = False
            try:
                vertex.on_notify(pointstamp.timestamp)
            finally:
                self._frame_time = None
                self._frame_capability = True
            if kind == "notification":
                updates.append((pointstamp, -1))
            self.delivered_notifications += 1
        cost = self._ran(work, vertex)
        # Plumbing cut-through (repro.opt; section 3.2): a dispatch on a
        # marked connector crosses its ingress/egress/feedback hop here,
        # inside the producing callback, which pays the hop's cost.
        # After the callback, so a merged run crosses once, as it would
        # have been delivered.
        dispatches = self._dispatches = []
        for entry in sent:
            if entry[0].cut_through:
                cost += self._cut_through(entry[0], entry[2], entry[3])
            else:
                dispatches.append(entry)
        self._updates = self._dispatches = None
        return work, cost, updates, dispatches

    def _ran(self, work: Tuple, vertex: Vertex) -> float:
        """Bookkeeping after ``work``'s callback; returns its cost (none here)."""
        return 0.0

    def _cut_through(self, connector: Connector, batch: Any, timestamp: Timestamp) -> float:
        """Run ``connector``'s plumbing hop now, as its ForwardingVertex
        would on delivery: apply the timestamp action and route onto its
        outputs (recursively, where marked too), so that only what
        reaches a real queue is dispatched.  Returns the cost the hop's
        own callback would have been charged."""
        hop = connector.dst
        self.computation.cut_through_hops += 1
        cost = self._hop_cost(hop, batch)
        if self.vertices[hop].drops(timestamp):
            return cost
        out_time = hop.timestamp_action().apply(timestamp)
        total = self.computation.total_workers
        for downstream in hop.outputs[0]:
            pointstamp = Pointstamp(out_time, downstream)
            for dest, share in route(downstream, batch, total, self.index):
                if downstream.cut_through:
                    cost += self._cut_through(downstream, share, out_time)
                else:
                    self._dispatch(pointstamp, dest, share)
        return cost

    def _hop_cost(self, hop: Stage, batch: Any) -> float:
        """The cost of one cut-through hop; only the cluster charges."""
        return 0.0

    def _trace_span(self, trace: TraceSink, work: Tuple, count: Callable, t, dur, wall):
        """Emit ``work``'s span event at virtual time ``t`` for ``dur``,
        with ``count(records)`` in an activation's detail."""
        if work[0] == "activation":
            connector, records, timestamp = work[1:4]
            name, detail = connector.dst.name, (count(records), connector.dst_port)
        else:
            name, timestamp, detail = work[1].location.name, work[1].timestamp, ()
        stamp = timestamp_tuple(timestamp)
        worker, process = self.index, self.process
        trace.emit(TraceEvent(work[0], t, dur, wall, worker, process, name, stamp, detail))
