"""The multiprocessing vertex-execution pool (the ``mp`` backend).

Design: the DES thread remains the *only* place where virtual time
advances, work is selected, costs are charged and progress updates are
applied.  What moves off-thread is exclusively the body of a vertex
callback (``on_recv`` / ``on_notify``): the pool child executes it
against its own resident copy of the vertex state and sends back the
*recorded effects* — every ``send_by`` (already partitioned into
per-destination shares, with batch sizes precomputed) and every
``notify_at``.  The coordinator replays those effects through the same
bookkeeping the inline backend uses, in the same order, so updates,
dispatches, costs and therefore virtual time are bit-identical.

Mechanics:

* **Fork, not spawn.**  Stage factories and partitioners are closures;
  they do not pickle.  Children are forked after ``build()``, so they
  inherit the fully constructed physical graph, and from then on each
  child's copy of a vertex it owns is the authoritative one.

* **Pinning.**  Sim-worker ``i`` is owned by pool child ``i % size``
  for the life of the computation — stable across failure recovery,
  reassignment and elastic rescaling, so vertex state never migrates
  between children except through the explicit checkpoint/restore
  path.  Ownership keys on the *worker index*, never on the hosting
  process, which is exactly why ``add_process`` / ``remove_process``
  can rehome workers without touching the pool: only the cluster's
  placement map changes, and the moved workers' states arrive through
  the same ``push_worker_states`` path a partial rollback uses.

* **Claims.**  ``Simulator.step`` calls :meth:`VertexPool.prefetch`
  (the ``dispatcher`` hook), which stages the maximal run of
  same-instant ``_Worker._step`` events, claims each ready worker's
  next unit of work via ``_Worker._select`` — selection state cannot
  change within the batch because commits and protocol deliveries are
  never part of it — and ships offloadable callbacks to the children.
  Children compute while the coordinator dispatches; each ``_step``
  then consumes its claim in the original event order.

* **Backpressure.**  One outstanding task per child; further tasks
  queue coordinator-side.  A child never blocks sending a result and
  the coordinator never blocks sending a task, so the pipe protocol
  cannot deadlock.

* **State shipping.**  Checkpoint barriers pull vertex state from the
  children (:meth:`checkpoint_states`); rollback pushes the restored
  snapshot back (:meth:`restore_states`) and discards any claims that
  were in flight when the failure hit (:meth:`reset`).
"""

from __future__ import annotations

import multiprocessing
import pickle
import traceback
import weakref
from collections import deque
from time import perf_counter
from typing import Any, Dict, List, Optional, Tuple

from ..core.computation import TimestampViolation
from ..core.graph import StageKind
from ..runtime.synthetic import batch_bytes, record_count, route

#: Pool size when neither the constructor nor REPRO_POOL_WORKERS says.
DEFAULT_POOL_WORKERS = 4


def fork_available() -> bool:
    """The pool requires the ``fork`` start method (closures don't
    pickle); true everywhere but Windows and some embedders."""
    return "fork" in multiprocessing.get_all_start_methods()


# ----------------------------------------------------------------------
# Child side.
# ----------------------------------------------------------------------


class _ChildHarness:
    """The vertex harness installed inside a pool child.

    Presents the same surface a :class:`repro.runtime.cluster._Worker`
    does (``send`` / ``request_notification`` / ``total_workers``), but
    instead of touching runtime bookkeeping it records effects — with
    the same timestamp-violation checks and the exact partitioning the
    inline worker would perform, so the coordinator can apply them
    verbatim.
    """

    __slots__ = (
        "total_workers",
        "record_bytes",
        "_effects",
        "_frame_time",
        "_frame_capability",
    )

    def __init__(self, total_workers: int, record_bytes: int):
        self.total_workers = total_workers
        self.record_bytes = record_bytes
        self._effects: Optional[List[Tuple]] = None
        self._frame_time = None
        self._frame_capability = True

    def invoke(self, vertex, kind: str, port, records, timestamp) -> List[Tuple]:
        self._effects = []
        self._frame_time = timestamp
        self._frame_capability = kind != "cleanup"
        try:
            if kind == "recv":
                vertex.on_recv(port, records, timestamp)
            else:
                vertex.on_notify(timestamp)
        finally:
            self._frame_time = None
            self._frame_capability = True
        effects, self._effects = self._effects, None
        return effects

    # -- the Vertex.send_by / Vertex.notify_at surface ------------------

    def send(self, vertex, output_port: int, records, timestamp) -> None:
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
        total = self.total_workers
        record_bytes = self.record_bytes
        plan = []
        for conn_pos, connector in enumerate(stage.outputs[output_port]):
            # The shared routing implementation: identical bucketing to
            # the inline _Worker.send.
            shares = route(connector, records, total, vertex.worker)
            plan.append(
                (
                    conn_pos,
                    [
                        (dest, batch, batch_bytes(batch, record_bytes))
                        for dest, batch in shares
                    ],
                )
            )
        self._effects.append(("send", output_port, out_time, plan))

    def charge(self, records) -> None:
        self._effects.append(("charge", record_count(records)))

    def request_notification(self, vertex, timestamp, capability: bool = True) -> None:
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
        self._effects.append(("notify", timestamp, capability))


def _child_main(cluster, rank: int, size: int, offload, conn) -> None:
    """Pool child event loop: execute callbacks, answer state requests.

    Runs in a forked copy of the coordinator process, so ``cluster`` is
    the inherited (pre-fork) object graph.  Only the vertices this child
    owns are ever touched; between calls their state simply stays
    resident, which is the entire point.
    """
    harness = _ChildHarness(cluster.total_workers, cluster.cost_model.record_bytes)
    vertices = cluster.vertices
    by_index = {stage.index: stage for stage in cluster.graph.stages}
    for vertex in vertices.values():
        vertex._harness = harness
    while True:
        try:
            msg = conn.recv()
        except (EOFError, OSError, KeyboardInterrupt):
            break
        op = msg[0]
        if op == "call":
            _, task_id, stage_index, worker_index, kind, port, records, timestamp = msg
            vertex = vertices[(by_index[stage_index], worker_index)]
            started = perf_counter()
            try:
                effects = harness.invoke(vertex, kind, port, records, timestamp)
                reply = (task_id, "ok", effects, perf_counter() - started)
            except BaseException as exc:
                try:  # the coordinator re-raises it, if it pickles
                    pickled = pickle.dumps(exc)
                except Exception:
                    pickled = None
                failure = (traceback.format_exc(), pickled)
                reply = (task_id, "error", failure, perf_counter() - started)
            try:
                conn.send(reply)
            except (BrokenPipeError, OSError):
                break
            except Exception:  # unpicklable effects
                conn.send((task_id, "error", (traceback.format_exc(), None), 0.0))
        elif op == "checkpoint":
            states = {
                (stage.index, worker_index): vertex.checkpoint()
                for (stage, worker_index), vertex in vertices.items()
                if stage.index in offload and worker_index % size == rank
            }
            conn.send(states)
        elif op == "checkpoint_worker":
            # Asynchronous cuts snapshot one sim worker at a time, and
            # incrementally: only the stages named (the dirty ones).
            _, worker_index, stage_indices = msg
            conn.send(
                {
                    (stage_index, worker_index): vertices[
                        (by_index[stage_index], worker_index)
                    ].checkpoint()
                    for stage_index in stage_indices
                }
            )
        elif op == "restore":
            for (stage_index, worker_index), state in msg[1].items():
                vertices[(by_index[stage_index], worker_index)].restore(state)
            conn.send(("ok",))
        elif op == "exit":
            break
    conn.close()


# ----------------------------------------------------------------------
# Coordinator side.
# ----------------------------------------------------------------------


class _Claim:
    """One unit of work claimed at prefetch time for a sim worker.

    ``work`` is whatever ``_Worker._select`` returned (None for an
    empty claim).  For offloaded work, ``task_id``/``channel`` track
    the in-flight pool task until ``effects``/``child_wall`` are
    materialized by :meth:`VertexPool.take_claim`.
    """

    __slots__ = ("work", "task_id", "channel", "result", "pool_rank", "effects", "child_wall")

    def __init__(self, work):
        self.work = work
        self.task_id: Optional[int] = None
        self.channel = None
        self.result = None
        self.pool_rank = -1
        self.effects: Optional[List[Tuple]] = None
        self.child_wall = 0.0

    @property
    def offloaded(self) -> bool:
        return self.task_id is not None


class _Channel:
    """Coordinator-side endpoint for one pool child."""

    __slots__ = ("rank", "conn", "process", "outstanding", "backlog")

    def __init__(self, rank, conn, process):
        self.rank = rank
        self.conn = conn
        self.process = process
        #: Claims whose task was sent; results come back in this order.
        self.outstanding: deque = deque()
        #: (claim, payload) not yet sent (window of 1 in flight).
        self.backlog: deque = deque()


def _shutdown(channels, processes) -> None:
    for channel in channels:
        try:
            channel.conn.send(("exit",))
        except (BrokenPipeError, OSError):
            pass
        try:
            channel.conn.close()
        except OSError:
            pass
    for process in processes:
        process.join(timeout=2.0)
        if process.is_alive():
            process.terminate()


class VertexPool:
    """The persistent pool of forked vertex-execution processes.

    Created lazily by :class:`repro.runtime.ClusterComputation` on the
    first ``run()``/``step()`` after ``build()``; installed as the
    simulator's ``dispatcher``.
    """

    def __init__(self, cluster, size: int):
        if size < 1:
            raise ValueError("pool size must be >= 1 (got %d)" % size)
        if not fork_available():
            raise RuntimeError(
                "the mp backend requires the fork start method "
                "(stage factories are closures and do not pickle)"
            )
        from ..runtime.cluster import _Worker

        self._worker_step = _Worker._step
        self.cluster = cluster
        self.size = size
        #: Stage indexes whose vertices execute in the pool: normal
        #: (user) stages not pinned to the coordinator.  System stages
        #: (ingress/egress/feedback) just forward — a pool round-trip
        #: would cost more than it saves — and coordinator_only classes
        #: side-effect driver objects.
        self.offload_stages = frozenset(
            stage.index
            for stage in cluster.graph.stages
            if stage.kind is StageKind.NORMAL
            and (stage, 0) in cluster.vertices
            and not cluster.vertices[(stage, 0)].coordinator_only
        )
        self._claims: Dict[int, _Claim] = {}
        self._next_task = 0
        #: Profiling counters (see repro.obs.profile).
        self.claims_made = 0
        self.tasks_offloaded = 0
        self.wait_wall = 0.0
        self.child_wall = [0.0] * size
        self.resets = 0
        ctx = multiprocessing.get_context("fork")
        self._channels: List[_Channel] = []
        processes = []
        for rank in range(size):
            parent_conn, child_conn = ctx.Pipe()
            process = ctx.Process(
                target=_child_main,
                args=(
                    cluster,
                    rank,
                    size,
                    self.offload_stages,
                    child_conn,
                ),
                daemon=True,
                name="repro-pool-%d" % rank,
            )
            process.start()
            child_conn.close()
            self._channels.append(_Channel(rank, parent_conn, process))
            processes.append(process)
        self._finalizer = weakref.finalize(self, _shutdown, self._channels, processes)

    # ------------------------------------------------------------------
    # The Simulator dispatcher hook.
    # ------------------------------------------------------------------

    def _match(self, callback) -> bool:
        return (
            getattr(callback, "__func__", None) is self._worker_step
            and callback.__self__.cluster is self.cluster
        )

    def prefetch(self, sim) -> None:
        """Stage the next same-instant batch of worker steps and ship
        the offloadable callbacks to the pool."""
        staged = sim.stage_events(self._match)
        if not staged:
            return
        cluster = self.cluster
        # The staged run may sit at a *future* instant (the head of the
        # queue); eligibility must be judged at that instant — the clock
        # will have advanced to it by the time the events execute.
        batch_time = staged[0][0]
        network = cluster.network
        claims = self._claims
        for _, _, callback in staged:
            worker = callback.__self__
            if worker.dead or worker.index in claims:
                # A claim can already exist when a _step deferred by a
                # straggler pause re-arms into a later batch; it will be
                # consumed by that _step, never re-selected.
                continue
            if worker._cut_deferred:
                # The worker owes an asynchronous-checkpoint cut; a new
                # claim would pop work out of the queue ahead of the
                # cut's capture.  Let _step take the cut first.
                continue
            start = max(
                batch_time,
                worker.busy_until,
                network.process_available_at(worker.process),
            )
            if start > batch_time:
                continue  # _step will re-arm itself; select at that time
            work = worker._select()
            claim = _Claim(work)
            claims[worker.index] = claim
            self.claims_made += 1
            if work is None:
                continue
            kind = work[0]
            if kind == "recv":
                connector = work[1]
                stage = connector.dst
                if stage.index not in self.offload_stages:
                    continue
                payload_tail = (connector.dst_port, work[2], work[3])
            else:
                pointstamp = work[1]
                stage = pointstamp.location
                if stage.index not in self.offload_stages:
                    continue
                payload_tail = (None, None, pointstamp.timestamp)
            task_id = self._next_task
            self._next_task += 1
            claim.task_id = task_id
            channel = self._channels[worker.index % self.size]
            claim.channel = channel
            claim.pool_rank = channel.rank
            channel.backlog.append(
                (
                    claim,
                    ("call", task_id, stage.index, worker.index, kind) + payload_tail,
                )
            )
            self.tasks_offloaded += 1
            self._pump(channel)

    def _pump(self, channel: _Channel) -> None:
        while channel.backlog and not channel.outstanding:
            claim, payload = channel.backlog.popleft()
            channel.conn.send(payload)
            channel.outstanding.append(claim)

    # ------------------------------------------------------------------
    # Claim consumption (called from _Worker._step).
    # ------------------------------------------------------------------

    def take_claim(self, worker) -> Optional[_Claim]:
        claim = self._claims.pop(worker.index, None)
        if claim is None or claim.task_id is None:
            return claim
        if claim.result is None:
            self._resolve(claim)
        task_id, status, payload, child_wall = claim.result
        self.child_wall[claim.pool_rank] += child_wall
        claim.child_wall = child_wall
        if status == "error":
            child_traceback, pickled = payload
            # Fail fast with the callback's own exception; the child's
            # stack (the frames that matter) rides along as its cause.
            failure = RuntimeError(
                "pool worker %d failed executing sim worker %d"
                "\n--- child traceback ---\n%s"
                % (claim.pool_rank, worker.index, child_traceback)
            )
            try:
                original = None if pickled is None else pickle.loads(pickled)
            except Exception:  # e.g. a constructor that rejects its own args
                original = None
            if original is None:
                raise failure
            raise original from failure
        claim.effects = payload
        return claim

    def _resolve(self, claim: _Claim) -> None:
        channel = claim.channel
        while claim.result is None:
            head = channel.outstanding[0]
            started = perf_counter()
            message = channel.conn.recv()
            self.wait_wall += perf_counter() - started
            if message[0] != head.task_id:
                raise RuntimeError(
                    "pool protocol error: expected result for task %d, got %r"
                    % (head.task_id, message[0])
                )
            head.result = message
            channel.outstanding.popleft()
            self._pump(channel)

    # ------------------------------------------------------------------
    # Asynchronous-checkpoint support (claim inspection and per-worker
    # state shipping while the rest of the pool keeps computing).
    # ------------------------------------------------------------------

    def claim_has_work(self, worker_index: int) -> bool:
        """True when ``worker_index`` holds a claim with popped work —
        the cut-deferral condition for asynchronous snapshots."""
        claim = self._claims.get(worker_index)
        return claim is not None and claim.work is not None

    def peek_claim_work(self, worker_index: int):
        """The claimed-but-unconsumed work unit (or None) — partial
        rollback compensates its occurrence counts."""
        claim = self._claims.get(worker_index)
        return claim.work if claim is not None else None

    def _drain(self, channel: _Channel) -> None:
        """Materialize every outstanding result on ``channel`` without
        feeding it more work, leaving the pipe free for a synchronous
        state conversation.  Results are stored on their claims, which
        ``take_claim`` honors later; the caller must ``_pump`` when its
        conversation is done."""
        while channel.outstanding:
            head = channel.outstanding[0]
            message = channel.conn.recv()
            if message[0] != head.task_id:
                raise RuntimeError(
                    "pool protocol error: expected result for task %d, got %r"
                    % (head.task_id, message[0])
                )
            head.result = message
            channel.outstanding.popleft()

    def pull_worker_states(self, worker_index: int, stage_indices):
        """Fetch one sim worker's pool-resident states (the listed
        stages only) without requiring a drained pool."""
        offload = [si for si in stage_indices if si in self.offload_stages]
        if not offload:
            return {}
        channel = self._channels[worker_index % self.size]
        self._drain(channel)
        channel.conn.send(("checkpoint_worker", worker_index, offload))
        states = channel.conn.recv()
        self._pump(channel)
        return states

    def push_worker_states(self, vertex_states, worker_indices) -> None:
        """Restore only ``worker_indices``'s shares of a snapshot into
        their owning children (partial rollback; pool stays live)."""
        targets = set(worker_indices)
        shares: List[Dict[Tuple[int, int], Any]] = [{} for _ in range(self.size)]
        for (stage_index, worker_index), state in vertex_states.items():
            if worker_index in targets and stage_index in self.offload_stages:
                shares[worker_index % self.size][(stage_index, worker_index)] = state
        for channel, share in zip(self._channels, shares):
            if not share:
                continue
            self._drain(channel)
            channel.conn.send(("restore", share))
            channel.conn.recv()
            self._pump(channel)

    def discard_claims(self, worker_indices) -> None:
        """Drop the named workers' claims and backlogged tasks (their
        sim workers died); everyone else's claims survive."""
        dead = set(worker_indices)
        for rank in {index % self.size for index in dead}:
            channel = self._channels[rank]
            self._drain(channel)
            if channel.backlog:
                kept = [
                    (claim, payload)
                    for claim, payload in channel.backlog
                    if payload[3] not in dead
                ]
                channel.backlog.clear()
                channel.backlog.extend(kept)
            self._pump(channel)
        for index in dead:
            self._claims.pop(index, None)
        self.resets += 1

    # ------------------------------------------------------------------
    # State shipping and lifecycle.
    # ------------------------------------------------------------------

    def idle(self) -> bool:
        return not self._claims and all(
            not c.outstanding and not c.backlog for c in self._channels
        )

    def reset(self) -> None:
        """Discard all claims and in-flight tasks (failure rollback).

        Tasks already executed by a child mutated that child's vertex
        state past the rollback point; the subsequent
        :meth:`restore_states` overwrites it with the snapshot, so the
        results are simply drained and dropped.
        """
        for channel in self._channels:
            channel.backlog.clear()
            while channel.outstanding:
                channel.conn.recv()
                channel.outstanding.popleft()
        self._claims.clear()
        self.resets += 1

    def checkpoint_states(self) -> Dict[Tuple[int, int], Any]:
        """Pull the authoritative state of every pool-resident vertex.

        Caller (the checkpoint barrier) guarantees quiescence, so no
        task is in flight and the children answer immediately.
        """
        assert self.idle(), "checkpoint_states() requires a drained pool"
        for channel in self._channels:
            channel.conn.send(("checkpoint",))
        states: Dict[Tuple[int, int], Any] = {}
        for channel in self._channels:
            states.update(channel.conn.recv())
        return states

    def restore_states(self, vertex_states: Dict[Tuple[int, int], Any]) -> None:
        """Push snapshot state back into the owning children."""
        assert self.idle(), "restore_states() requires a drained pool"
        shares: List[Dict[Tuple[int, int], Any]] = [{} for _ in range(self.size)]
        for (stage_index, worker_index), state in vertex_states.items():
            if stage_index in self.offload_stages:
                shares[worker_index % self.size][(stage_index, worker_index)] = state
        for channel, share in zip(self._channels, shares):
            channel.conn.send(("restore", share))
        for channel in self._channels:
            channel.conn.recv()

    def close(self) -> None:
        self._finalizer()

    def __repr__(self) -> str:
        return "VertexPool(size=%d, offload_stages=%d, tasks=%d)" % (
            self.size,
            len(self.offload_stages),
            self.tasks_offloaded,
        )
