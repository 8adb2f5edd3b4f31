"""Marker-based asynchronous incremental checkpoints and partial
rollback for the simulated cluster: every periodic or rescale cut under
``FaultTolerance(mode="checkpoint")`` or ``mode="logging"``.

The paper's barrier cycle stops the world: input release pauses, the
cluster drains to quiescence, every vertex serializes, the write stalls
every worker (it survives as the comparison baseline
:class:`repro.baselines.BarrierCheckpoints`).  This module takes the
consistent cut with a Chandy-Lamport-style protocol in the spirit of
distributed GraphLab's asynchronous snapshots — the dataflow never
pauses:

**Markers and message colors.**  A *cycle* begins when the coordinator
sends one marker (a small control message) to every worker over the
normal network.  Every data message carries its sender's cut counter as
a *tag* (the Lai-Yang color): a message is *pre-cut* for cycle ``c``
when its tag is ``< c``.  A worker cuts — records its part of the
snapshot — on the first marker it sees, or earlier, on the first
*post-cut* message that reaches it (delivery channels are FIFO, so once
a post-cut message arrives nothing pre-cut can follow on that channel;
cutting first keeps the post-cut message out of the cut).

**What a worker's cut records.**  Its vertices' states (incrementally:
only vertices dirtied since the last cycle re-serialize, the rest reuse
the previous cycle's bytes), its pending notification/cleanup tables,
and the pre-cut messages sitting in its queue.  The only pause the
protocol ever charges is the in-memory state copy
(``state_bytes_per_worker`` scaled by the fresh fraction, over
``snapshot_copy_bandwidth``); the durable disk write happens in the
background and gates only when the cut becomes the rollback target.

**Channel state.**  A pre-cut message delivered to an already-cut
worker crossed the cut in flight; it joins that worker's channel share,
after the messages its queue held at the cut.  The cycle completes when
every live worker has cut and no pre-cut message remains in flight
(tracked exactly via an in-flight ledger); the coordinator then
assembles vertices + pending tables + channel messages and
*reconstructs* the occurrence counts from them — no progress-protocol
flush is needed, because the reconstruction counts exactly the work the
restored cluster will hold.

**Why this is a consistent cut.**  See DESIGN.md ("Asynchronous
checkpoints") for the full argument; in one line: every event is either
before the cut at its worker (its effect is in a snapshotted state),
in the cut (a captured queue entry or channel-logged message), or
after it (regenerated by journal replay) — FIFO channels plus the
cut-on-first-post-cut-message rule make the classification exhaustive
and exclusive.

**Partial rollback.**  Because the per-delivery journal records every
message a worker received since the durable cut, a process failure no
longer rewinds the cluster: only the lost process's ``(stage, worker)``
states are restored, its share of the cut's channel messages and its
journal suffix are re-injected, and a *frontier fence* — occurrence
compensations applied directly to every progress view — holds the
frontier behind the replay while the survivors keep running.
Duplicate sends regenerated by the replay toward survivors are
suppressed record-by-record (:meth:`AsyncCheckpointManager
.filter_replayed`), keeping internal deliveries exactly-once.
"""

from __future__ import annotations

from time import perf_counter
from typing import Any, Callable, Dict, List, Optional, Tuple

from ..core.graph import Stage, StageKind
from ..core.progress import Pointstamp
from ..core.timestamp import Timestamp
from ..obs.trace import TraceEvent
from .protocol import net_updates
from .synthetic import batch_bytes

#: Wire size of one cut marker (a tiny control message).
MARKER_BYTES = 32


class AsyncCheckpointManager:
    """Coordinates asynchronous snapshot cycles and partial rollback.

    One instance per :class:`ClusterComputation`, created at build time
    unless ``FaultTolerance.mode == "none"``.  The cluster's hot paths call
    in via four hooks: :meth:`on_delivery` (every enqueue),
    :meth:`register_inflight` (every network send), the dirty-bit adds
    in ``_Worker._ran``, and the deferred-cut checks at step/commit
    boundaries.
    """

    def __init__(self, cluster) -> None:
        self.cluster = cluster
        #: Monotone cycle counter (cycle 0 is the built initial state).
        self.cycle = 0
        #: True while a cycle's cut is being collected.
        self.active = False
        self.cycle_started = 0.0
        #: Bumped by every rollback; cancels stale markers and stale
        #: background durable-commit events.
        self.generation = 0
        self._next_key = 0
        #: Journal-position / epoch metadata captured at cycle start.
        self.cut_meta: Dict[str, Any] = {}
        #: worker -> (pending, cleanups, its share of the cut's channel:
        #: the pre-cut messages queued at its cut, then the ones that
        #: crossed the cut after it, as delivery records).
        self.staged: Dict[int, Tuple[Dict, Dict, List[Tuple]]] = {}
        self.completed_cycle = 0
        self.durable_cycle = 0
        #: Pre-cut messages still in flight for the active cycle.
        self._precut_inflight = 0
        #: Every message currently in flight (or scheduled for delivery),
        #: key -> its *delivery record*
        #: ``(dst, connector, records, timestamp, remote_bytes, src, tag)``
        #: (``src`` is -1 for the input controller).  The delivery
        #: journal, the snapshot's ``"channel"`` (whose records carry tag
        #: 0) and re-injection (:meth:`_reinject`) use the same layout.
        self.inflight: Dict[int, Tuple] = {}
        #: Delivery journal since the durable cut, in delivery order.
        self.journal: List[Tuple] = []
        #: (src, dst, connector) -> {(timestamp, repr(record)): count} of
        #: deliveries the destination already received; a replaying
        #: sender's duplicates are suppressed against this ledger.
        self.replay_dedup: Dict[Tuple, Dict[Tuple, int]] = {}
        #: In-flight keys whose copy must be discarded at delivery: sent
        #: by a rolled-back worker whose replay sends the records again.
        self.cancelled: set = set()
        #: (stage_index, worker) keys whose state changed since their
        #: last serialization (the incremental-checkpoint dirty bits).
        self.dirty: set = set()
        #: (stage_index, worker) -> last serialized state (the reuse
        #: cache incremental snapshots draw from).
        self._last_states: Dict[Tuple[int, int], Any] = dict(
            cluster.recovery.initial["vertices"]
        )
        #: Injections of already-snapshotted channel messages must not
        #: re-enter the journal (a later rollback re-injects them from
        #: the same snapshot).
        self._journal_deliveries = True
        self._cycle_fresh = 0
        self._cycle_reused = 0
        self._cycle_max_stall = 0.0
        #: process -> fresh bytes this cycle (background write sizing).
        self._cycle_write_bytes: Dict[int, int] = {}
        self._stage_indices = [
            stage.index
            for stage in cluster.graph.stages
            if stage.kind is not StageKind.INPUT
        ]
        self._stage_by_index = {
            stage.index: stage for stage in cluster.graph.stages
        }
        #: Waiters for a fresh durable cut (see :meth:`after_cut`).
        self.moves: List[Callable[[], Any]] = []
        #: The cycle whose durable cut the first waiter waits for; None
        #: while it waits for a replay to drain.
        self._move_cycle: Optional[int] = None

    # ------------------------------------------------------------------
    # Cycle lifecycle.
    # ------------------------------------------------------------------

    def request_cycle(self) -> None:
        """The checkpoint trigger (periodic, or a waiter's fresh cut):
        start a cycle unless one is already collecting."""
        if self.active:
            return
        cluster = self.cluster
        recovery = cluster.recovery
        now = cluster.sim.now
        self.cycle += 1
        self.active = True
        self.cycle_started = now
        # The input frontier of the cut: per input stage, the next epoch
        # the release pump will emit, derived from the *released* journal
        # prefix.  (The handle's next_epoch counts producer injections,
        # which run ahead of releases — using it would disagree with
        # journal_released and corrupt the reconstructed occurrence.)
        input_progress: Dict[int, Optional[int]] = {
            h.stage.index: 0 for h in cluster.inputs
        }
        for entry in recovery.journal[: recovery.released]:
            if entry[0] == "epoch":
                input_progress[entry[1].index] = entry[2] + 1
            else:
                input_progress[entry[1].index] = None  # closed
        self.cut_meta = {
            "time": now,
            "journal_released": recovery.released,
            "epochs_released": recovery.epochs_released,
            "epochs": [(h.next_epoch, h.closed) for h in cluster.inputs],
            "input_progress": input_progress,
            "worker_process": list(cluster._worker_process),
        }
        self.staged = {}
        self._cycle_fresh = 0
        self._cycle_reused = 0
        self._cycle_max_stall = 0.0
        self._cycle_write_bytes = {}
        cycle = self.cycle
        self._precut_inflight = sum(
            1 for entry in self.inflight.values() if entry[6] < cycle
        )
        generation = self.generation
        network = cluster.network
        for worker in cluster.workers:
            if worker.dead:
                continue
            network.send(
                0,
                worker.process,
                MARKER_BYTES,
                "marker",
                self.on_marker,
                worker.index,
                cycle,
                generation,
            )
        self._maybe_complete()

    def on_marker(self, worker_index: int, cycle: int, generation: int) -> None:
        if (
            generation != self.generation
            or not self.active
            or cycle != self.cycle
        ):
            return  # a rollback abandoned this cycle while we flew
        self._mark(self.cluster.workers[worker_index])
        self._maybe_complete()

    def _mark(self, worker) -> None:
        """Cut ``worker`` now, or defer if it is mid-callback: a _step
        whose _commit has not run would split a consumed-but-uncommitted
        unit of work across the cut.
        """
        if worker.dead or worker.cut >= self.cycle:
            return
        if worker._commit_pending:
            worker._cut_deferred = True
            return
        self.snapshot_worker(worker)

    def try_deferred_cut(self, worker) -> None:
        """Take an owed cut at a step or commit boundary if nothing
        blocks it."""
        if not self.active or worker.cut >= self.cycle:
            worker._cut_deferred = False
            return
        if worker._commit_pending:
            return
        self.snapshot_worker(worker)
        self._maybe_complete()

    def snapshot_worker(self, worker) -> None:
        """Record one worker's part of the cut: vertex states (fresh
        ones re-serialized, clean ones reused), pending tables, and the
        pre-cut messages in its queue.  Charges only the memory-copy
        stall for the fresh fraction."""
        cluster = self.cluster
        now = cluster.sim.now
        cycle = self.cycle
        worker.cut = cycle
        worker._cut_deferred = False
        index = worker.index
        fresh_keys = []
        total = 0
        for stage_index in self._stage_indices:
            key = (stage_index, index)
            total += 1
            if key in self.dirty or key not in self._last_states:
                fresh_keys.append(key)
        by_index = self._stage_by_index
        for key in fresh_keys:
            self._last_states[key] = cluster.vertices[
                (by_index[key[0]], index)
            ].checkpoint()
            self.dirty.discard(key)
        ft = cluster.fault_tolerance
        n_fresh = len(fresh_keys)
        stall = 0.0
        if n_fresh:
            fresh_bytes = ft.state_bytes_per_worker * n_fresh / float(total or 1)
            stall = fresh_bytes / ft.snapshot_copy_bandwidth
            worker.busy_until = max(worker.busy_until, now) + stall
            self._cycle_write_bytes[worker.process] = self._cycle_write_bytes.get(
                worker.process, 0
            ) + int(fresh_bytes)
        self._cycle_fresh += n_fresh
        self._cycle_reused += total - n_fresh
        if stall > self._cycle_max_stall:
            self._cycle_max_stall = stall
        channel = [
            (index, entry[0], list(entry[1]), entry[2], entry[3], -1, 0)
            for entry in worker.queue
            if entry[4] < cycle
        ]
        self.staged[index] = (
            dict(worker.pending_notifications),
            dict(worker.pending_cleanups),
            channel,
        )
        trace = cluster._trace
        if trace is not None:
            trace.emit(
                TraceEvent(
                    "snapshot",
                    now,
                    stall,
                    perf_counter(),
                    index,
                    worker.process,
                    "",
                    (),
                    (cycle, n_fresh, total),
                )
            )

    # ------------------------------------------------------------------
    # Delivery-path hooks.
    # ------------------------------------------------------------------

    def register_inflight(
        self, dst, connector, records, timestamp, remote_bytes, src, tag
    ) -> int:
        """Ledger a message leaving a sender (network send or scheduled
        input delivery); returns the key the delivery hook settles."""
        self._next_key += 1
        key = self._next_key
        self.inflight[key] = (dst, connector, records, timestamp, remote_bytes, src, tag)
        if self.active and tag < self.cycle:
            self._precut_inflight += 1
        return key

    def on_delivery(
        self, worker, connector, records, timestamp, remote_bytes, src, tag, key
    ) -> None:
        """Called by ``_Worker.enqueue_message`` before queueing."""
        check = False
        if key is not None:
            entry = self.inflight.pop(key, None)
            if entry is not None and self.active and entry[6] < self.cycle:
                self._precut_inflight -= 1
                check = True
        if self._journal_deliveries:
            self.journal.append(
                (worker.index, connector, records, timestamp, remote_bytes, src, tag)
            )
        if self.active and not worker.dead:
            cycle = self.cycle
            if worker.cut < cycle:
                if tag >= cycle:
                    # Post-cut message at an uncut worker: FIFO order
                    # guarantees no further pre-cut arrivals on this
                    # channel — cut the worker before the message lands
                    # so the cut excludes it.
                    self._mark(worker)
                    if worker.cut >= cycle:
                        check = True
            elif tag < cycle:
                # Pre-cut message crossing the cut: channel state.
                record = (worker.index, connector, list(records), timestamp)
                self.staged[worker.index][2].append(record + (remote_bytes, src, 0))
        if check:
            self._maybe_complete()

    # ------------------------------------------------------------------
    # Assembly and durability.
    # ------------------------------------------------------------------

    def _maybe_complete(self) -> None:
        if not self.active or self._precut_inflight:
            return
        cycle = self.cycle
        for worker in self.cluster.workers:
            if worker.dead:
                # A silently-crashed worker frozen in place (recovery
                # has not replaced it yet): its post-cut work is in the
                # survivors' cuts but its own state is stale — the cycle
                # cannot assemble a consistent cut until the supervisor
                # recovers it (recovery abandons the cycle anyway).
                return
            if worker.cut < cycle:
                return
        self._assemble()

    def _assemble(self) -> None:
        """Every worker cut and no pre-cut message in flight: merge the
        per-worker cuts into one snapshot, schedule the background
        durable write, and close the cycle."""
        cluster = self.cluster
        now = cluster.sim.now
        cycle = self.cycle
        vertices = dict(self._last_states)
        pending: Dict[int, Dict] = {}
        cleanups: Dict[int, Dict] = {}
        for index, (pend, clean, _) in self.staged.items():
            if pend:
                pending[index] = dict(pend)
            if clean:
                cleanups[index] = dict(clean)
        # Worker by worker, queue captures before crossing messages: the
        # FIFO order a restore re-injects them in.
        channel: List[Tuple] = []
        for index in sorted(self.staged):
            channel.extend(self.staged[index][2])
        occurrence: Dict[Pointstamp, int] = {}
        for entry in channel:
            pointstamp = Pointstamp(entry[3], entry[1])
            occurrence[pointstamp] = occurrence.get(pointstamp, 0) + 1
        for index, pend in pending.items():
            for pointstamp, count in pend.items():
                occurrence[pointstamp] = occurrence.get(pointstamp, 0) + count
        for handle in cluster.inputs:
            next_epoch = self.cut_meta["input_progress"][handle.stage.index]
            if next_epoch is not None:  # None: close released before the cut
                pointstamp = Pointstamp(Timestamp(next_epoch), handle.stage)
                occurrence[pointstamp] = occurrence.get(pointstamp, 0) + 1
        occurrence = {p: c for p, c in occurrence.items() if c}
        snapshot = {
            "time": self.cut_meta["time"],
            "vertices": vertices,
            "pending": pending,
            "cleanups": cleanups,
            "occurrence": occurrence,
            "journal_released": self.cut_meta["journal_released"],
            "epochs_released": self.cut_meta["epochs_released"],
            "epochs": list(self.cut_meta["epochs"]),
            "worker_process": list(self.cut_meta["worker_process"]),
            "channel": channel,
            "cycle": cycle,
        }
        ft = cluster.fault_tolerance
        write_delay = 0.0
        if self._cycle_write_bytes:
            write_delay = max(self._cycle_write_bytes.values()) / ft.disk_bandwidth
        cluster.sim.schedule_at(
            now + write_delay,
            self._commit_durable,
            snapshot,
            write_delay,
            self.generation,
        )
        trace = cluster._trace
        if trace is not None:
            trace.emit(
                TraceEvent(
                    "snapshot",
                    self.cycle_started,
                    now - self.cycle_started,
                    perf_counter(),
                    -1,
                    -1,
                    "",
                    (),
                    (
                        cycle,
                        self._cycle_fresh,
                        self._cycle_reused,
                        len(channel),
                        self._cycle_max_stall,
                        write_delay,
                    ),
                )
            )
        self.completed_cycle = cycle
        self.active = False
        self.staged = {}
        self._cycle_write_bytes = {}

    def _commit_durable(self, snapshot, write_delay, generation) -> None:
        """The background disk write finished: the cut becomes the
        rollback target and the journal prefix it covers is pruned."""
        if generation != self.generation:
            return  # a rollback invalidated this cut before it hit disk
        self.cluster.recovery.install(snapshot, 0.0, 0.0, write_delay)
        cycle = snapshot["cycle"]
        # Deliveries at or past the cut stay (partial rollback replays
        # them); everything pre-cut is covered by states + channel.
        self.journal = [entry for entry in self.journal if entry[6] >= cycle]
        self.durable_cycle = cycle
        if self._move_cycle is not None and cycle >= self._move_cycle:
            self._wake_moves()

    def abandon_cycle(self) -> None:
        """A rollback arrived mid-cut: drop the partial cycle, and any
        assembled cut still on its way to disk."""
        self.generation += 1
        self.active = False
        self.staged = {}
        self._cycle_write_bytes = {}
        for worker in self.cluster.workers:
            worker._cut_deferred = False
        if self._move_cycle is not None and self.durable_cycle < self._move_cycle:
            self._move_cycle = None  # that cut never turns durable: start over
        self._wake_moves()

    # ------------------------------------------------------------------
    # Waiters: a migration or an explicit checkpoint, behind a fresh cut.
    # ------------------------------------------------------------------

    def after_cut(self, then: Callable[[], Any]) -> None:
        """Queue the continuation ``then`` (a planned move's
        :meth:`RecoveryManager.move`, or an explicit checkpoint's read of
        the snapshot); it runs once no replay is draining and a cut begun
        after that is durable, one waiter at a time in arrival order.

        Migrating mid-replay could not tell replayed duplicates from
        migrated re-sends, and the fresh cut makes the moving workers'
        state and exactly-once ledger entries current.
        """
        self.moves.append(then)
        if len(self.moves) == 1:
            self._run_moves()

    def _run_moves(self) -> None:
        """Take the queued waiters as far as they can go now; re-run when
        the last replay ledger drains, the first waiter's cut turns
        durable, or a rollback abandons it."""
        while self.moves:
            if self.replay_dedup:
                self._move_cycle = None  # the cut must follow the replay
                return
            if self._move_cycle is None:
                self.request_cycle()
                self._move_cycle = self.cycle
            if self.durable_cycle < self._move_cycle:
                return
            self._move_cycle = None
            self.moves.pop(0)()

    def _wake_moves(self) -> None:
        """Re-run :meth:`_run_moves` at the current time, after the
        events already due: never inside the callback or rollback that
        woke it."""
        if self.moves:
            self.cluster.sim.schedule_at(self.cluster.sim.now, self._run_moves)

    # ------------------------------------------------------------------
    # Replay dedup (exactly-once internal deliveries under partial
    # rollback).
    # ------------------------------------------------------------------

    def _dedup_add(self, src, dst, connector, timestamp, records) -> None:
        ledger = self.replay_dedup.setdefault((src, dst, connector), {})
        for record in records:
            key = (timestamp, repr(record))
            ledger[key] = ledger.get(key, 0) + 1

    def filter_replayed(self, src, dispatches, updates) -> None:
        """Drop records a replaying sender regenerates that their
        destinations already received (called from ``_Worker._commit``).

        Suppression is record-level per (timestamp, repr), so it is
        robust to replay batching the same records differently than the
        original run.  A fully suppressed dispatch also retires the +1
        its send committed.
        """
        cluster = self.cluster
        kept_dispatches = []
        for connector, dest, batch, out_time, size in dispatches:
            ledger = self.replay_dedup.get((src, dest, connector))
            if not ledger:
                kept_dispatches.append((connector, dest, batch, out_time, size))
                continue
            kept = []
            dropped = 0
            for record in batch:
                key = (out_time, repr(record))
                count = ledger.get(key)
                if count:
                    if count == 1:
                        del ledger[key]
                    else:
                        ledger[key] = count - 1
                    dropped += 1
                else:
                    kept.append(record)
            if not ledger:
                del self.replay_dedup[(src, dest, connector)]
                if not self.replay_dedup:
                    self._wake_moves()
            if not dropped:
                kept_dispatches.append((connector, dest, batch, out_time, size))
            elif kept:
                if size > 0:
                    size = batch_bytes(kept, cluster.cost_model.record_bytes)
                    cluster.batch_bytes_calls += 1
                kept_dispatches.append((connector, dest, kept, out_time, size))
            else:
                updates.append((Pointstamp(out_time, connector), -1))
        dispatches[:] = kept_dispatches

    # ------------------------------------------------------------------
    # Partial rollback.
    # ------------------------------------------------------------------

    def partial_rollback(
        self,
        moving: List[int],
        snapshot,
        ready: float,
        placement: Dict[int, int],
        reason: str = "partial",
        flush_node: Optional[int] = None,
    ) -> int:
        """Roll back only the workers ``moving`` from ``snapshot`` while
        the survivors keep running; returns the number of re-injected
        messages.

        :meth:`RecoveryManager.move` calls it once it has decided the
        partial tier applies, for a failure and a migration alike:
        ``moving`` names the workers that restart, ``placement`` maps
        each to its host (applied before the replacement workers are
        constructed, so they come up there), ``reason`` tags the
        per-worker restore trace events (``"rescale"`` for planned
        moves), and ``flush_node`` names a node whose withheld progress
        updates must be force-flushed because it is dying or departing
        (None when every involved node survives, as in
        ``add_process``)."""
        cluster = self.cluster
        now = cluster.sim.now
        self.abandon_cycle()
        dead = list(moving)
        dead_set = set(dead)

        # ---- Occurrence compensation: every contribution the dying
        # workers hold in the views that the restored state won't.
        compensation: List[Tuple[Pointstamp, int]] = []
        for index in dead:
            worker = cluster.workers[index]
            for entry in worker.queue:
                compensation.append((Pointstamp(entry[2], entry[0]), -1))
            for pointstamp, count in worker.pending_notifications.items():
                compensation.append((pointstamp, -count))
            if worker._commit_pending and worker._pending_updates:
                # The uncommitted callback consumed work whose
                # retirements were never submitted; its produced (+)
                # effects died unsent and need no compensation — except
                # notifications: notify_at already wrote the pending
                # table (compensated above) while its +1 is still in
                # these unpublished updates, so cancel that pair.
                # Stage-located positives are exactly the notify
                # requests (dispatch +1s sit at connector locations).
                for pointstamp, delta in worker._pending_updates:
                    if delta < 0:
                        compensation.append((pointstamp, delta))
                    elif isinstance(pointstamp.location, Stage):
                        compensation.append((pointstamp, delta))

        # ---- In-flight ledger sweep.
        reinject_inflight: List[Tuple] = []
        for key, record in list(self.inflight.items()):
            dst, connector, _, timestamp, _, src, _ = record
            if dst in dead_set:
                del self.inflight[key]
                if src in dead_set:
                    # The replaying sender regenerates this send; retire
                    # the +1 the original commit published.
                    compensation.append((Pointstamp(timestamp, connector), -1))
                else:
                    # A survivor (or the input controller) sent it and
                    # will not resend: re-inject, keeping its +1.
                    reinject_inflight.append(record)
            elif src in dead_set:
                # Addressed to a survivor: the sender's replay re-sends
                # it fresh, so this copy must never land.  A kill's fence
                # discards it by generation; a migration fences nothing
                # (a donor process keeps running, a departing one leaves
                # in good standing), so cancel the copy by key instead —
                # else the survivor receives it twice and its retirement
                # drives the count negative.  Retire the original
                # commit's +1; the replayed send publishes its own.
                del self.inflight[key]
                self.cancelled.add(key)
                compensation.append((Pointstamp(timestamp, connector), -1))

        # ---- Journal split.
        inject_journal: List[Tuple] = []
        kept_journal: List[Tuple] = []
        for record in self.journal:
            dst, connector, records, timestamp, _, src, _ = record
            if dst in dead_set:
                if src not in dead_set:
                    # Survivor-sent delivery the dead worker loses;
                    # re-injecting re-journals it.
                    inject_journal.append(record)
                # else: the replayed sender regenerates it.
            else:
                kept_journal.append(record)
                if src in dead_set:
                    self._dedup_add(src, dst, connector, timestamp, records)
        self.journal = kept_journal

        # ---- The dead workers' share of the durable cut's channel.
        cut_channel = [
            record for record in snapshot.get("channel", ()) if record[0] in dead_set
        ]

        # ---- Frontier fence: +1 for every unit of work being handed
        # back to the replacements.  (Re-injected in-flight messages
        # keep the +1 their original send committed.)
        fence: List[Tuple[Pointstamp, int]] = []
        for record in cut_channel + inject_journal:
            fence.append((Pointstamp(record[3], record[1]), +1))
        for index in dead:
            for pointstamp, count in snapshot["pending"].get(index, {}).items():
                fence.append((pointstamp, count))
        # Project before netting: under scoped progress tracking the
        # views hold boundary (ScopeNode) pointstamps for interior
        # locations, and distinct interior entries must cancel at their
        # shared projection.
        merged = net_updates(cluster.plane.project(compensation + fence))
        if merged:
            cluster.plane.apply_all(merged)

        # ---- A dying or departing node's withheld progress updates are
        # committed effects its peers never saw.
        if flush_node is not None:
            cluster.plane.flush_node(flush_node)

        # ---- Placement: rehome the moving workers before the
        # replacements are constructed (a fresh _Worker reads its
        # hosting process from the cluster's placement map).
        for index, host in placement.items():
            cluster._worker_process[index] = host

        # ---- Replace only the dead workers; survivors keep running.
        if cluster.plane.summarized_scopes:
            # The dying workers' queued interior deliveries vanish;
            # their re-injections re-increment through enqueue_message.
            for index in dead:
                worker = cluster.workers[index]
                for entry in worker.queue:
                    cluster.plane.note_dequeue(entry[0], entry[2], worker.process)
        cluster._restore_workers(snapshot, dead, ready)
        for key, state in snapshot["vertices"].items():
            if key[1] in dead_set:
                self._last_states[key] = state
                self.dirty.discard(key)
        for index in dead:
            cluster.workers[index].cut = self.cycle

        # ---- Re-inject: the cut's channel messages, then the journal
        # suffix in delivery order, then the in-flight strays.
        self._reinject(cut_channel, journal=False)
        self._reinject(inject_journal + reinject_inflight)
        for index in dead:
            cluster.workers[index].activate()
        injected = len(cut_channel) + len(inject_journal) + len(reinject_inflight)
        trace = cluster._trace
        if trace is not None:
            wall = perf_counter()
            for index in dead:
                trace.emit(
                    TraceEvent(
                        "restore",
                        now,
                        max(0.0, ready - now),
                        wall,
                        index,
                        cluster.workers[index].process,
                        "",
                        (),
                        (reason, snapshot["time"], injected),
                    )
                )
        return injected

    def _reinject(self, records: List[Tuple], journal: bool = True) -> None:
        """Deliver ``records`` (delivery records) again, in order.  The
        cut's channel passes ``journal=False``: it is part of the
        snapshot already, and a later rollback re-injects it from
        there."""
        workers = self.cluster.workers
        self._journal_deliveries = journal
        try:
            for dst, connector, batch, timestamp, remote_bytes, src, tag in records:
                workers[dst].enqueue_message(
                    connector, list(batch), timestamp, remote_bytes, src, -1.0, tag
                )
        finally:
            self._journal_deliveries = True

    def note_global_restore(self, snapshot) -> None:
        """A whole-cluster rollback happened (explicit restore, or a
        failure partial recovery couldn't handle): resynchronize all
        protocol state with the restored cut and re-inject its channel."""
        self.abandon_cycle()
        self.inflight = {}
        self.cancelled = set()
        self._precut_inflight = 0
        self.journal = []
        self.replay_dedup = {}
        self._last_states = dict(snapshot["vertices"])
        self.dirty.clear()
        for worker in self.cluster.workers:
            worker.cut = self.cycle
        self._reinject(snapshot.get("channel", ()), journal=False)

    # ------------------------------------------------------------------
    # Introspection.
    # ------------------------------------------------------------------

    def describe(self) -> List[str]:
        lines = [
            "  async checkpoints: cycle=%d completed=%d durable=%d%s"
            % (
                self.cycle,
                self.completed_cycle,
                self.durable_cycle,
                " (cut in progress)" if self.active else "",
            ),
            "  async journal=%d entries inflight=%d dirty=%d cached=%d"
            % (
                len(self.journal),
                len(self.inflight),
                len(self.dirty),
                len(self._last_states),
            ),
        ]
        if self.active:
            uncut = [
                w.index
                for w in self.cluster.workers
                if not w.dead and w.cut < self.cycle
            ]
            lines.append(
                "  active cycle %d: precut_inflight=%d uncut_workers=%r"
                % (self.cycle, self._precut_inflight, uncut)
            )
        if self.moves:
            cycle = self._move_cycle
            head = "a replay drain" if cycle is None else "durable cycle %d" % cycle
            lines.append(
                "  after_cut: %d waiter(s), the first waits for %s"
                % (len(self.moves), head)
            )
        if self.replay_dedup:
            lines.append(
                "  replay dedup: %d channels, %d records pending"
                % (
                    len(self.replay_dedup),
                    sum(
                        sum(ledger.values())
                        for ledger in self.replay_dedup.values()
                    ),
                )
            )
        return lines
