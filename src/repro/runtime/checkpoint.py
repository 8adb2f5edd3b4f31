"""Checkpointing, failure injection and recovery for the simulated
cluster (paper section 3.4).

Naiad's fault-tolerance cycle is: pause worker threads, flush message
queues and progress-protocol buffers so every process agrees on the
occurrence counts, ask each stateful vertex for a checkpoint, log the
state durably, then resume.  Recovery after a process failure rolls
*every* process back to the last durable checkpoint, reassigns the
failed process's vertices to the remaining machines (or to a restarted
process), rebuilds progress-tracking state on all peers, and replays
the logged inputs.

:class:`RecoveryManager` implements that cycle on the discrete-event
cluster of :mod:`repro.runtime.cluster`:

**Input journal.**  Every epoch the external producer supplies (and
every input close) is journaled before release.  The journal is the
replay log: after a rollback, re-executing the journal suffix past the
checkpoint regenerates exactly the lost computation, because vertex
execution is deterministic for a fixed graph and input.  In ``logging``
mode the runtime additionally pays the continual cost of journaling
every cross-process message batch (charged in ``_Worker._step``); the
manager accounts those bytes so recovery pays a log-read cost instead
of recomputing from the most recent full checkpoint only.

**Checkpoint barrier.**  A trigger (every ``checkpoint_every`` released
epochs, or an explicit :meth:`ClusterComputation.checkpoint` call)
pauses the release of further input and waits for the cluster to reach
quiescence: no message in flight on the network, no worker with queued
messages or an uncommitted callback.  Reaching quiescence is detected
by a probe event that re-arms itself at the simulator's next event time
— the virtual-time analogue of the paper's "wait for all workers to
pause".  At the barrier the withheld updates in every protocol
accumulator are flushed synchronously (legal precisely because nothing
is in flight), after which all process views agree and the global state
is a consistent cut: vertices, pending notifications and one shared set
of occurrence counts.

**Failure.**  :meth:`ClusterComputation.kill_process` injects a failure
at a virtual time.  The network tears down in-flight traffic, all
workers are discarded (global rollback — survivors' state past the
checkpoint is invalidated by the lost process's messages), vertices are
restored from the latest durable snapshot, progress views are rebuilt
from the checkpointed occurrence counts, and the journal suffix
replays.  Outputs already released to external subscribers are
remembered and suppressed during replay, so a recovered run releases
each (sink, timestamp) batch exactly once.
"""

from __future__ import annotations

from time import perf_counter
from typing import Any, Dict, List, Optional, Set, Tuple

from ..obs.trace import TraceEvent

#: Recovery placement policies.
RECOVERY_POLICIES = ("restart", "reassign")


class RecoveryManager:
    """Orchestrates checkpoints, failure handling and replay.

    One manager exists per :class:`ClusterComputation`; it owns the
    input journal, the latest durable snapshot, the exactly-once output
    ledger and all failure bookkeeping.  The cluster delegates its
    public ``checkpoint()``/``restore()``/``kill_process()`` API here.
    """

    def __init__(self, cluster) -> None:
        self.cluster = cluster
        #: Ordered input journal: ("epoch", stage, epoch, records) and
        #: ("close", stage, next_epoch) entries, in arrival order.
        self.journal: List[Tuple] = []
        #: Journal prefix already released into the dataflow.
        self.released = 0
        #: Data epochs released so far (the checkpoint trigger counter).
        self.epochs_released = 0
        #: True while a checkpoint barrier is draining the cluster; new
        #: journal entries are deferred until the snapshot completes.
        self.paused = False
        #: Bumped by every failure/rollback; cancels stale probe events.
        self._generation = 0
        #: Latest durable checkpoint (None until one is taken).
        self.snapshot: Optional[Dict[str, Any]] = None
        #: Snapshot of the freshly built cluster; the rollback target
        #: when no checkpoint has been taken yet (mode "none" recovers
        #: by replaying the whole journal from here).
        self.initial: Optional[Dict[str, Any]] = None
        self.checkpoint_count = 0
        self.last_checkpoint_time: Optional[float] = None
        #: Continual-logging accounting ("logging" mode).
        self.logged_bytes = 0
        self.logged_batches = 0
        self._logged_at_snapshot = 0
        #: Processes currently without live workers ("reassign" policy).
        self.dead_processes: Set[int] = set()
        #: One record per injected failure (see :meth:`fail_process`).
        self.failures: List[Dict[str, Any]] = []
        #: (stage_index, worker, timestamp) batches already delivered to
        #: external subscribers; replay skips them (exactly-once).
        self._released_outputs: Set[Tuple[int, int, Any]] = set()
        #: Virtual time the active barrier started draining (None when
        #: no barrier is active); the drain span lands in the trace.
        self._barrier_begin: Optional[float] = None

    # ------------------------------------------------------------------
    # Input journal and release pump.
    # ------------------------------------------------------------------

    def journal_epoch(self, stage, records: List[Any], epoch: int) -> None:
        self.journal.append(("epoch", stage, epoch, records))
        self.pump()

    def journal_close(self, stage, next_epoch: int) -> None:
        self.journal.append(("close", stage, next_epoch))
        self.pump()

    def pump(self) -> None:
        """Release journal entries into the dataflow until paused.

        Doubles as the replay loop: after a rollback ``released`` points
        back into the journal and pumping re-executes the suffix.
        """
        cluster = self.cluster
        ft = cluster.fault_tolerance
        while not self.paused and self.released < len(self.journal):
            entry = self.journal[self.released]
            self.released += 1
            if entry[0] == "epoch":
                _, stage, epoch, records = entry
                cluster._release_epoch(stage, records, epoch)
                self.epochs_released += 1
                if (
                    ft.mode in ("checkpoint", "logging")
                    and ft.checkpoint_every > 0
                    and self.epochs_released % ft.checkpoint_every == 0
                ):
                    if cluster.async_ckpt is not None:
                        # Asynchronous mode: start a marker cycle; input
                        # release never pauses.
                        cluster.async_ckpt.request_cycle()
                    else:
                        self.begin_checkpoint()
            else:
                _, stage, next_epoch = entry
                cluster._release_close(stage, next_epoch)

    # ------------------------------------------------------------------
    # The checkpoint barrier.
    # ------------------------------------------------------------------

    def begin_checkpoint(self) -> None:
        """Pause input release and start draining toward quiescence."""
        if self.paused:
            return
        self.paused = True
        self._barrier_begin = self.cluster.sim.now
        self._schedule_probe()

    def _schedule_probe(self, at: Optional[float] = None) -> None:
        sim = self.cluster.sim
        generation = self._generation
        time = sim.now if at is None else max(at, sim.now)
        sim.schedule_at(time, lambda: self._probe(generation))

    def _probe(self, generation: int) -> None:
        if generation != self._generation or not self.paused:
            return  # a failure rolled the cluster back; cycle abandoned
        if not self.quiescent():
            self._rearm_probe()
            return
        # Nothing in flight: flush the withheld protocol updates so all
        # views agree, then re-arm if the flush unblocked more work.
        self.cluster.plane.flush_all()
        for worker in self.cluster.workers:
            worker.activate()
        if not self.quiescent():
            self._rearm_probe()
            return
        self.complete_checkpoint()

    def _rearm_probe(self) -> None:
        next_time = self.cluster.sim.next_event_time
        if next_time is None:
            raise RuntimeError(
                "checkpoint barrier cannot reach quiescence; cluster state:\n"
                + str(self.cluster.debug_state())
            )
        self._schedule_probe(at=next_time)

    def quiescent(self) -> bool:
        """No message in flight, no worker with undelivered work.

        Detector heartbeats are excluded: they flow as long as the
        computation does, and a barrier that waited for them would
        never fire."""
        cluster = self.cluster
        if cluster.network.data_in_flight:
            return False
        for worker in cluster.workers:
            if worker.queue or worker._scheduled or worker._commit_pending:
                return False
        return True

    def complete_checkpoint(self) -> Dict[str, Any]:
        """Snapshot the quiescent cluster, charge the write, resume."""
        cluster = self.cluster
        now = cluster.sim.now
        self.snapshot = self.take_snapshot()
        self.checkpoint_count += 1
        self.last_checkpoint_time = now
        self._logged_at_snapshot = self.logged_bytes
        self._prune_released_outputs(self.snapshot)
        duration = self._write_duration()
        if duration > 0:
            resume = now + duration
            for worker in cluster.workers:
                worker.busy_until = max(worker.busy_until, resume)
            # The computation is not done until the checkpoint is
            # durable; advance the clock to the write's completion even
            # if no further work exists.
            cluster.sim.schedule_at(resume, lambda: None)
        drain = now - self._barrier_begin if self._barrier_begin is not None else 0.0
        self._barrier_begin = None
        trace = cluster._trace
        if trace is not None:
            trace.emit(
                TraceEvent(
                    "checkpoint",
                    now,
                    duration,
                    perf_counter(),
                    -1,
                    -1,
                    "",
                    (),
                    (self.checkpoint_count, self.released, drain, duration),
                )
            )
        self.paused = False
        self.pump()
        return self.snapshot

    def _write_duration(self) -> float:
        """Checkpoint write time: processes write their workers' state
        to local disk in parallel, so the slowest (most loaded) process
        gates the pause."""
        ft = self.cluster.fault_tolerance
        hosted: Dict[int, int] = {}
        for worker in self.cluster.workers:
            hosted[worker.process] = hosted.get(worker.process, 0) + 1
        most = max(hosted.values()) if hosted else 0
        return ft.state_bytes_per_worker * most / ft.disk_bandwidth

    def take_snapshot(self) -> Dict[str, Any]:
        """Capture the consistent cut.  Caller ensures quiescence."""
        cluster = self.cluster
        # Agreement is asserted over the *live* membership: processes
        # that left via remove_process() stop receiving broadcasts and
        # their views go stale by design; mirror views alias process
        # 0's object and are deduplicated.
        views = cluster.plane.agreeing_views(live_only=True)
        occurrence = views[0].snapshot()
        for view in views[1:]:
            if view.state.occurrence != occurrence:
                raise RuntimeError(
                    "progress views disagree at a checkpoint barrier; "
                    "the protocol flush is incomplete:\n"
                    + str(cluster.debug_state())
                )
        return {
            "time": cluster.sim.now,
            # Under the mp backend this pulls pool-resident state over
            # the pipes — the barrier has already drained the pool.
            "vertices": cluster.checkpoint_vertex_states(),
            "pending": {
                w.index: dict(w.pending_notifications) for w in cluster.workers
            },
            "cleanups": {
                w.index: dict(w.pending_cleanups) for w in cluster.workers
            },
            "occurrence": occurrence,
            "journal_released": self.released,
            "epochs_released": self.epochs_released,
            "epochs": [(h.next_epoch, h.closed) for h in cluster.inputs],
            "worker_process": list(cluster._worker_process),
        }

    def _prune_released_outputs(self, snapshot: Dict[str, Any]) -> None:
        """Drop exactly-once ledger entries no replay can ever reach.

        A restore re-delivers the inputs journaled at or after the
        snapshot plus whatever the snapshot itself still holds (an
        asynchronous cut carries in-flight channel messages and pending
        notifications below the input frontier).  Timestamps can only
        move forward in epoch, so sink timestamps below *every* positive
        occurrence entry in the snapshot are final and their dedup
        entries can be freed.  (At a quiescent barrier only the input
        frontier is outstanding, so this reduces to the input floor.)
        """
        floors = [
            pointstamp.timestamp.epoch
            for pointstamp, count in snapshot["occurrence"].items()
            if count > 0
        ]
        floor = min(floors) if floors else None
        if floor is None:
            # Every input closed and fully released: nothing replays.
            self._released_outputs.clear()
            return
        self._released_outputs = {
            key for key in self._released_outputs if key[2].epoch >= floor
        }

    # ------------------------------------------------------------------
    # Exactly-once output release.
    # ------------------------------------------------------------------

    def note_release(self, stage_index: int, worker: int, timestamp) -> bool:
        """Record an external output release; False if already released
        (a replayed duplicate that must be suppressed)."""
        key = (stage_index, worker, timestamp)
        if key in self._released_outputs:
            return False
        self._released_outputs.add(key)
        return True

    def note_logged(self, nbytes: int) -> None:
        """Account one message batch written to the continual log."""
        self.logged_bytes += nbytes
        self.logged_batches += 1

    # ------------------------------------------------------------------
    # Failure and rollback.
    # ------------------------------------------------------------------

    def _restore_set_empty(self, process: int, snapshot: Dict[str, Any]) -> bool:
        """True when killing ``process`` loses nothing: its workers are
        idle with no queued/claimed/in-flight work addressed to them and
        every hosted vertex state equals the rollback snapshot's.  Then
        a restart needs no rollback at all (satellite: skip the barrier
        when the restore set is empty)."""
        cluster = self.cluster
        if cluster.network.data_in_flight:
            return False
        if cluster.plane.withholding(process):
            return False
        if any(w.dead for w in cluster.workers if w.process == process):
            # A silent crash froze the hosted workers where they stood:
            # their queues and claims are lost, not idle — never skip.
            return False
        dead = [
            w for w in cluster.workers if w.process == process and not w.dead
        ]
        pool = cluster.pool
        for worker in dead:
            if (
                worker.queue
                or worker.pending_notifications
                or worker.pending_cleanups
                or worker._commit_pending
            ):
                return False
            if pool is not None and pool.claim_has_work(worker.index):
                return False
        ac = cluster.async_ckpt
        dead_indices = {w.index for w in dead}
        if ac is not None:
            for entry in ac.inflight.values():
                if entry[1] in dead_indices:
                    return False
        from ..core.graph import StageKind

        stages = [
            stage
            for stage in cluster.graph.stages
            if stage.kind is not StageKind.INPUT
        ]
        pulled: Dict[Tuple[int, int], Any] = {}
        if pool is not None:
            for index in dead_indices:
                pulled.update(
                    pool.pull_worker_states(index, [s.index for s in stages])
                )
        try:
            for stage in stages:
                for index in dead_indices:
                    key = (stage.index, index)
                    state = pulled.get(key)
                    if state is None:
                        state = cluster.vertices[(stage, index)].checkpoint()
                    if state != snapshot["vertices"].get(key):
                        return False
        except Exception:
            return False  # states not comparable -> be conservative
        return True

    def fail_process(
        self,
        process: int,
        policy: Optional[str] = None,
        restart_delay: Optional[float] = None,
    ) -> None:
        """Kill a process now: lose its workers, recover.

        Recovery escalates through three tiers: **skip** (the restore
        set is empty — nothing was lost, the process just restarts in
        place), **partial** (async mode: restore only the lost workers
        from the durable cut and replay their journal suffix while
        survivors keep running behind a frontier fence), **global** (the
        paper's whole-cluster rollback).  Placement of the dead
        process's workers follows ``FaultTolerance.recovery``:
        ``"restart"`` brings the process back after ``restart_delay``
        (same worker placement); ``"reassign"`` spreads its workers
        round-robin over the survivors (the dead process stays dead, as
        under Naiad's vertex-reassignment recovery).

        ``policy`` / ``restart_delay`` override the configured placement
        and delay for this one failure (the supervisor's quarantine and
        exponential-backoff paths); both default to the
        :class:`FaultTolerance` settings.

        The failed incarnation is *fenced* first: its generation number
        advances and its outstanding progress copies settle, so any
        traffic it still has in flight — or keeps emitting, if it was
        falsely suspected — is provably stale and discarded.  The
        oracle path (:meth:`ClusterComputation.kill_process`) and the
        supervisor's detection path share this fence, which is what
        keeps their outputs bit-identical.
        """
        cluster = self.cluster
        if process in self.dead_processes:
            return  # already dead; nothing new to lose
        if process in cluster._removed_processes:
            return  # already left the cluster; it hosts nothing
        if policy is not None and policy not in RECOVERY_POLICIES:
            raise ValueError(
                "fail_process() policy must be one of %r (got %r)"
                % (RECOVERY_POLICIES, policy)
            )
        if restart_delay is not None and restart_delay < 0:
            raise ValueError(
                "fail_process() restart_delay must be >= 0 (got %r)"
                % (restart_delay,)
            )
        cluster._fence_process(process)
        now = cluster.sim.now
        ft = cluster.fault_tolerance
        snapshot = self.snapshot or self.initial
        if policy is None:
            policy = ft.recovery
        delay = ft.restart_delay if restart_delay is None else restart_delay
        survivors = [
            p
            for p in cluster.live_processes
            if p != process and p not in self.dead_processes
        ]
        trace = cluster._trace
        if policy == "restart" and self._restore_set_empty(process, snapshot):
            # Nothing to restore: the process restarts in place with its
            # state intact; no rollback barrier, no replay, survivors
            # untouched.  (Only sound under "restart" — "reassign" must
            # still migrate the workers off the dead process.)
            ready = now + delay
            for worker in cluster.workers:
                if worker.process == process:
                    worker.busy_until = max(worker.busy_until, ready)
            if trace is not None:
                trace.emit(
                    TraceEvent(
                        "failure",
                        now,
                        ready - now,
                        perf_counter(),
                        -1,
                        process,
                        "",
                        (),
                        (policy, 0, "skip"),
                    )
                )
            self.failures.append(
                {
                    "at": now,
                    "process": process,
                    "policy": policy,
                    "mode": "skip",
                    "ready": ready,
                    "restored_from": snapshot["time"],
                    "replayed_entries": 0,
                }
            )
            self._notify_sessions()
            return
        ac = cluster.async_ckpt
        if ac is not None and survivors and not ac.replay_dedup:
            # Partial rollback: restore only the lost process's workers.
            # Under "reassign" the same rollback doubles as a migration —
            # the lost workers are rehomed round-robin across the
            # survivors and only *their* state is restored, with replay
            # dedup protecting the survivors from duplicate deliveries.
            # (Bail to global recovery while a previous partial replay's
            # dedup ledgers are still draining — overlapping replays
            # would not be distinguishable.)
            ready = now + delay
            if ft.mode in ("checkpoint", "logging") and self.snapshot is not None:
                hosted = sum(
                    1 for owner in cluster._worker_process if owner == process
                )
                ready += ft.state_bytes_per_worker * hosted / ft.disk_bandwidth
            if ft.mode == "logging":
                ready += (
                    self.logged_bytes - self._logged_at_snapshot
                ) / ft.disk_bandwidth
            self._generation += 1  # cancel any pending barrier probe
            self.paused = False
            self._barrier_begin = None
            placement = None
            if policy == "reassign":
                self.dead_processes.add(process)
                moving = [
                    index
                    for index, owner in enumerate(cluster._worker_process)
                    if owner == process
                ]
                placement = {
                    index: survivors[cursor % len(survivors)]
                    for cursor, index in enumerate(moving)
                }
            injected = ac.partial_rollback(
                process, snapshot, ready, placement=placement,
                flush_node=process,
            )
            if trace is not None:
                trace.emit(
                    TraceEvent(
                        "failure",
                        now,
                        ready - now,
                        perf_counter(),
                        -1,
                        process,
                        "",
                        (),
                        (policy, injected, "partial"),
                    )
                )
            self.failures.append(
                {
                    "at": now,
                    "process": process,
                    "policy": policy,
                    "mode": "partial",
                    "ready": ready,
                    "restored_from": snapshot["time"],
                    "replayed_entries": injected,
                }
            )
            self.pump()
            self._notify_sessions()
            return
        if policy == "reassign" and survivors:
            self.dead_processes.add(process)
            mapping = list(cluster._worker_process)
            cursor = 0
            for index in range(cluster.total_workers):
                if mapping[index] == process:
                    mapping[index] = survivors[cursor % len(survivors)]
                    cursor += 1
            cluster._worker_process = mapping
        else:
            policy = "restart"
        ready = now + delay
        if ft.mode in ("checkpoint", "logging") and self.snapshot is not None:
            hosted: Dict[int, int] = {}
            for owner in cluster._worker_process:
                hosted[owner] = hosted.get(owner, 0) + 1
            most = max(hosted.values()) if hosted else 0
            ready += ft.state_bytes_per_worker * most / ft.disk_bandwidth
        if ft.mode == "logging":
            ready += (self.logged_bytes - self._logged_at_snapshot) / ft.disk_bandwidth
        if trace is not None:
            trace.emit(
                TraceEvent(
                    "failure",
                    now,
                    ready - now,
                    perf_counter(),
                    -1,
                    process,
                    "",
                    (),
                    (
                        policy,
                        len(self.journal) - snapshot["journal_released"],
                        "global",
                    ),
                )
            )
        self._restore_and_replay(snapshot, ready)
        self.failures.append(
            {
                "at": now,
                "process": process,
                "policy": policy,
                "mode": "global",
                "ready": ready,
                "restored_from": snapshot["time"],
                "replayed_entries": len(self.journal) - snapshot["journal_released"],
            }
        )
        self.pump()
        self._notify_sessions()

    def _notify_sessions(self) -> None:
        """Tell the serving layer recovery ran: parked queries recheck
        immediately instead of waiting for the next frontier advance."""
        for manager in self.cluster.session_managers:
            manager.on_recovery()

    def rollback_to(self, snapshot: Dict[str, Any]) -> None:
        """Public restore(): roll back to ``snapshot`` and replay the
        journal suffix (no failure, no recovery latency)."""
        self._restore_and_replay(snapshot, self.cluster.sim.now)
        self.pump()

    def _restore_and_replay(self, snapshot: Dict[str, Any], ready: float) -> None:
        """The global rollback: every process restarts from the cut."""
        cluster = self.cluster
        self._generation += 1  # cancel any pending checkpoint probe
        self.paused = False
        self._barrier_begin = None
        trace = cluster._trace
        if trace is not None:
            trace.emit(
                TraceEvent(
                    "restore",
                    cluster.sim.now,
                    max(0.0, ready - cluster.sim.now),
                    perf_counter(),
                    -1,
                    -1,
                    "",
                    (),
                    (snapshot["time"], snapshot["journal_released"]),
                )
            )
        cluster.network.teardown_inflight()
        cluster._rebuild_workers(busy_until=ready)
        cluster._restore_snapshot(snapshot)
        self.released = snapshot["journal_released"]
        self.epochs_released = snapshot["epochs_released"]

    # ------------------------------------------------------------------
    # Introspection (debug_state / benchmarks).
    # ------------------------------------------------------------------

    def describe(self) -> List[str]:
        lines = [
            "  checkpoints=%d last_at=%s journal=%d entries (%d released)"
            % (
                self.checkpoint_count,
                "%.6f" % self.last_checkpoint_time
                if self.last_checkpoint_time is not None
                else "never",
                len(self.journal),
                self.released,
            )
        ]
        if self.logged_batches:
            lines.append(
                "  message log: %d batches, %d bytes"
                % (self.logged_batches, self.logged_bytes)
            )
        if self.dead_processes:
            lines.append(
                "  dead processes: %s" % sorted(self.dead_processes)
            )
        for failure in self.failures:
            lines.append(
                "  failure: process %d at t=%.6f policy=%s restored_from=t=%.6f "
                "replayed=%d ready=t=%.6f"
                % (
                    failure["process"],
                    failure["at"],
                    failure["policy"],
                    failure["restored_from"],
                    failure["replayed_entries"],
                    failure["ready"],
                )
            )
        return lines
