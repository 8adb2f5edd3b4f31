"""Input journal, failure injection and recovery for the simulated
cluster (paper section 3.4).

Recovery after a process failure rolls back to the last durable
checkpoint, reassigns the failed process's vertices to the remaining
machines (or to a restarted process), rebuilds progress-tracking state
and replays the logged inputs.  :class:`RecoveryManager` implements it
on the discrete-event cluster of :mod:`repro.runtime.cluster`; the
periodic cuts themselves are asynchronous marker cycles
(:mod:`repro.runtime.async_checkpoint`).

**Input journal.**  Every epoch the external producer supplies (and
every input close) is journaled before release.  The journal is the
replay log: after a rollback, re-executing the journal suffix past the
checkpoint regenerates exactly the lost computation, because vertex
execution is deterministic for a fixed graph and input.  In ``logging``
mode the runtime additionally pays the continual cost of journaling
every cross-process message batch (charged in ``_Worker._step``); the
manager accounts those bytes so recovery pays a log-read cost instead
of recomputing from the most recent full checkpoint only.

**Quiescent snapshot.**  :meth:`complete_checkpoint` snapshots a
cluster with nothing in flight (:meth:`quiescent`) once the protocol
accumulators are flushed, so all views agree: vertices, pending
notifications and one shared set of occurrence counts.  An explicit
:meth:`ClusterComputation.checkpoint` under ``mode="none"`` drains to
it, and so does the paper's stop-the-world barrier, which lives outside
the runtime (:class:`repro.baselines.BarrierCheckpoints`).  Quiescent
and asynchronous cuts alike become the rollback target through
:meth:`RecoveryManager.install`.

**Membership changes.**  A failure, a reassignment, an elastic add or
remove and the supervisor's quarantine all go through one
:meth:`RecoveryManager.move`.  :meth:`ClusterComputation.kill_process`
injects a failure at a virtual time and
:meth:`RecoveryManager.fail_process` hands the lost process to ``move``,
which fences the failed incarnation first.  A placement policy
(:func:`restart`, :func:`spread` or :func:`share`) says where the moving
workers go, and ``move`` recovers through the first of three tiers that
applies:

- **skip**: under ``recovery="restart"``, when the process loses
  nothing (its workers are idle, nothing is addressed to them, and
  their states equal the rollback snapshot's), it restarts in place;
  no rollback, no replay, survivors untouched.
- **partial**: with asynchronous cuts (``mode="checkpoint"`` or
  ``"logging"``), a surviving process and no earlier partial replay
  still draining, only the moving workers restart from the durable
  cut, on their new hosts
  (:meth:`AsyncCheckpointManager.partial_rollback`); their share of the
  cut's channel and their journal suffix are re-injected while the
  survivors keep running behind a frontier fence.  A planned migration
  waits for a fresh durable cut and no draining replay
  (:meth:`AsyncCheckpointManager.after_cut`), so it always takes this
  tier.
- **global**: otherwise, the paper's whole-cluster rollback (and what
  an explicit :meth:`ClusterComputation.restore` does): the network
  tears down in-flight traffic, every worker restarts from the durable
  snapshot, progress views are rebuilt from its occurrence counts, and
  the input journal suffix replays.

Both rollbacks restart workers through
``ClusterComputation._restore_workers`` and re-inject messages through
``AsyncCheckpointManager._reinject``.  Outputs already released to
external subscribers are remembered and suppressed during replay, so a
recovered run releases each (sink, timestamp) batch exactly once.
"""

from __future__ import annotations

from collections import Counter
from time import perf_counter
from typing import Any, Dict, List, Optional, Set, Tuple

from ..core.graph import StageKind
from ..obs.trace import TraceEvent

#: Recovery placement policies.
RECOVERY_POLICIES = ("restart", "reassign")


def restart(cluster, process: int) -> Dict[int, int]:
    """Placement policy: ``process``'s workers stay where they are."""
    return {
        index: owner
        for index, owner in enumerate(cluster._worker_process)
        if owner == process
    }


def spread(cluster, process: int) -> Dict[int, int]:
    """Placement policy: ``process``'s workers round-robin over the other
    live hosts (or in place, when no other host is left)."""
    hosts = [p for p in cluster._live_hosts() if p != process] or [process]
    return {
        index: hosts[cursor % len(hosts)]
        for cursor, index in enumerate(restart(cluster, process))
    }


def share(cluster, process: int) -> Dict[int, int]:
    """Placement policy for a joining ``process``: an even share of the
    workers.  Repeatedly take the highest-index worker from the
    most-loaded donor, never draining a donor below one worker."""
    loads: Dict[int, List[int]] = {
        p: [] for p in cluster._live_hosts() if p != process
    }
    for index, owner in enumerate(cluster._worker_process):
        if owner in loads:
            loads[owner].append(index)
    quota = cluster.total_workers // (len(loads) + 1)
    moving: List[int] = []
    while len(moving) < quota:
        donor = max(loads, key=lambda p: (len(loads[p]), -p))
        if len(loads[donor]) <= 1:
            break
        moving.append(loads[donor].pop())
    return {index: process for index in sorted(moving)}


def _write_done() -> None:
    """A checkpoint write completes; the event only holds the clock."""


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
        """Release journal entries into the dataflow, starting a marker
        cycle every ``checkpoint_every`` epochs.

        Doubles as the replay loop: after a rollback ``released`` points
        back into the journal and pumping re-executes the suffix.
        """
        cluster = self.cluster
        ft = cluster.fault_tolerance
        while self.released < len(self.journal):
            entry = self.journal[self.released]
            self.released += 1
            if entry[0] == "epoch":
                _, stage, epoch, records = entry
                cluster._release_epoch(stage, records, epoch)
                self.epochs_released += 1
                if (
                    cluster.async_ckpt is not None
                    and ft.checkpoint_every > 0
                    and self.epochs_released % ft.checkpoint_every == 0
                ):
                    cluster.async_ckpt.request_cycle()
            else:
                _, stage, next_epoch = entry
                cluster._release_close(stage, next_epoch)

    # ------------------------------------------------------------------
    # Quiescent snapshots.
    # ------------------------------------------------------------------

    def quiescent(self) -> bool:
        """No message in flight, no worker with undelivered work.

        Detector heartbeats are excluded: they flow as long as the
        computation does, and a drain that waited for them would never
        end."""
        cluster = self.cluster
        if cluster.network.data_in_flight:
            return False
        for worker in cluster.workers:
            if worker.queue or worker._scheduled or worker._commit_pending:
                return False
        return True

    def settle(self) -> bool:
        """Once quiescent, flush the withheld protocol updates so all views
        agree; True if that left it quiescent: a snapshot may be taken."""
        if not self.quiescent():
            return False
        self.cluster.plane.flush_all()
        for worker in self.cluster.workers:
            worker.activate()
        return self.quiescent()

    def complete_checkpoint(self, drain: float = 0.0) -> Dict[str, Any]:
        """Snapshot the quiescent cluster and charge the write to every
        worker.  ``drain`` is the virtual time the caller spent reaching
        quiescence; it is reported in the trace beside the write."""
        cluster = self.cluster
        duration = self._write_duration()
        self.install(self.take_snapshot(), duration, drain, duration)
        if duration > 0:
            resume = cluster.sim.now + duration
            for worker in cluster.workers:
                worker.busy_until = max(worker.busy_until, resume)
            # The computation is not done until the checkpoint is
            # durable; advance the clock to the write's completion even
            # if no further work exists.
            cluster.sim.schedule_at(resume, _write_done)
        return self.snapshot

    def install(
        self, snapshot: Dict[str, Any], pause: float, drain: float, write: float
    ) -> None:
        """Make ``snapshot`` the rollback target: count it, prune the
        exactly-once ledger below it and trace it.  ``pause`` is the
        stall it charged every worker, ``drain`` the time spent reaching
        it and ``write`` its disk write."""
        now = self.cluster.sim.now
        self.snapshot = snapshot
        self.checkpoint_count += 1
        self.last_checkpoint_time = now
        self._logged_at_snapshot = self.logged_bytes
        self._prune_released_outputs(snapshot)
        trace = self.cluster._trace
        if trace is not None:
            trace.emit(
                TraceEvent(
                    "checkpoint",
                    now,
                    pause,
                    perf_counter(),
                    -1,
                    -1,
                    "",
                    (),
                    (self.checkpoint_count, snapshot["journal_released"], drain, write),
                )
            )

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
        occurrence = dict(views[0].occurrence)
        for view in views[1:]:
            if view.occurrence != occurrence:
                raise RuntimeError(
                    "progress views disagree at a quiescent checkpoint; "
                    "the protocol flush is incomplete:\n"
                    + str(cluster.debug_state())
                )
        return {
            "time": cluster.sim.now,
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
        entries can be freed.  (At a quiescent snapshot only the input
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
        idle with no queued/in-flight work addressed to them and
        every hosted vertex state equals the rollback snapshot's.  Then
        a restart needs no rollback at all."""
        cluster = self.cluster
        if cluster.network.data_in_flight:
            return False
        if cluster.plane.withholding(process):
            return False
        if any(w.dead for w in cluster.workers if w.process == process):
            # A silent crash froze the hosted workers where they stood:
            # their queues are lost, not idle — never skip.
            return False
        dead = [
            w for w in cluster.workers if w.process == process and not w.dead
        ]
        for worker in dead:
            if worker.has_work() or worker._commit_pending:
                return False
        ac = cluster.async_ckpt
        dead_indices = {w.index for w in dead}
        if ac is not None:
            for entry in ac.inflight.values():
                if entry[0] in dead_indices:
                    return False
        stages = [
            stage
            for stage in cluster.graph.stages
            if stage.kind is not StageKind.INPUT
        ]
        try:
            for stage in stages:
                for index in dead_indices:
                    state = cluster.vertices[(stage, index)].checkpoint()
                    if state != snapshot["vertices"].get((stage.index, index)):
                        return False
        except Exception:
            return False  # states not comparable -> be conservative
        return True

    def fail_process(
        self,
        process: int,
        policy: Optional[str] = None,
        restart_delay: Optional[float] = None,
    ) -> Optional[Dict[str, Any]]:
        """Kill a process now: lose its workers, recover through
        :meth:`move`; returns the failure's record (None when the process
        was already dead or gone).

        Placement of the dead process's workers follows
        ``FaultTolerance.recovery``:
        ``"restart"`` brings the process back after ``restart_delay``
        (same worker placement, :func:`restart`); ``"reassign"`` spreads
        its workers round-robin over the survivors (:func:`spread`; the
        dead process stays dead, as under Naiad's vertex-reassignment
        recovery).

        ``policy`` / ``restart_delay`` override the configured placement
        and delay for this one failure (the supervisor's quarantine and
        exponential-backoff paths); both default to the
        :class:`FaultTolerance` settings.
        """
        cluster = self.cluster
        if process in self.dead_processes or process in cluster._removed_processes:
            return None  # already dead, or already left: it hosts nothing
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
        ft = cluster.fault_tolerance
        if policy is None:
            policy = ft.recovery
        delay = ft.restart_delay if restart_delay is None else restart_delay
        place = spread if policy == "reassign" else restart
        return self.move(process, place, policy, cluster.sim.now + delay)

    def move(
        self, process: Optional[int], place, reason: str, ready: float
    ) -> Optional[Dict[str, Any]]:
        """One membership change: restart or rehome ``process``'s workers,
        and record it; returns the record.

        ``reason`` is a failure's placement policy (``"restart"`` or
        ``"reassign"``, recorded in :attr:`failures`) or a planned
        migration (recorded in the cluster's ``rescales``): ``"add"``
        (``process`` is None; a new process joins) or ``"remove"``
        (``process`` leaves the membership before its workers move).
        ``place(cluster, process)`` maps every moving worker to its host
        once the membership has changed (:func:`restart`, :func:`spread`,
        :func:`share`).  ``ready`` is when the hosts can start; reading
        the moving state back (a failure) or shipping it (a migration)
        is added to it.

        A failure *fences* the failed incarnation first: its generation
        number advances and its outstanding progress copies settle, so
        any traffic it still has in flight — or keeps emitting, if it was
        falsely suspected — is provably stale and discarded.  The oracle
        path (:meth:`ClusterComputation.kill_process`) and the
        supervisor's detection path share this fence, which is what
        keeps their outputs bit-identical.  A migration fences nothing: a
        departing node's withheld progress updates are flushed instead.

        The change takes the first of three tiers (skip, partial, global)
        that applies; the module docstring states when each does (a
        migration is always partial).
        """
        cluster = self.cluster
        failure = reason in RECOVERY_POLICIES
        snapshot = self.snapshot or self.initial
        if failure:
            cluster._fence_process(process)
        elif reason == "add":
            process = cluster.network.add_process()
            cluster.num_processes += 1
            cluster.plane.add_mirror(process)
            cluster.generations.append(0)
            cluster.live_processes.append(process)
            cluster._adds_pending -= 1
        elif process in cluster.live_processes:
            # Leave the membership first: the departing node's view goes
            # stale by design, broadcasts stop targeting it, and agreement
            # checks (drained, snapshot assembly) no longer count it.
            cluster.live_processes.remove(process)
            cluster._removed_processes.add(process)
        else:
            return None  # already gone (a queued duplicate); nothing to do
        placement = place(cluster, process)
        moving = list(placement)
        if reason == "restart" and self._restore_set_empty(process, snapshot):
            # Nothing to restore: the process restarts in place with its
            # state intact; no rollback, no replay, survivors
            # untouched.  (Only sound under "restart" — "reassign" must
            # still migrate the workers off the dead process.)
            for index in moving:
                worker = cluster.workers[index]
                worker.busy_until = max(worker.busy_until, ready)
            record = self._record(process, reason, "skip", ready, snapshot, moving, 0)
            self._notify_sessions()
            return record
        if not (moving or failure):
            # It hosts nothing (it died under reassign and its workers
            # already moved): pure bookkeeping.
            return self._record(process, reason, "", ready, snapshot, moving, 0)
        survivors = [p for p in cluster._live_hosts() if p != process]
        if reason == "reassign":
            if survivors:
                self.dead_processes.add(process)
            else:
                reason = "restart"  # nowhere to go: spread() kept it in place
        # Partial rollback restores only the moving workers (on their new
        # hosts), with replay dedup protecting the survivors from
        # duplicate deliveries.  It bails to the global tier while a
        # previous partial replay's dedup ledgers are still draining:
        # overlapping replays would not be distinguishable.
        ac = cluster.async_ckpt
        partial = ac is not None and bool(survivors) and not ac.replay_dedup
        if not partial:
            for index, host in placement.items():
                cluster._worker_process[index] = host
        if not failure:
            ready += self._migration_delay(moving)
        elif partial:
            ready = self._read_back(ready, len(moving))
        else:
            most = max(Counter(cluster._worker_process).values(), default=0)
            ready = self._read_back(ready, most)
        if partial:
            injected = ac.partial_rollback(
                moving,
                snapshot,
                ready,
                placement,
                reason="partial" if failure else "rescale",
                flush_node=None if reason == "add" else process,
            )
            record = self._record(
                process, reason, "partial", ready, snapshot, moving, injected
            )
        else:
            replayed = len(self.journal) - snapshot["journal_released"]
            record = self._record(
                process, reason, "global", ready, snapshot, moving, replayed
            )
            self._restore_and_replay(snapshot, ready)
        self.pump()
        if failure:
            self._notify_sessions()
        return record

    def _record(self, process, reason, mode, ready, snapshot, moving, count) -> Dict:
        """Trace, record and return one membership change: a failure in
        :attr:`failures` (``mode`` is its tier, ``count`` the messages or
        journal entries it replays) or a migration in the cluster's
        ``rescales`` (``count`` the messages it re-injected)."""
        cluster = self.cluster
        now = cluster.sim.now
        if reason in RECOVERY_POLICIES:
            kind, name, detail = "failure", "", (reason, count, mode)
            record = {
                "at": now,
                "process": process,
                "policy": reason,
                "mode": mode,
                "ready": ready,
                "restored_from": snapshot["time"],
                "replayed_entries": count,
            }
            self.failures.append(record)
        else:
            cluster.rescale_generation += 1
            kind, name = "rescale", reason
            live = tuple(cluster.live_processes)
            detail = (reason, cluster.rescale_generation, len(live), tuple(moving), count)
            record = {
                "kind": reason,
                "process": process,
                "at": now,
                "ready": ready,
                "workers": tuple(moving),
                "injected": count,
                "generation": cluster.rescale_generation,
                "live": live,
            }
            cluster.rescales.append(record)
        trace = cluster._trace
        if trace is not None:
            trace.emit(
                TraceEvent(
                    kind,
                    now,
                    max(0.0, ready - now),
                    perf_counter(),
                    -1,
                    process,
                    name,
                    (),
                    detail,
                )
            )
        return record

    def _migration_delay(self, moving: List[int]) -> float:
        """Virtual-time cost of shipping the moving workers' snapshot
        state and exactly-once ledger entries to their new home."""
        cluster = self.cluster
        ft = cluster.fault_tolerance
        net = cluster.network.config
        moving_set = set(moving)
        state_bytes = ft.state_bytes_per_worker * len(moving)
        ledger_entries = sum(
            1 for entry in cluster.async_ckpt.journal if entry[0] in moving_set
        )
        return (
            state_bytes / ft.disk_bandwidth
            + (state_bytes + 64 * ledger_entries) / net.bandwidth
            + 2 * net.latency
        )

    def _read_back(self, ready: float, workers: int) -> float:
        """``ready`` pushed back by reading ``workers`` workers' state
        from the durable snapshot (when one exists) and, in "logging"
        mode, the message log written since it."""
        ft = self.cluster.fault_tolerance
        if self.snapshot is not None:
            ready += ft.state_bytes_per_worker * workers / ft.disk_bandwidth
        if ft.mode == "logging":
            ready += (self.logged_bytes - self._logged_at_snapshot) / ft.disk_bandwidth
        return ready

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
        """The global rollback: every worker, progress view and the
        input journal restart from the cut."""
        cluster = self.cluster
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
        cluster._restore_workers(snapshot, range(cluster.total_workers), ready)
        cluster.plane.reset(snapshot["occurrence"])
        if cluster.async_ckpt is not None:
            cluster.async_ckpt.note_global_restore(snapshot)
        for worker in cluster.workers:
            worker.activate()
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
