"""DES self-profiling: what did the simulation itself cost?

The discrete-event simulator and the cluster runtime maintain cheap
always-on counters (integer increments on the hot paths, nothing
allocated): how many events went through the heap versus the same-time
fast lane, the peak heap size, how many times the cost model was
consulted per message, and how often the progress-protocol hold
condition was evaluated versus answered from its memo.
:func:`collect_profile` gathers them into one :class:`DESProfile` so
benchmarks can report the simulator's own hot paths — the numbers the
64-computer Figure 6 presets are tuned against.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List


@dataclass
class DESProfile:
    """A snapshot of the simulator's self-profiling counters."""

    #: Foreground events executed by the simulator.
    events_executed: int = 0
    #: Events that went through the binary heap (O(log n) each).
    heap_pushes: int = 0
    #: Same-time events that took the FIFO fast lane (O(1) each).
    lane_pushes: int = 0
    #: Largest heap observed.
    peak_heap: int = 0
    #: Background (environment) events scheduled.
    background_pushes: int = 0
    #: Virtual seconds simulated.
    virtual_time: float = 0.0
    #: Calls into the batch-size cost model (`batch_bytes`).
    batch_bytes_calls: int = 0
    #: Per-stage record-cost lookups.
    stage_cost_calls: int = 0
    #: Progress-protocol hold-condition evaluations actually computed.
    hold_evals: int = 0
    #: Hold-condition checks answered by the per-node verdict memo.
    hold_memo_hits: int = 0
    #: Messages delivered by workers.
    delivered_messages: int = 0
    #: Notifications (and cleanups) delivered by workers.
    delivered_notifications: int = 0
    #: Sends run through a loop plumbing stage inside their producer.
    cut_through_hops: int = 0
    #: Network messages by traffic category.
    messages_by_kind: Dict[str, int] = field(default_factory=dict)
    #: Network bytes by traffic category.
    bytes_by_kind: Dict[str, int] = field(default_factory=dict)
    #: Pool children in the mp backend (0 for the inline backend).
    pool_size: int = 0
    #: Worker-step claims the pool dispatcher prepared.
    pool_claims: int = 0
    #: Callback bodies actually offloaded to pool children.
    pool_tasks: int = 0
    #: Coordinator wall seconds blocked waiting on pool replies.
    pool_wait_wall: float = 0.0
    #: Child-reported wall seconds spent in callback bodies, per rank.
    pool_child_wall: Dict[int, float] = field(default_factory=dict)
    #: Pool resets (worker rebuilds after failures/rebalances).
    pool_resets: int = 0

    def lines(self) -> List[str]:
        """Human-readable rendering for benchmark reports."""
        total_sched = self.heap_pushes + self.lane_pushes
        lane_pct = 100.0 * self.lane_pushes / total_sched if total_sched else 0.0
        checks = self.hold_evals + self.hold_memo_hits
        memo_pct = 100.0 * self.hold_memo_hits / checks if checks else 0.0
        out = [
            "des profile: %d events over %.6fs virtual"
            % (self.events_executed, self.virtual_time),
            "  scheduling: %d heap pushes (peak heap %d), %d fast-lane (%.1f%%)"
            % (self.heap_pushes, self.peak_heap, self.lane_pushes, lane_pct),
            "  cost model: %d batch-size calls, %d stage-cost lookups"
            % (self.batch_bytes_calls, self.stage_cost_calls),
            "  progress protocol: %d hold evaluations, %d memo hits (%.1f%%)"
            % (self.hold_evals, self.hold_memo_hits, memo_pct),
            "  delivered: %d messages, %d notifications, %d cut-through hops"
            % (
                self.delivered_messages,
                self.delivered_notifications,
                self.cut_through_hops,
            ),
        ]
        for kind in sorted(self.messages_by_kind):
            out.append(
                "  network[%s]: %d messages, %d bytes"
                % (kind, self.messages_by_kind[kind], self.bytes_by_kind.get(kind, 0))
            )
        if self.pool_size:
            out.append(
                "  pool: %d children, %d/%d claims offloaded, "
                "%.3fs coordinator wait, %.3fs child cpu, %d resets"
                % (
                    self.pool_size,
                    self.pool_tasks,
                    self.pool_claims,
                    self.pool_wait_wall,
                    sum(self.pool_child_wall.values()),
                    self.pool_resets,
                )
            )
        return out


def collect_profile(comp) -> DESProfile:
    """Collect a :class:`DESProfile` from a runtime.

    Works for :class:`repro.runtime.ClusterComputation` (full counters)
    and degrades gracefully for the reference runtime (delivery counts
    only — it has no simulator, network or protocol).
    """
    profile = DESProfile(
        delivered_messages=getattr(comp, "delivered_messages", 0),
        delivered_notifications=getattr(comp, "delivered_notifications", 0),
        cut_through_hops=getattr(comp, "cut_through_hops", 0),
    )
    sim = getattr(comp, "sim", None)
    if sim is not None:
        profile.events_executed = sim.events_executed
        profile.heap_pushes = sim.heap_pushes
        profile.lane_pushes = sim.lane_pushes
        profile.peak_heap = sim.peak_heap
        profile.background_pushes = sim.background_pushes
        profile.virtual_time = sim.now
    network = getattr(comp, "network", None)
    if network is not None:
        profile.messages_by_kind = dict(network.stats.messages_by_kind)
        profile.bytes_by_kind = dict(network.stats.bytes_by_kind)
    profile.batch_bytes_calls = getattr(comp, "batch_bytes_calls", 0)
    profile.stage_cost_calls = getattr(comp, "stage_cost_calls", 0)
    for node in getattr(comp, "nodes", ()):
        profile.hold_evals += node.hold_evals
        profile.hold_memo_hits += node.hold_memo_hits
    central = getattr(comp, "central", None)
    if central is not None:
        profile.hold_evals += central.hold_evals
        profile.hold_memo_hits += central.hold_memo_hits
    workers = getattr(comp, "workers", None)
    if workers:
        profile.delivered_messages = sum(w.delivered_messages for w in workers)
        profile.delivered_notifications = sum(
            w.delivered_notifications for w in workers
        )
    pool = getattr(comp, "pool", None)
    if pool is not None:
        profile.pool_size = pool.size
        profile.pool_claims = pool.claims_made
        profile.pool_tasks = pool.tasks_offloaded
        profile.pool_wait_wall = pool.wait_wall
        profile.pool_child_wall = dict(enumerate(pool.child_wall))
        profile.pool_resets = pool.resets
    return profile
