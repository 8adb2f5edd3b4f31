"""Aggregations over a recorded trace (timelines, critical path).

Everything here is a pure, deterministic function of the event list, so
the same summary falls out of a live :class:`repro.obs.TraceSink` and
of one reloaded from disk — the round-trip property the tests pin down.

The critical-path summary follows the SnailTrail construction
(Sandstede, *Online Analysis of Distributed Dataflows with Timely
Dataflow*): walk backwards from the activity that completes the
computation, at each step attributing the elapsed interval to
*processing* (a vertex callback span), *communication* (a message batch
in flight between workers) or *waiting* (a delivered batch sitting in a
worker queue, or an idle gap between callbacks on one worker).  The
walk uses the worker-level ``activation``/``notification`` spans and
``deliver`` events the cluster runtime emits; causal links between a
delivery and the producing callback are matched by commit time, which
is exact for the discrete-event cluster because a callback's sends are
dispatched at its finish time.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Tuple

from .trace import TraceEvent

#: Span kinds that occupy a worker (the "processing" activities).
_SPAN_KINDS = ("activation", "notification", "cleanup")


def event_counts(events: Iterable[TraceEvent]) -> Dict[str, int]:
    """Events per kind."""
    counts: Dict[str, int] = {}
    for event in events:
        counts[event.kind] = counts.get(event.kind, 0) + 1
    return counts


@dataclass
class StageTimeline:
    """Per-stage execution summary."""

    stage: str
    activations: int = 0
    notifications: int = 0
    records: int = 0
    busy: float = 0.0
    workers: Tuple[int, ...] = ()
    first_t: float = 0.0
    last_t: float = 0.0


def stage_timelines(events: Iterable[TraceEvent]) -> Dict[str, StageTimeline]:
    """Aggregate callback spans by stage (sorted worker sets)."""
    out: Dict[str, StageTimeline] = {}
    seen_workers: Dict[str, set] = {}
    for event in events:
        if event.kind not in _SPAN_KINDS:
            continue
        line = out.get(event.stage)
        if line is None:
            line = out[event.stage] = StageTimeline(
                event.stage, first_t=event.t, last_t=event.finish
            )
            seen_workers[event.stage] = set()
        if event.kind == "activation":
            line.activations += 1
            if event.detail:
                line.records += event.detail[0]
        else:
            line.notifications += 1
        line.busy += event.dur
        seen_workers[event.stage].add(event.worker)
        line.first_t = min(line.first_t, event.t)
        line.last_t = max(line.last_t, event.finish)
    for stage, line in out.items():
        line.workers = tuple(sorted(seen_workers[stage]))
    return out


@dataclass
class WorkerTimeline:
    """Per-worker execution summary."""

    worker: int
    process: int = -1
    activations: int = 0
    notifications: int = 0
    busy: float = 0.0
    first_t: float = 0.0
    last_t: float = 0.0

    @property
    def utilization(self) -> float:
        span = self.last_t - self.first_t
        return self.busy / span if span > 0 else 0.0


def worker_timelines(events: Iterable[TraceEvent]) -> Dict[int, WorkerTimeline]:
    out: Dict[int, WorkerTimeline] = {}
    for event in events:
        if event.kind not in _SPAN_KINDS or event.worker < 0:
            continue
        line = out.get(event.worker)
        if line is None:
            line = out[event.worker] = WorkerTimeline(
                event.worker, event.process, first_t=event.t, last_t=event.finish
            )
        if event.kind == "activation":
            line.activations += 1
        else:
            line.notifications += 1
        line.busy += event.dur
        line.first_t = min(line.first_t, event.t)
        line.last_t = max(line.last_t, event.finish)
    return out


@dataclass
class ServeClassStats:
    """Per-SLO-class serving summary (from ``serve`` answer events)."""

    slo: str
    answers: int = 0
    degraded: int = 0
    max_staleness: int = 0
    p50: float = 0.0
    p99: float = 0.0
    mean: float = 0.0
    #: All response latencies, in delivery order (virtual seconds).
    latencies: List[float] = None  # type: ignore[assignment]


def _percentile(sorted_values: List[float], q: float) -> float:
    """Nearest-rank percentile of an ascending list."""
    if not sorted_values:
        return 0.0
    rank = max(1, -(-int(q * len(sorted_values) * 100) // 100))  # ceil
    return sorted_values[min(rank, len(sorted_values)) - 1]


def serve_latency_stats(events: Iterable[TraceEvent]) -> Dict[str, ServeClassStats]:
    """Aggregate serving-layer answer latencies per SLO class.

    Reads the ``serve`` events with an ``("answer", session, slo,
    staleness, degraded)`` detail; ``dur`` carries the response latency.
    Returns ``{"fresh": ..., "stale": ...}`` for the classes observed.
    """
    out: Dict[str, ServeClassStats] = {}
    for event in events:
        if event.kind != "serve" or not event.detail or event.detail[0] != "answer":
            continue
        _action, _session, slo, staleness, degraded = event.detail[:5]
        stats = out.get(slo)
        if stats is None:
            stats = out[slo] = ServeClassStats(slo, latencies=[])
        stats.answers += 1
        if degraded:
            stats.degraded += 1
        if staleness > stats.max_staleness:
            stats.max_staleness = staleness
        stats.latencies.append(event.dur)
    for stats in out.values():
        ordered = sorted(stats.latencies)
        stats.p50 = _percentile(ordered, 0.50)
        stats.p99 = _percentile(ordered, 0.99)
        stats.mean = sum(ordered) / len(ordered) if ordered else 0.0
    return out


def frontier_trace(events: Iterable[TraceEvent]) -> List[Tuple[float, Tuple]]:
    """``(t, detail)`` for every frontier-progress event, in order."""
    return [(event.t, event.detail) for event in events if event.kind == "frontier"]


@dataclass
class MembershipChange:
    """One elastic membership change (an ``add_process`` or a graceful
    ``remove_process``), reconstructed from a ``rescale`` trace event."""

    #: "add" or "remove".
    kind: str
    #: The process that joined or left.
    process: int
    #: Virtual time the change executed.
    t: float
    #: Migration blip: time until the moved workers were ready again.
    blip: float
    #: Monotone membership generation after the change.
    generation: int
    #: Live process count after the change.
    live_count: int
    #: Worker indices that changed home.
    moved_workers: Tuple[int, ...] = ()
    #: Messages re-injected for the moved workers' replay.
    injected: int = 0


def membership_timeline(
    events: Iterable[TraceEvent],
) -> List[MembershipChange]:
    """The cluster-shape history of a traced run, in event order.

    Post-mortems join this against :func:`worker_timelines` or the
    frontier trace to see exactly when the shape changed and what each
    change cost (the ``blip`` is the moved workers' unavailability; the
    survivors never pause).
    """
    out: List[MembershipChange] = []
    for event in events:
        if event.kind != "rescale":
            continue
        kind, generation, live_count, moved, injected = event.detail
        out.append(
            MembershipChange(
                kind=kind,
                process=event.process,
                t=event.t,
                blip=event.dur,
                generation=int(generation),
                live_count=int(live_count),
                moved_workers=tuple(moved),
                injected=int(injected),
            )
        )
    return out


@dataclass
class DetectionIncident:
    """One silent crash and its supervised detection/recovery, joined
    from the ``detect`` and ``failure`` trace events."""

    #: The crashed process.
    process: int
    #: Virtual time the silent crash was injected.
    crashed_at: float
    #: Virtual time the detector crossed its phi threshold (NaN if the
    #: crash was never suspected — the run hung or is still going).
    suspected_at: float = float("nan")
    #: Virtual time recovery completed (the failed workers' ready
    #: time); NaN if no recovery ran.
    recovered_at: float = float("nan")
    #: Phi at suspicion (-1.0 when phi was infinite).
    phi: float = float("nan")

    @property
    def mttd(self) -> float:
        """Mean-time-to-detect contribution: suspicion minus crash."""
        return self.suspected_at - self.crashed_at

    @property
    def mttr(self) -> float:
        """Mean-time-to-recover contribution: recovery-complete minus
        crash."""
        return self.recovered_at - self.crashed_at


@dataclass
class DetectionStats:
    """Failure-detection summary of a traced run (self-healing PR)."""

    #: One entry per silent crash, in injection order.
    incidents: List[DetectionIncident] = field(default_factory=list)
    #: Stale messages discarded by generation fencing, by drop reason
    #: ("stale-data", "stale-progress", "stale-heartbeat", ...).
    drops: Dict[str, int] = field(default_factory=dict)
    #: Processes evicted by the crash-loop quarantine.
    quarantined: Tuple[int, ...] = ()

    @property
    def mttd(self) -> float:
        """Mean time-to-detect over incidents that were suspected."""
        values = [i.mttd for i in self.incidents if i.mttd == i.mttd]
        return sum(values) / len(values) if values else float("nan")

    @property
    def mttr(self) -> float:
        """Mean time-to-recover over incidents that recovered."""
        values = [i.mttr for i in self.incidents if i.mttr == i.mttr]
        return sum(values) / len(values) if values else float("nan")


def detection_stats(events: Iterable[TraceEvent]) -> DetectionStats:
    """Join ``detect`` and ``failure`` events into per-crash incidents.

    A crash pairs with the first subsequent suspicion of the same
    process, which pairs with the first subsequent recovery (the
    ``failure`` event's span end is the workers' ready time).  Oracle
    kills (no preceding ``crash`` event) contribute nothing here — the
    stats isolate what the *detector* did.
    """
    stats = DetectionStats()
    open_by_process: Dict[int, DetectionIncident] = {}
    suspected: Dict[int, DetectionIncident] = {}
    quarantined: List[int] = []
    for event in events:
        if event.kind == "detect":
            if event.stage == "crash":
                incident = DetectionIncident(
                    process=event.process, crashed_at=event.t
                )
                stats.incidents.append(incident)
                open_by_process[event.process] = incident
            elif event.stage == "suspect":
                incident = open_by_process.pop(event.process, None)
                if incident is not None:
                    incident.suspected_at = event.t
                    incident.phi = float(event.detail[0])
                    suspected[event.process] = incident
            elif event.stage == "drop":
                reason = event.detail[0]
                stats.drops[reason] = stats.drops.get(reason, 0) + 1
            elif event.stage == "quarantine":
                quarantined.append(event.process)
        elif event.kind == "failure":
            incident = suspected.pop(event.process, None)
            if incident is not None:
                incident.recovered_at = event.finish
    stats.quarantined = tuple(quarantined)
    return stats


@dataclass
class CheckpointPauseStats:
    """Checkpoint-induced pauses, comparable between the runtime's
    asynchronous cuts and the barrier baseline.

    A barrier checkpoint pauses the whole cluster for its drain plus
    its synchronous write; an asynchronous cycle pauses each worker
    only for its incremental state copy, and the marker latency (cut
    start to assembled snapshot) plus durable lag (background write)
    bound the recovery line's *staleness* instead of any pause.
    """

    #: Per barrier checkpoint: drain + synchronous write (the full
    #: stop-the-world pause charged to every worker).
    barrier_pauses: Tuple[float, ...] = ()
    barrier_drains: Tuple[float, ...] = ()
    barrier_writes: Tuple[float, ...] = ()
    #: Per asynchronous cycle: the largest single-worker copy stall.
    async_max_stalls: Tuple[float, ...] = ()
    #: Per asynchronous cycle: marker injection -> assembled cut.
    async_marker_latencies: Tuple[float, ...] = ()
    #: Per asynchronous cycle: background durable-write duration.
    async_durable_lags: Tuple[float, ...] = ()
    #: Per asynchronous cycle: (fresh, reused) vertex snapshot counts.
    async_increments: Tuple[Tuple[int, int], ...] = ()

    @property
    def max_barrier_pause(self) -> float:
        return max(self.barrier_pauses, default=0.0)

    @property
    def max_async_pause(self) -> float:
        """The async protocol's worst per-cycle pause (the copy stall)."""
        return max(self.async_max_stalls, default=0.0)


def checkpoint_pause_stats(events: Iterable[TraceEvent]) -> CheckpointPauseStats:
    """Extract barrier pauses and async-cycle stalls from a trace.

    Barrier numbers come from ``checkpoint`` events (``detail`` =
    ``(count, released, drain, write)``; traces from before the drain
    field existed contribute ``dur`` as the write with a zero drain).
    Async numbers come from the per-cycle ``snapshot`` summaries
    (``worker == -1``).
    """
    stats = CheckpointPauseStats()
    pauses: List[float] = []
    drains: List[float] = []
    writes: List[float] = []
    stalls: List[float] = []
    latencies: List[float] = []
    lags: List[float] = []
    increments: List[Tuple[int, int]] = []
    for event in events:
        if event.kind == "checkpoint":
            if len(event.detail) >= 4:
                drain = float(event.detail[2])
                write = float(event.detail[3])
            else:
                drain = 0.0
                write = event.dur
            # Async durable commits emit a zero-drain/zero-dur parity
            # event; only an actual pause counts as a barrier pause.
            if event.dur > 0.0 or drain > 0.0:
                drains.append(drain)
                writes.append(write)
                pauses.append(drain + write)
        elif event.kind == "snapshot" and event.worker == -1:
            cycle, fresh, reused, _channel, max_stall, durable_lag = event.detail
            stalls.append(float(max_stall))
            latencies.append(event.dur)
            lags.append(float(durable_lag))
            increments.append((int(fresh), int(reused)))
    stats.barrier_pauses = tuple(pauses)
    stats.barrier_drains = tuple(drains)
    stats.barrier_writes = tuple(writes)
    stats.async_max_stalls = tuple(stalls)
    stats.async_marker_latencies = tuple(latencies)
    stats.async_durable_lags = tuple(lags)
    stats.async_increments = tuple(increments)
    return stats


@dataclass
class CriticalPathSummary:
    """A SnailTrail-style breakdown of the end-to-end critical path."""

    #: Virtual time spanned by the traced computation (first span start
    #: to last span finish).
    makespan: float = 0.0
    #: Virtual time covered by the reconstructed path.
    path_time: float = 0.0
    #: Callback execution time on the path.
    processing: float = 0.0
    #: Message flight time on the path.
    communication: float = 0.0
    #: Queueing/idle time on the path.
    waiting: float = 0.0
    #: Number of path segments walked.
    segments: int = 0
    #: ``(stage, processing seconds)`` for the heaviest path stages.
    top_stages: Tuple[Tuple[str, float], ...] = ()
    #: Distinct workers visited by the path.
    workers_visited: int = 0

    def lines(self) -> List[str]:
        """Human-readable rendering for benchmark reports."""
        def pct(x: float) -> str:
            return "%4.1f%%" % (100.0 * x / self.path_time) if self.path_time else "n/a"

        out = [
            "critical path: %d segments over %.6fs (makespan %.6fs)"
            % (self.segments, self.path_time, self.makespan),
            "  processing    %10.6fs  %s" % (self.processing, pct(self.processing)),
            "  communication %10.6fs  %s" % (self.communication, pct(self.communication)),
            "  waiting       %10.6fs  %s" % (self.waiting, pct(self.waiting)),
        ]
        for stage, seconds in self.top_stages:
            out.append("  on-path stage %-24s %.6fs" % (stage, seconds))
        return out


def critical_path(
    events: Iterable[TraceEvent], top_k: int = 5
) -> CriticalPathSummary:
    """Reconstruct the critical path of a traced cluster run.

    Walks backwards from the last-finishing callback span.  The
    predecessor of a span starting at ``s`` on worker ``w`` is the
    latest batch delivered to ``w`` at or before ``s`` (queue wait +
    flight time), whose producer is the callback on the source worker
    that committed at the batch's send time; with no candidate delivery
    the walk falls through to the previous callback on the same worker
    (pure waiting).  Deterministic: ties break on (finish, t, worker).
    """
    spans: Dict[int, List[TraceEvent]] = {}
    delivers: Dict[int, List[TraceEvent]] = {}
    first_t: Optional[float] = None
    last_finish: Optional[float] = None
    for event in events:
        if event.kind in _SPAN_KINDS:
            spans.setdefault(event.worker, []).append(event)
            first_t = event.t if first_t is None else min(first_t, event.t)
            last_finish = (
                event.finish if last_finish is None else max(last_finish, event.finish)
            )
        elif event.kind == "deliver":
            delivers.setdefault(event.worker, []).append(event)
    if not spans:
        return CriticalPathSummary()
    for listing in spans.values():
        listing.sort(key=lambda e: (e.finish, e.t))
    for listing in delivers.values():
        listing.sort(key=lambda e: (e.t, e.wall))
    span_finishes = {w: [e.finish for e in lst] for w, lst in spans.items()}
    deliver_times = {w: [e.t for e in lst] for w, lst in delivers.items()}

    def span_before(worker: int, time: float) -> Optional[TraceEvent]:
        listing = spans.get(worker)
        if not listing:
            return None
        index = bisect_right(span_finishes[worker], time)
        return listing[index - 1] if index else None

    def deliver_before(worker: int, time: float) -> Optional[TraceEvent]:
        listing = delivers.get(worker)
        if not listing:
            return None
        index = bisect_right(deliver_times[worker], time)
        return listing[index - 1] if index else None

    current = max(
        (e for lst in spans.values() for e in lst),
        key=lambda e: (e.finish, e.t, e.worker),
    )
    summary = CriticalPathSummary(makespan=(last_finish or 0.0) - (first_t or 0.0))
    stage_seconds: Dict[str, float] = {}
    visited_workers = set()
    budget = sum(len(lst) for lst in spans.values()) + sum(
        len(lst) for lst in delivers.values()
    )
    while current is not None and budget > 0:
        budget -= 1
        summary.segments += 1
        summary.processing += current.dur
        stage_seconds[current.stage] = stage_seconds.get(current.stage, 0.0) + current.dur
        visited_workers.add(current.worker)
        start = current.t
        delivery = deliver_before(current.worker, start)
        nxt: Optional[TraceEvent] = None
        if delivery is not None:
            sent = delivery.t - delivery.dur
            producer = span_before(
                delivery.detail[0] if delivery.detail else -1, sent + 1e-15
            )
            if producer is not None and producer.finish <= start:
                summary.waiting += start - delivery.t
                summary.communication += delivery.dur
                summary.waiting += max(0.0, sent - producer.finish)
                nxt = producer
        if nxt is None:
            previous = span_before(current.worker, start)
            if previous is not None and previous is not current:
                summary.waiting += max(0.0, start - previous.finish)
                nxt = previous
        if nxt is current:
            break
        current = nxt
    summary.path_time = summary.processing + summary.communication + summary.waiting
    summary.workers_visited = len(visited_workers)
    summary.top_stages = tuple(
        sorted(stage_seconds.items(), key=lambda item: (-item[1], item[0]))[:top_k]
    )
    return summary
