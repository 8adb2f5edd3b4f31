"""Structured trace events and the :class:`TraceSink` event log.

A trace is a flat list of :class:`TraceEvent` records.  Every event
carries a virtual-time stamp ``t`` (the simulated cluster clock; the
reference runtime, which has no virtual clock, stamps its logical
delivery counter instead), a virtual duration ``dur`` for span-like
events, and a wall-clock stamp ``wall`` taken from
:func:`time.perf_counter` at emit time.

Event kinds
-----------

``activation``
    a vertex ``on_recv`` callback: one message delivered and processed.
    A loop's ingress/egress/feedback stage fed by a vertex has none of
    its own under the default plan: plumbing cut-through runs the hop
    inside the producing callback, whose span carries its cost.
``notification``
    a frontier notification grant (``on_notify`` with a capability).
``cleanup``
    a guarantee-only (capability-free) notification delivery.
``deliver``
    a message batch arriving at a worker's queue; ``dur`` is the flight
    time since the producing callback committed it.
``message``
    a network transfer between processes (both ``data`` and
    ``progress`` traffic — the latter are the progress-protocol
    broadcasts of section 3.3).
``frontier``
    the observed process-0 frontier moved (version, active counts).
``input``
    one epoch of external input journaled/introduced.
``checkpoint`` / ``restore`` / ``failure``
    fault-tolerance barriers (section 3.4): checkpoint begin/complete,
    rollback, and injected process failures.  A barrier ``checkpoint``
    event's ``detail`` is ``(count, journal_released, drain_duration,
    write_duration)``; a partial rollback emits one ``restore`` event
    per restored worker (``worker`` >= 0), a global rollback emits a
    single cluster-wide event (``worker`` == -1).
``rescale``
    a completed elastic membership change (``add_process`` /
    ``remove_process``): ``process`` is the process that joined or
    left, ``dur`` is the migration blip (now to the moved workers'
    ready time) and ``detail`` is ``(kind, generation, live_count,
    moved_workers, injected)``.
``snapshot``
    the asynchronous checkpoint protocol (``checkpoint_mode="async"``):
    one span per ``(worker, cycle)`` snapshot whose ``dur`` is the
    copy stall charged to that worker and whose ``detail`` is
    ``(cycle, fresh_vertices, total_vertices)``, plus one cycle
    summary per assembled cut (``worker`` == -1, ``dur`` = marker
    latency, ``detail`` = ``(cycle, fresh, reused, channel_entries,
    max_stall, durable_lag)``).
``run``
    one ``Simulator.run`` invocation (span over the whole drain).
``pool``
    a vertex callback body executed in a multiprocessing pool child
    (the ``mp`` backend); the ``process`` field carries the pool rank
    and ``detail`` is ``(callback_kind, child_wall_seconds)``.
``plan``
    one optimizer pass ran over the dataflow plan before the graph
    froze (``repro.opt``); ``operator`` names the pass and ``detail``
    is ``(rewrites, stages_after, connectors_after)``.
``serve``
    serving-layer activity (``repro.serve``): an arrangement publish
    (``detail`` = ``("publish",)``, ``stage`` = the arrangement name),
    a delivered answer (``detail`` = ``("answer", session_id, slo,
    staleness, degraded)`` with ``dur`` = response latency), or an
    admission rejection (``detail`` = ``("reject", session_id, slo)``).
``detect``
    failure detection and fencing (``repro.runtime.supervisor``): the
    ``stage`` field carries the phase — ``"crash"`` (a silent,
    unannounced process crash was injected), ``"suspect"`` (the
    adaptive detector crossed its phi threshold; ``detail`` =
    ``(phi, heartbeats_seen, deaths_in_window)``), ``"fence"`` (the
    incarnation number advanced; ``detail`` = ``(settled_progress,
    new_generation)``), ``"quarantine"`` (a crash-looping process was
    evicted), or ``"drop"`` (a fenced incarnation's stale message was
    discarded; ``detail`` = ``(reason, src, generation)``).

The mapping onto SnailTrail's activity vocabulary lives in
:data:`ACTIVITY_TYPES` and is documented in DESIGN.md.
"""

from __future__ import annotations

import json
from typing import Iterable, Iterator, List, NamedTuple, Optional, Tuple

#: TraceEvent.kind -> SnailTrail activity type (Sandstede, *Online
#: Analysis of Distributed Dataflows with Timely Dataflow*).
ACTIVITY_TYPES = {
    "activation": "processing",
    "notification": "scheduling",
    "cleanup": "scheduling",
    "deliver": "data message",
    "message": "data message",        # detail[-1] == "progress" -> control
    "frontier": "progress tracking",
    "input": "data input",
    "checkpoint": "barrier",
    "snapshot": "barrier",
    "restore": "barrier",
    "failure": "barrier",
    "rescale": "barrier",
    "run": "span",
    "pool": "processing",
    "plan": "scheduling",
    "serve": "processing",
    "detect": "barrier",
}


class TraceEvent(NamedTuple):
    """One structured trace record (see module docstring for kinds)."""

    #: Event kind (one of the keys of :data:`ACTIVITY_TYPES`).
    kind: str
    #: Virtual-time stamp: span start for span events, emit time else.
    t: float
    #: Virtual duration of span events (0.0 for point events).
    dur: float
    #: Wall-clock stamp (``time.perf_counter``) at emit.
    wall: float
    #: Worker index (-1 when not worker-scoped).
    worker: int
    #: Hosting process index (-1 when not process-scoped).
    process: int
    #: Stage name ("" when not stage-scoped).
    stage: str
    #: Logical timestamp as ``(epoch, c1, ..., ck)``; ``()`` when N/A.
    timestamp: Tuple[int, ...]
    #: Kind-specific payload of flat scalars (counts, sizes, peers).
    detail: Tuple

    @property
    def finish(self) -> float:
        return self.t + self.dur

    @property
    def activity(self) -> str:
        """The SnailTrail activity type of this event."""
        if self.kind == "message" and self.detail and self.detail[-1] == "progress":
            return "control message"
        return ACTIVITY_TYPES.get(self.kind, "unknown")


def timestamp_tuple(timestamp) -> Tuple[int, ...]:
    """Flatten a :class:`repro.core.Timestamp` into ``(epoch, *counters)``."""
    if timestamp is None:
        return ()
    return (timestamp.epoch,) + tuple(timestamp.counters)


class TraceSink:
    """An in-memory event log accepted by both runtimes.

    The sink is deliberately dumb — ``emit`` appends — so that the cost
    of tracing is one list append per event.  Analysis lives in
    :mod:`repro.obs.metrics`; persistence is JSON-lines via
    :meth:`dump_jsonl` / :meth:`load_jsonl`, which round-trip exactly
    (floats serialize via ``repr`` and reload bit-identically, so a
    reloaded trace produces an identical critical-path summary).
    """

    __slots__ = ("events",)

    def __init__(self, events: Optional[Iterable[TraceEvent]] = None):
        self.events: List[TraceEvent] = list(events or ())

    def emit(self, event: TraceEvent) -> None:
        self.events.append(event)

    def clear(self) -> None:
        del self.events[:]

    def __len__(self) -> int:
        return len(self.events)

    def __iter__(self) -> Iterator[TraceEvent]:
        return iter(self.events)

    def __repr__(self) -> str:
        return "TraceSink(%d events)" % len(self.events)

    # ------------------------------------------------------------------
    # Serialization.
    # ------------------------------------------------------------------

    def dump_jsonl(self, path: str) -> int:
        """Write one JSON array per event; returns the event count."""
        with open(path, "w") as handle:
            for event in self.events:
                handle.write(json.dumps(list(event)) + "\n")
        return len(self.events)

    @classmethod
    def load_jsonl(cls, path: str) -> "TraceSink":
        """Reload a trace written by :meth:`dump_jsonl`."""
        sink = cls()
        with open(path) as handle:
            for line in handle:
                line = line.strip()
                if not line:
                    continue
                row = json.loads(line)
                row[7] = tuple(row[7])
                row[8] = tuple(tuple(x) if isinstance(x, list) else x for x in row[8])
                sink.events.append(TraceEvent(*row))
        return sink
