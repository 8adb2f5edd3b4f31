"""The unified runtime control surface (`TimelyRuntime`).

Both runtimes — the single-threaded reference scheduler
(:class:`repro.core.Computation`) and the simulated distributed cluster
(:class:`repro.runtime.ClusterComputation`) — implement this ABC, so
drivers, tests and benchmarks can be written once and parametrized over
either.  The shared surface is deliberately small:

``run(max_steps=None, until=None)``
    drive the computation; ``max_steps`` bounds delivered events,
    ``until`` bounds virtual time (accepted everywhere, meaningful only
    where a virtual clock exists).
``step()``
    deliver one event; False when nothing can run now.
``drained()``
    True when no work remains anywhere.
``frontier()``
    the current frontier of active pointstamps (a conservative,
    process-0 view on the cluster).
``checkpoint()`` / ``restore(snapshot)``
    the section 3.4 fault-tolerance cycle.
``attach_trace_sink(sink)``
    start emitting :class:`repro.obs.TraceEvent` records into ``sink``;
    both runtimes accept the same sink object.
``debug_state()``
    a structured :class:`RuntimeDebugState` snapshot whose ``str()``
    keeps the historical human-readable rendering.
"""

from __future__ import annotations

import abc
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Tuple


class TimelyRuntime(abc.ABC):
    """Abstract control API shared by every timely dataflow runtime."""

    @abc.abstractmethod
    def run(
        self, max_steps: Optional[int] = None, until: Optional[float] = None
    ):
        """Deliver events until quiescent, ``max_steps`` events, or
        (where a virtual clock exists) virtual time ``until``."""

    @abc.abstractmethod
    def step(self) -> bool:
        """Deliver one event; False when no work can currently run."""

    @abc.abstractmethod
    def drained(self) -> bool:
        """True when no events remain anywhere in the computation."""

    @abc.abstractmethod
    def frontier(self) -> List[Any]:
        """The current frontier of active pointstamps."""

    @abc.abstractmethod
    def checkpoint(self) -> Dict[str, Any]:
        """Produce a consistent snapshot of the computation."""

    @abc.abstractmethod
    def restore(self, snapshot: Dict[str, Any]) -> None:
        """Reset the computation to a :meth:`checkpoint` snapshot."""

    @abc.abstractmethod
    def attach_trace_sink(self, sink) -> None:
        """Emit trace events into ``sink`` (None detaches)."""


@dataclass
class RuntimeDebugState:
    """Structured introspection snapshot (see ``debug_state()``).

    ``str()`` of this object reproduces the free-form text the API
    returned historically, and ``in`` tests against that text keep
    working, so existing callers that treated the result as a string
    are unaffected.
    """

    #: Concrete runtime class name ("Computation", "ClusterComputation").
    runtime: str
    #: Virtual cluster time; None on runtimes without a virtual clock.
    now: Optional[float] = None
    #: Undelivered simulator events (0 for the reference runtime).
    pending_events: int = 0
    #: Messages delivered so far.
    delivered_messages: int = 0
    #: Notifications delivered so far.
    delivered_notifications: int = 0
    #: Sends run through a loop plumbing stage inside their producer.
    cut_through_hops: int = 0
    #: Queued-but-undelivered messages.
    queued_messages: int = 0
    #: Outstanding notification requests.
    pending_notifications: int = 0
    #: Fault-tolerance facts: mode, recovery policy, draining flag,
    #: checkpoint/journal counters (empty when FT is not configured).
    fault_tolerance: Dict[str, Any] = field(default_factory=dict)
    #: Processes currently without live workers.
    dead_processes: Tuple[int, ...] = ()
    #: One record per injected failure.
    failures: Tuple[Dict[str, Any], ...] = ()
    #: ``(worker, process, queue length)`` for workers with work.
    busy_workers: Tuple[Tuple[int, int, int], ...] = ()
    #: Summarized frontier: ``(epoch, *counters)`` tuples, sorted.
    frontier: Tuple[Tuple[int, ...], ...] = ()
    #: The historical human-readable rendering.
    text: str = ""

    def __str__(self) -> str:
        return self.text

    def __contains__(self, item: str) -> bool:
        return item in self.text
