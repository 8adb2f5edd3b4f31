"""A small discrete-event simulation kernel.

The distributed runtime of :mod:`repro.runtime` executes on this
simulator: workers, network links and protocol actors schedule callbacks
at points in *virtual time*.  Causality within the simulation is real —
vertices really execute and exchange real records — while elapsed time
and bytes are modeled, which is what makes laptop-scale reproduction of
the paper's cluster experiments possible (see DESIGN.md).

An event is data, ``(time, sequence, fn, args)``, fired as ``fn(*args)``:
callers pass a bound method and its arguments, never a closure, so a
pending event says what it will do.  Events scheduled for the same
instant fire in schedule order (a stable FIFO tie-break), which keeps
runs deterministic for a fixed seed.
"""

from __future__ import annotations

import heapq
import random
from collections import deque
from time import perf_counter
from typing import Any, Callable, Deque, List, Optional, Tuple

from ..obs.trace import TraceEvent

Event = Tuple[float, int, Callable[..., None], Tuple[Any, ...]]


class Simulator:
    """An event queue with a virtual clock and a seeded RNG.

    Scheduling is a binary heap plus a *same-time fast lane*: an event
    scheduled for the current instant (the overwhelmingly common case —
    worker dispatch loops re-arm themselves at ``now``) is appended to a
    FIFO deque in O(1) instead of paying the O(log n) heap push.  The
    event loop merges the two by the ``(time, sequence)`` key, so the
    execution order is bit-identical to the pure-heap implementation.
    Cheap always-on counters (``heap_pushes``, ``lane_pushes``,
    ``peak_heap``, ``background_pushes``) feed the DES self-profiler in
    :mod:`repro.obs.profile`.
    """

    def __init__(self, seed: int = 0):
        self.now: float = 0.0
        self.rng = random.Random(seed)
        self._queue: List[Event] = []
        #: Same-time FIFO: entries have time <= now and are pushed in
        #: sequence order — so the deque is already sorted by the
        #: (time, sequence) dispatch key.
        self._lane: Deque[Event] = deque()
        self._background: List[Event] = []
        self._sequence = 0
        self._events_executed = 0
        self.in_event = False
        #: Self-profiling counters (see repro.obs.profile.DESProfile).
        self.heap_pushes = 0
        self.lane_pushes = 0
        self.peak_heap = 0
        self.background_pushes = 0
        #: Observability sink (repro.obs.TraceSink); None = tracing off.
        self.trace = None

    def schedule(self, delay: float, fn: Callable, *args: Any) -> None:
        """Call ``fn(*args)`` after ``delay`` seconds of virtual time."""
        if delay < 0:
            raise ValueError("cannot schedule into the past (delay=%r)" % delay)
        self.schedule_at(self.now + delay, fn, *args)

    def schedule_at(self, time: float, fn: Callable, *args: Any) -> None:
        """Call ``fn(*args)`` at absolute virtual time ``time``."""
        if time < self.now:
            raise ValueError(
                "cannot schedule at %r; the clock is already at %r" % (time, self.now)
            )
        if time == self.now:
            self._lane.append((time, self._sequence, fn, args))
            self.lane_pushes += 1
        else:
            heapq.heappush(self._queue, (time, self._sequence, fn, args))
            self.heap_pushes += 1
            if len(self._queue) > self.peak_heap:
                self.peak_heap = len(self._queue)
        self._sequence += 1

    def schedule_background(self, delay: float, fn: Callable, *args: Any) -> None:
        """Schedule an environment event (e.g. a GC pause generator).

        Background events fire only while foreground work remains; they
        never keep the simulation alive on their own, so perpetual
        self-rescheduling processes cannot prevent quiescence.
        """
        if delay < 0:
            raise ValueError("cannot schedule into the past (delay=%r)" % delay)
        heapq.heappush(self._background, (self.now + delay, self._sequence, fn, args))
        self._sequence += 1
        self.background_pushes += 1

    def _pop_next(self) -> Event:
        """Pop the earliest event by ``(time, sequence)`` across the
        heap and the fast lane.  The caller guarantees one is nonempty."""
        if not self._lane:
            return heapq.heappop(self._queue)
        if not self._queue:
            return self._lane.popleft()
        lane_head = self._lane[0]
        heap_head = self._queue[0]
        if lane_head[0] < heap_head[0] or (
            lane_head[0] == heap_head[0] and lane_head[1] < heap_head[1]
        ):
            return self._lane.popleft()
        return heapq.heappop(self._queue)

    def _fire_background(self, until: float) -> None:
        """Fire the background events due by ``until`` and by the next
        foreground event, re-read after each (a background callback may
        schedule foreground work).  The caller guarantees foreground
        work is pending and sets :attr:`in_event`."""
        background = self._background
        while background and background[0][0] <= min(until, self._peek_time()):
            time, _, fn, args = heapq.heappop(background)
            self.now = max(self.now, time)
            fn(*args)

    def step(self) -> bool:
        """Execute the next event; returns False when the queue is empty."""
        if not self._queue and not self._lane:
            return False
        self.in_event = True
        try:
            if self._background:
                self._fire_background(self._peek_time())
            time, _, fn, args = self._pop_next()
            self.now = max(self.now, time)
            fn(*args)
        finally:
            self.in_event = False
        self._events_executed += 1
        return True

    def run(
        self,
        until: Optional[float] = None,
        max_events: Optional[int] = None,
    ) -> int:
        """Drain the event queue.

        Stops when the queue is empty, when virtual time would pass
        ``until``, or after ``max_events`` events.  Returns the number of
        events executed by this call.
        """
        executed = 0
        trace = self.trace
        start_now = self.now
        wall = perf_counter() if trace is not None else 0.0
        while self._queue or self._lane:
            if until is not None and self._peek_time() > until:
                # Background events due at or before the stop time must
                # still fire: the clock passes through their due times
                # on its way to `until`.  A background callback may
                # schedule new foreground work <= until, so re-check
                # the loop condition instead of stopping outright.
                if self._background and self._background[0][0] <= until:
                    self.in_event = True
                    try:
                        self._fire_background(until)
                    finally:
                        self.in_event = False
                    continue
                self.now = until
                break
            if max_events is not None and executed >= max_events:
                break
            self.step()
            executed += 1
        if trace is not None:
            trace.emit(
                TraceEvent(
                    "run",
                    start_now,
                    self.now - start_now,
                    wall,
                    -1,
                    -1,
                    "",
                    (),
                    (executed, perf_counter() - wall),
                )
            )
        return executed

    def _peek_time(self) -> float:
        """Virtual time of the earliest pending foreground event; the
        caller guarantees the queue or the lane is nonempty."""
        if not self._lane:
            return self._queue[0][0]
        if not self._queue:
            return self._lane[0][0]
        return min(self._lane[0][0], self._queue[0][0])

    @property
    def pending_events(self) -> int:
        return len(self._queue) + len(self._lane)

    @property
    def next_event_time(self) -> Optional[float]:
        """Virtual time of the earliest pending foreground event.

        ``None`` when the queue is empty.  Used by processes that must
        wait for the system to settle (e.g. the checkpoint quiescence
        probe) to re-poll exactly when something next happens instead of
        busy-waiting in virtual time.
        """
        if not self._queue and not self._lane:
            return None
        return self._peek_time()

    @property
    def events_executed(self) -> int:
        return self._events_executed

    def __repr__(self) -> str:
        return "Simulator(now=%.6f, pending=%d)" % (
            self.now,
            self.pending_events,
        )
