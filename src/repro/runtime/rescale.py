"""Metrics-driven elastic autoscaling for the simulated cluster.

Closes the loop the ISSUE's related work sketches (SnailTrail-style
online analysis feeding placement decisions): an :class:`Autoscaler`
samples the live trace stream on a fixed virtual-time interval,
computes per-host utilization from the worker callback spans
(:mod:`repro.obs.metrics`'s span vocabulary), and calls
:meth:`ClusterComputation.add_process` /
:meth:`~ClusterComputation.remove_process` when the load stays beyond
its thresholds for ``sustain`` consecutive samples — hysteresis plus a
post-decision cooldown keep it from flapping while a migration's
replay is still draining.

The controller is entirely passive with respect to correctness: it
only ever requests the same planned membership changes a human
operator could, and those ride the async-cut migration path, so
per-epoch outputs are bit-identical with the controller on or off —
only the virtual-time performance profile changes.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Tuple

from ..obs.metrics import _SPAN_KINDS
from ..obs.trace import TraceSink


class Hysteresis:
    """Sustained-threshold detector: the anti-flap core of the
    :class:`Autoscaler`, factored out so other control loops (the
    serving layer's admission controller, :mod:`repro.serve.admission`)
    reuse the same machinery.

    ``update(value)`` returns ``"high"`` once the value has stayed at or
    above ``high`` for ``sustain`` consecutive samples, ``"low"`` once it
    has stayed at or below ``low`` as long, and ``None`` otherwise.  A
    sample in the dead band between the thresholds resets both streaks.
    After acting on a signal, call :meth:`acknowledge` to restart that
    side's streak (the caller typically also applies a cooldown).
    """

    __slots__ = ("high", "low", "sustain", "high_streak", "low_streak")

    def __init__(self, high: float, low: float, sustain: int):
        if low >= high:
            raise ValueError(
                "Hysteresis low threshold (%r) must be below high (%r)"
                % (low, high)
            )
        if sustain < 1:
            raise ValueError("Hysteresis sustain must be >= 1 (got %r)" % (sustain,))
        self.high = high
        self.low = low
        self.sustain = sustain
        self.high_streak = 0
        self.low_streak = 0

    def update(self, value: float) -> Optional[str]:
        if value >= self.high:
            self.high_streak += 1
            self.low_streak = 0
        elif value <= self.low:
            self.low_streak += 1
            self.high_streak = 0
        else:
            self.high_streak = 0
            self.low_streak = 0
        if self.high_streak >= self.sustain:
            return "high"
        if self.low_streak >= self.sustain:
            return "low"
        return None

    def acknowledge(self, side: str) -> None:
        """Reset one side's streak after its signal was acted upon."""
        if side == "high":
            self.high_streak = 0
        else:
            self.low_streak = 0


@dataclass
class AutoscalePolicy:
    """Thresholds and pacing for the autoscaling control loop.

    Utilization is measured per sample window as the total worker busy
    time divided by ``live_hosts * interval`` — i.e. "busy workers per
    host".  With the default thresholds a host carrying most of a
    worker's load sustains a grow, and a mostly idle fleet sustains a
    shrink.
    """

    #: Virtual-time sampling interval, seconds.
    interval: float = 0.005
    #: Grow when utilization stays at or above this for ``sustain``
    #: consecutive samples.
    high_utilization: float = 0.75
    #: Shrink when utilization stays at or below this for ``sustain``
    #: consecutive samples.
    low_utilization: float = 0.35
    #: Consecutive out-of-band samples required before acting.
    sustain: int = 3
    #: Virtual time after a decision during which no new decision is
    #: taken (lets the migration blip and its replay drain).
    cooldown: float = 0.02
    #: Never shrink below this many live hosts.
    min_processes: int = 1
    #: Never grow beyond this many live hosts.
    max_processes: int = 16


class Autoscaler:
    """Watches a :class:`repro.obs.TraceSink` and rescales the cluster.

    ::

        sink = TraceSink()
        comp.attach_trace_sink(sink)
        Autoscaler(comp, sink).start()   # before driving inputs

    Sampling rides :meth:`Simulator.schedule_background`, so the
    controller only observes while foreground work exists and never
    keeps an otherwise finished simulation alive.  Decisions are
    recorded in :attr:`decisions`; utilization samples in
    :attr:`samples` as ``(t, utilization, live_hosts)``.
    """

    def __init__(
        self,
        cluster,
        sink: TraceSink,
        policy: Optional[AutoscalePolicy] = None,
    ) -> None:
        cluster._check_built()
        cluster._check_rescalable("Autoscaler")
        self.cluster = cluster
        self.sink = sink
        self.policy = policy or AutoscalePolicy()
        if self.policy.low_utilization >= self.policy.high_utilization:
            raise ValueError(
                "AutoscalePolicy.low_utilization (%r) must be below "
                "high_utilization (%r) — equal or inverted thresholds "
                "make every sample both a grow and a shrink signal"
                % (self.policy.low_utilization, self.policy.high_utilization)
            )
        self._cursor = len(sink.events)
        self._hysteresis = Hysteresis(
            self.policy.high_utilization,
            self.policy.low_utilization,
            self.policy.sustain,
        )
        self._cooldown_until = 0.0
        self._started = False
        #: ``(t, utilization, live_hosts)`` per sample window.
        self.samples: List[Tuple[float, float, int]] = []
        #: One dict per add/remove decision taken.
        self.decisions: List[Dict[str, Any]] = []

    def start(self) -> "Autoscaler":
        """Arm the sampling loop (idempotent)."""
        if not self._started:
            self._started = True
            self._arm()
        return self

    def _arm(self) -> None:
        self.cluster.sim.schedule_background(
            self.policy.interval, self._sample
        )

    def _utilization(self, hosts: int) -> float:
        """Busy-workers-per-host over the spans since the last sample."""
        events = self.sink.events
        busy = 0.0
        for event in events[self._cursor :]:
            if event.kind in _SPAN_KINDS and event.worker >= 0:
                busy += event.dur
        self._cursor = len(events)
        if hosts <= 0:
            return 0.0
        return busy / (hosts * self.policy.interval)

    def backfill(self, reason: str = "backfill") -> bool:
        """Replace an evicted host immediately (the supervisor's
        crash-loop quarantine calls this after evicting one).

        Bypasses the utilization hysteresis — the fleet just lost a
        host through no fault of the load — but still respects the
        policy ceiling and the one-migration-at-a-time queue.  Returns
        True when a grow was submitted.
        """
        return self._grow(None, reason=reason)

    def _grow(self, utilization: Optional[float], **detail: Any) -> bool:
        """Submit an add unless the policy ceiling or the worker share
        forbids it; True when it was submitted."""
        cluster = self.cluster
        hosts = len(cluster._live_hosts())
        if hosts >= self.policy.max_processes or cluster._add_share() < 1:
            return False
        cluster.add_process(at=cluster.sim.now)
        self._decided("add", utilization, hosts, **detail)
        return True

    def _decided(self, kind: str, utilization, hosts: int, **detail: Any) -> None:
        """Record a submitted decision and start the cooldown."""
        now = self.cluster.sim.now
        self.decisions.append(
            dict(kind=kind, at=now, utilization=utilization, hosts=hosts, **detail)
        )
        self._cooldown_until = now + self.policy.cooldown

    def _sample(self) -> None:
        cluster = self.cluster
        policy = self.policy
        now = cluster.sim.now
        hosting = cluster._live_hosts()
        utilization = self._utilization(len(hosting))
        self.samples.append((now, utilization, len(hosting)))
        signal = self._hysteresis.update(utilization)
        if now >= self._cooldown_until and not cluster.async_ckpt.moves:
            if signal == "high" and self._grow(utilization):
                self._hysteresis.acknowledge("high")
            elif signal == "low" and len(hosting) > max(
                1, policy.min_processes
            ):
                # Shed the highest-numbered removable host; process 0
                # (controller + accumulator) can never leave.
                candidates = [p for p in hosting if p != 0]
                if candidates:
                    victim = max(candidates)
                    cluster.remove_process(victim, at=now)
                    self._decided(
                        "remove", utilization, len(hosting), process=victim
                    )
                    self._hysteresis.acknowledge("low")
        self._arm()
