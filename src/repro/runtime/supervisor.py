"""Heartbeat failure detection and supervised self-healing recovery.

Every failure the runtime could survive before this module was
*announced*: :meth:`ClusterComputation.kill_process` tells the
coordinator exactly who died and when.  Naiad section 3.5 shows why
detection is the hard part of production fault tolerance —
micro-stragglers (GC pauses, retransmit timeouts) are indistinguishable
from crashes on short horizons, so a fixed timeout either fires on
every collection pause or takes seconds to notice a real death.

This module closes that gap with three cooperating pieces:

**The detector** (:class:`PhiAccrualDetector`) is a phi-accrual accrual
failure detector (Hayashibara et al.): every monitored process sends
periodic heartbeats to process 0 *over the simulated network*, so
heartbeat traffic pays real latency, NIC occupancy and GC-pause costs —
a long collection on the monitored process genuinely delays its
heartbeats and genuinely risks false suspicion.  The detector keeps a
sliding window of observed inter-arrival gaps and computes

    phi(t) = -log10( P(next heartbeat arrives later than t) )

under a normal fit of the window.  Suspicion triggers when phi crosses
a threshold, i.e. at ``last_arrival + mu + z* sigma`` where ``z*`` is
the normal quantile of the threshold — an *adaptive* deadline that
stretches when the link is noisy (recurring GC pauses inflate sigma)
and tightens when it is quiet.

**The fence**: suspicion may be wrong (the process may merely be slow,
partitioned, or paused), so before recovery starts the suspected
incarnation is *fenced* — its per-process generation number advances,
every data message it stamped becomes provably stale and is discarded
at delivery, and its outstanding progress-protocol copies are settled
so all views agree on its final effects (see
:meth:`ClusterComputation._fence_process`).  A fenced zombie can keep
talking forever; nothing it says is ever applied.

**The supervisor** (:class:`Supervisor`) drives suspect -> fence ->
recover -> reintegrate automatically through the *same*
:meth:`RecoveryManager.fail_process` path the oracle uses, so outputs
are bit-identical to oracle-driven recovery.  Restart delays back off
exponentially with jitter across repeated deaths, and a process that
dies ``quarantine_deaths`` times inside ``quarantine_window`` is
evicted from the membership entirely (the planned-departure
bookkeeping of ``remove_process``) with the :class:`Autoscaler`
backfilling a replacement.
"""

from __future__ import annotations

import math
import random
from collections import deque
from dataclasses import dataclass
from statistics import NormalDist
from time import perf_counter
from typing import Any, Deque, Dict, List, Optional

from ..obs.trace import TraceEvent

_SQRT2 = math.sqrt(2.0)


class PhiAccrualDetector:
    """Adaptive suspicion over one process's heartbeat inter-arrivals.

    ``heartbeat(now)`` records an arrival; :meth:`phi` reports the
    current suspicion level and :meth:`deadline` the absolute virtual
    time at which phi will cross a given normal quantile if no further
    heartbeat lands — the supervisor schedules its checks there instead
    of polling.
    """

    __slots__ = ("window", "min_std", "min_samples", "intervals", "last_arrival")

    def __init__(self, window: int, min_std: float, min_samples: int):
        self.window = window
        self.min_std = min_std
        self.min_samples = min_samples
        self.intervals: Deque[float] = deque(maxlen=window)
        self.last_arrival: Optional[float] = None

    def heartbeat(self, now: float) -> Optional[float]:
        """Record an arrival; returns the observed gap (None if first)."""
        gap = None
        if self.last_arrival is not None:
            gap = now - self.last_arrival
            self.intervals.append(gap)
        self.last_arrival = now
        return gap

    @property
    def ready(self) -> bool:
        """Enough samples to trust the normal fit."""
        return len(self.intervals) >= self.min_samples

    def _mu_sigma(self):
        samples = self.intervals
        mu = sum(samples) / len(samples)
        var = sum((x - mu) ** 2 for x in samples) / len(samples)
        # The floor keeps a perfectly regular window (sigma -> 0) from
        # collapsing the deadline onto the mean, where ordinary network
        # jitter would trip it.
        return mu, max(math.sqrt(var), self.min_std)

    def phi(self, now: float) -> float:
        """Suspicion level at ``now`` (0 when the window is cold)."""
        if self.last_arrival is None or not self.ready:
            return 0.0
        mu, sigma = self._mu_sigma()
        elapsed = now - self.last_arrival
        p_later = 0.5 * math.erfc((elapsed - mu) / (sigma * _SQRT2))
        if p_later <= 0.0:
            return float("inf")
        return -math.log10(p_later)

    def deadline(self, z: float) -> Optional[float]:
        """Absolute time phi first crosses the threshold whose normal
        quantile is ``z``; None while the window is cold."""
        if self.last_arrival is None or not self.ready:
            return None
        mu, sigma = self._mu_sigma()
        return self.last_arrival + mu + z * sigma


@dataclass
class SupervisorConfig:
    """Tuning for the failure detector and the recovery state machine."""

    #: Heartbeat period per monitored process (virtual seconds).
    heartbeat_interval: float = 0.5e-3
    #: Heartbeat payload size (bytes on the wire, plus framing).
    heartbeat_bytes: int = 16
    #: Suspect when phi crosses this (phi 8 ~ a 1e-8 false-positive
    #: probability per check under the normal fit).
    phi_threshold: float = 8.0
    #: Inter-arrival window length (samples).
    window: int = 32
    #: Samples required before the adaptive deadline is trusted; until
    #: then ``bootstrap_timeout`` after the last arrival applies.
    min_samples: int = 8
    #: Floor on the fitted sigma (seconds).
    min_std: float = 50e-6
    #: Cold-start deadline: suspect a process that goes silent for this
    #: long before its window has warmed up.
    bootstrap_timeout: float = 20e-3
    #: A gap beyond ``naive_multiplier * heartbeat_interval`` counts as
    #: a naive-timeout violation — the false positives a fixed-timeout
    #: detector would have fired (reported, never acted on).
    naive_multiplier: float = 3.0
    #: Base restart delay for supervised recovery; None uses the
    #: cluster's ``FaultTolerance.restart_delay``.
    backoff_base: Optional[float] = None
    #: Exponential backoff factor across deaths in the window.
    backoff_factor: float = 2.0
    #: Backoff ceiling (seconds).
    backoff_max: float = 0.5
    #: Jitter fraction added on top of the deterministic backoff (drawn
    #: from the supervisor's own seeded RNG, never the simulator's —
    #: a draw from ``sim.rng`` would shift the GC/loss schedule and
    #: break bit-identity with oracle-driven recovery).
    backoff_jitter: float = 0.1
    #: Deaths inside ``quarantine_window`` that trigger eviction.
    quarantine_deaths: int = 3
    #: Crash-loop observation window (virtual seconds).
    quarantine_window: float = 5.0
    #: Recovery placement override ("restart" / "reassign"); None
    #: follows ``FaultTolerance.recovery``.
    placement: Optional[str] = None
    #: Seed for the jitter RNG.
    seed: int = 0

    def __post_init__(self) -> None:
        if self.heartbeat_interval <= 0:
            raise ValueError(
                "SupervisorConfig.heartbeat_interval must be > 0 (got %r)"
                % (self.heartbeat_interval,)
            )
        if self.heartbeat_bytes < 0:
            raise ValueError(
                "SupervisorConfig.heartbeat_bytes must be >= 0 (got %r)"
                % (self.heartbeat_bytes,)
            )
        if self.phi_threshold <= 0:
            raise ValueError(
                "SupervisorConfig.phi_threshold must be > 0 (got %r)"
                % (self.phi_threshold,)
            )
        if self.min_samples < 2:
            raise ValueError(
                "SupervisorConfig.min_samples must be >= 2 (got %r)"
                % (self.min_samples,)
            )
        if self.window < self.min_samples:
            raise ValueError(
                "SupervisorConfig.window (%r) must be >= min_samples (%r)"
                % (self.window, self.min_samples)
            )
        if self.min_std <= 0:
            raise ValueError(
                "SupervisorConfig.min_std must be > 0 (got %r)" % (self.min_std,)
            )
        if self.bootstrap_timeout <= self.heartbeat_interval:
            raise ValueError(
                "SupervisorConfig.bootstrap_timeout (%r) must exceed the "
                "heartbeat_interval (%r): a cold-start deadline shorter "
                "than one period suspects every process immediately"
                % (self.bootstrap_timeout, self.heartbeat_interval)
            )
        if self.naive_multiplier <= 0:
            raise ValueError(
                "SupervisorConfig.naive_multiplier must be > 0 (got %r)"
                % (self.naive_multiplier,)
            )
        if self.backoff_base is not None and self.backoff_base < 0:
            raise ValueError(
                "SupervisorConfig.backoff_base must be >= 0 (got %r)"
                % (self.backoff_base,)
            )
        if self.backoff_factor < 1.0:
            raise ValueError(
                "SupervisorConfig.backoff_factor must be >= 1 (got %r)"
                % (self.backoff_factor,)
            )
        if not 0.0 <= self.backoff_jitter < 1.0:
            raise ValueError(
                "SupervisorConfig.backoff_jitter must be in [0, 1) (got %r)"
                % (self.backoff_jitter,)
            )
        if self.quarantine_deaths < 1:
            raise ValueError(
                "SupervisorConfig.quarantine_deaths must be >= 1 (got %r)"
                % (self.quarantine_deaths,)
            )
        if self.quarantine_window <= 0:
            raise ValueError(
                "SupervisorConfig.quarantine_window must be > 0 (got %r)"
                % (self.quarantine_window,)
            )
        if self.placement is not None and self.placement not in (
            "restart",
            "reassign",
        ):
            raise ValueError(
                "SupervisorConfig.placement must be None, 'restart' or "
                "'reassign' (got %r)" % (self.placement,)
            )


class Supervisor:
    """The self-healing control loop, hosted on process 0.

    ::

        comp.build()
        supervisor = comp.attach_supervisor(SupervisorConfig(...))
        ... drive inputs; crashes are detected and recovered unaided ...

    Heartbeat sends ride :meth:`Simulator.schedule_background` (the
    environment never keeps a finished simulation alive on its own);
    the suspicion deadline check is a *foreground* event so the clock
    keeps moving through the silent window after a crash, but it parks
    itself as a background reprobe whenever the computation has nothing
    outstanding — a drained cluster can always finish its run.
    """

    def __init__(
        self,
        cluster,
        config: Optional[SupervisorConfig] = None,
        autoscaler=None,
    ) -> None:
        cluster._check_built()
        self.cluster = cluster
        self.config = config or SupervisorConfig()
        #: Optional repro.runtime.rescale.Autoscaler; quarantine asks it
        #: to backfill the evicted process.
        self.autoscaler = autoscaler
        self._z = NormalDist().inv_cdf(1.0 - 10.0 ** -self.config.phi_threshold)
        self._rng = random.Random("supervisor:%r" % (self.config.seed,))
        self.detectors: Dict[int, PhiAccrualDetector] = {}
        #: Virtual time monitoring (re)started per process; the
        #: bootstrap deadline runs from here until the window warms.
        self._monitor_since: Dict[int, float] = {}
        #: Per-process heartbeat-chain epoch; a stale chain event whose
        #: epoch no longer matches dies silently (reintegration starts
        #: a fresh chain).
        self._chain_epoch: Dict[int, int] = {}
        self._deadline_token = 0
        #: Processes whose next heartbeat arrival should reset the
        #: inter-arrival clock instead of recording a gap (the chain
        #: idled with the computation; the gap is not silence).
        self._skip_gap: set = set()
        self._started = False
        #: Recent death times per process (the quarantine window).
        self.deaths: Dict[int, List[float]] = {}
        #: One record per suspicion acted on.
        self.suspicions: List[Dict[str, Any]] = []
        #: Processes evicted for crash-looping.
        self.quarantined: List[int] = []
        #: Gaps that would have tripped a naive fixed timeout.
        self.naive_violations = 0
        #: Stale-incarnation heartbeats discarded at process 0.
        self.heartbeat_drops = 0
        self.heartbeats_seen: Dict[int, int] = {}

    # ------------------------------------------------------------------
    # Lifecycle.
    # ------------------------------------------------------------------

    def start(self) -> "Supervisor":
        """Begin monitoring every live process (idempotent)."""
        if self._started:
            return self
        self._started = True
        for process in list(self.cluster.live_processes):
            if process != 0 and self._process_alive(process):
                self._monitor(process)
        self._arm_deadline()
        return self

    def monitored(self) -> List[int]:
        return sorted(self.detectors)

    def _monitor(self, process: int) -> None:
        config = self.config
        self.detectors[process] = PhiAccrualDetector(
            config.window, config.min_std, config.min_samples
        )
        self._monitor_since[process] = self.cluster.sim.now
        self._chain_epoch[process] = self._chain_epoch.get(process, 0) + 1
        self._schedule_heartbeat(process, self._chain_epoch[process])

    def _unmonitor(self, process: int) -> None:
        self.detectors.pop(process, None)
        self._monitor_since.pop(process, None)
        self._chain_epoch[process] = self._chain_epoch.get(process, 0) + 1

    def _process_alive(self, process: int) -> bool:
        for worker in self.cluster.workers:
            if worker.process == process and not worker.dead:
                return True
        return False

    # ------------------------------------------------------------------
    # The heartbeat plane.
    # ------------------------------------------------------------------

    def _schedule_heartbeat(self, process: int, epoch: int) -> None:
        self.cluster.sim.schedule_background(
            self.config.heartbeat_interval,
            lambda: self._send_heartbeat(process, epoch),
        )

    def _send_heartbeat(self, process: int, epoch: int) -> None:
        if self._chain_epoch.get(process) != epoch:
            return  # superseded chain (the process was fenced/re-monitored)
        if not self._process_alive(process):
            return  # a silent crash kills the heartbeat source with it
        cluster = self.cluster
        if not self._computation_active():
            # Idle cluster: sending would put a foreground delivery on
            # the clock and the chain would keep a finished run alive
            # forever.  Stay parked in the background (which dies with
            # the run and resumes, at correct times, with the next one)
            # and skip the idle gap on the next arrival — it is not
            # silence.
            self._skip_gap.add(process)
            self._schedule_heartbeat(process, epoch)
            return
        generation = cluster.generations[process]
        cluster.network.send(
            process,
            0,
            self.config.heartbeat_bytes,
            "heartbeat",
            lambda: self._on_heartbeat(process, generation),
        )
        self._schedule_heartbeat(process, epoch)

    def _on_heartbeat(self, process: int, generation: int) -> None:
        cluster = self.cluster
        now = cluster.sim.now
        if cluster.generations[process] != generation:
            # A fenced incarnation's heartbeat straggling in (e.g. a
            # one-way partition healed): provably stale, discarded.
            self.heartbeat_drops += 1
            self._trace("drop", process, ("stale-heartbeat", process, generation))
            return
        detector = self.detectors.get(process)
        if detector is None:
            return  # no longer monitored (reassigned away / quarantined)
        self.heartbeats_seen[process] = self.heartbeats_seen.get(process, 0) + 1
        if process in self._skip_gap:
            # First arrival after the chain idled: reset the clock
            # without recording the idle stretch as an inter-arrival.
            self._skip_gap.discard(process)
            detector.last_arrival = now
            self._arm_deadline()
            return
        gap = detector.heartbeat(now)
        if (
            gap is not None
            and gap > self.config.naive_multiplier * self.config.heartbeat_interval
        ):
            self.naive_violations += 1
        self._arm_deadline()

    # ------------------------------------------------------------------
    # The suspicion deadline (foreground, token-guarded).
    # ------------------------------------------------------------------

    def _deadline_for(self, process: int) -> float:
        detector = self.detectors[process]
        deadline = detector.deadline(self._z)
        if deadline is None:
            anchor = detector.last_arrival
            if anchor is None:
                anchor = self._monitor_since[process]
            deadline = anchor + self.config.bootstrap_timeout
        return deadline

    def _next_deadline(self) -> Optional[float]:
        if not self.detectors:
            return None
        return min(self._deadline_for(p) for p in self.detectors)

    def _arm_deadline(self) -> None:
        deadline = self._next_deadline()
        if deadline is None:
            return  # nothing monitored
        self._deadline_token += 1
        token = self._deadline_token
        sim = self.cluster.sim
        sim.schedule_at(max(sim.now, deadline), lambda: self._check(token))

    def _park(self) -> None:
        """Nothing outstanding: wait in the background so the run can
        drain; fresh foreground activity wakes the check back up."""
        self._deadline_token += 1
        token = self._deadline_token

        def wake() -> None:
            if token != self._deadline_token:
                return
            # The idle gap is not silence — restart the arrival clocks
            # so it cannot be misread as missed heartbeats.
            now = self.cluster.sim.now
            for detector in self.detectors.values():
                if detector.last_arrival is not None:
                    detector.last_arrival = now
            self._arm_deadline()

        self.cluster.sim.schedule_background(
            self.config.heartbeat_interval, wake
        )

    def _computation_active(self) -> bool:
        """True while any pointstamp is outstanding anywhere.

        Crucially this includes work *lost in a silent crash*: the dead
        workers' occurrence counts stay in every view until recovery
        replays them, so a stuck cluster keeps the suspicion deadline
        in the foreground (the clock advances to it) instead of letting
        the run drain around the hole."""
        cluster = self.cluster
        if cluster.network.data_in_flight:
            return True
        for view in cluster.plane.agreeing_views(live_only=True):
            if len(view.state):
                return True
        for worker in cluster.workers:
            if worker.has_work():
                return True
        return False

    def _check(self, token: int) -> None:
        if token != self._deadline_token:
            return
        if not self.detectors:
            return
        if not self._computation_active():
            self._park()
            return
        now = self.cluster.sim.now
        overdue = [
            process
            for process in sorted(self.detectors)
            if self._deadline_for(process) <= now
        ]
        for process in overdue:
            self._suspect(process)
        if self.detectors:
            self._arm_deadline()

    # ------------------------------------------------------------------
    # Suspicion -> fence -> recover -> reintegrate.
    # ------------------------------------------------------------------

    def _backoff(self, attempt: int) -> float:
        config = self.config
        base = config.backoff_base
        if base is None:
            base = self.cluster.fault_tolerance.restart_delay
        delay = min(
            base * config.backoff_factor ** max(0, attempt - 1),
            max(base, config.backoff_max),
        )
        return delay * (1.0 + config.backoff_jitter * self._rng.random())

    def _suspect(self, process: int) -> None:
        cluster = self.cluster
        config = self.config
        now = cluster.sim.now
        detector = self.detectors[process]
        phi = detector.phi(now)
        recent = [
            t
            for t in self.deaths.get(process, [])
            if now - t <= config.quarantine_window
        ]
        recent.append(now)
        self.deaths[process] = recent
        seen = self.heartbeats_seen.get(process, 0)
        self._trace(
            "suspect",
            process,
            (phi if math.isfinite(phi) else -1.0, seen, len(recent)),
        )
        self._unmonitor(process)
        record = {
            "process": process,
            "at": now,
            "phi": phi,
            "heartbeats": seen,
            "deaths_in_window": len(recent),
            "action": "recover",
        }
        self.suspicions.append(record)
        if len(recent) >= config.quarantine_deaths and self._can_quarantine():
            record["action"] = "quarantine"
            self._quarantine(process, record)
            return
        policy = config.placement
        delay = self._backoff(len(recent))
        record["restart_delay"] = delay
        cluster.recovery.fail_process(
            process, policy=policy, restart_delay=delay
        )
        failure = cluster.recovery.failures[-1] if cluster.recovery.failures else None
        if failure is not None and failure["process"] == process:
            record["mode"] = failure["mode"]
            record["ready"] = failure["ready"]
            if failure["policy"] == "restart":
                # Reintegrate: the process comes back at `ready` as a
                # fresh incarnation; resume monitoring from there.
                self._remonitor_at(process, failure["ready"])
        self._arm_deadline()

    def _remonitor_at(self, process: int, ready: float) -> None:
        def reintegrate() -> None:
            if process in self.detectors:
                return
            cluster = self.cluster
            if process in cluster._removed_processes:
                return
            recovery = cluster.recovery
            if recovery is not None and process in recovery.dead_processes:
                return  # reassigned away in the meantime; nothing to watch
            # Monitor even if the process crashed *again* while it was
            # recovering: the fresh (cold) window sends no heartbeats
            # from a dead process, so the bootstrap deadline re-suspects
            # it — without this, a crash inside the recovery window
            # would go unwatched forever.
            self._monitor(process)
            self._arm_deadline()

        sim = self.cluster.sim
        sim.schedule_at(max(sim.now, ready), reintegrate)

    def _can_quarantine(self) -> bool:
        cluster = self.cluster
        try:
            cluster._check_rescalable("quarantine")
        except ValueError:
            return False
        # Eviction must leave a live host behind.
        return len(cluster._live_hosts()) > 1

    def _quarantine(self, process: int, record: Dict[str, Any]) -> None:
        """Crash loop: rehome the workers onto the survivors, drop the
        process from the membership for good, and backfill."""
        cluster = self.cluster
        now = cluster.sim.now
        cluster.recovery.fail_process(
            process, policy="reassign", restart_delay=self._backoff(1)
        )
        failure = cluster.recovery.failures[-1] if cluster.recovery.failures else None
        if failure is not None and failure["process"] == process:
            record["mode"] = failure["mode"]
            record["ready"] = failure["ready"]
        # The reassign recovery moved every worker off the process, so
        # eviction is the pure-bookkeeping branch of the remove_process
        # path (membership drop + rescale record).
        cluster._execute_remove(process)
        self.quarantined.append(process)
        self._trace("quarantine", process, (len(self.deaths.get(process, ())),))
        backfilled = False
        if self.autoscaler is not None:
            backfilled = self.autoscaler.backfill(reason="quarantine")
        record["backfilled"] = backfilled
        self._arm_deadline()

    # ------------------------------------------------------------------
    # Tracing.
    # ------------------------------------------------------------------

    def _trace(self, phase: str, process: int, detail: tuple) -> None:
        trace = self.cluster._trace
        if trace is None:
            return
        trace.emit(
            TraceEvent(
                "detect",
                self.cluster.sim.now,
                0.0,
                perf_counter(),
                -1,
                process,
                phase,
                (),
                detail,
            )
        )

    def __repr__(self) -> str:
        return "Supervisor(monitoring=%r, suspicions=%d, quarantined=%r)" % (
            self.monitored(),
            len(self.suspicions),
            self.quarantined,
        )
