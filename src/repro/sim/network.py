"""Cluster network and micro-straggler models (paper sections 3.5, 5).

The evaluation cluster of the paper: two racks of 32 computers, Gigabit
Ethernet NICs, a 40 Gbps uplink per rack switch.  This module models the
pieces of that environment that shape the paper's results:

- **Links** with per-message latency and NIC bandwidth occupancy; a
  process's NIC serialises egress and ingress transfers, which creates
  the incast contention the paper observes at progress accumulators.
- **Micro-stragglers** (section 3.5): probabilistic packet loss that
  costs a retransmission timeout, and garbage-collection pauses that
  stall an entire process.  Both are switchable so benchmarks can show
  mitigated vs. unmitigated configurations (e.g. 20 ms vs. 300 ms
  minimum retransmit timers, Nagle delays on vs. off).
- **Traffic accounting** by category (``data`` vs. ``progress``), used
  directly by the Figure 6c reproduction.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from time import perf_counter
from typing import Callable, Dict, List, Tuple

from ..obs.trace import TraceEvent
from .des import Simulator


@dataclass
class NetworkConfig:
    """Tunable constants for the cluster model.

    Defaults approximate the paper's hardware (section 5): Gigabit
    Ethernet (125 MB/s), ~100 µs base one-way latency, Windows TCP
    tuning as described in section 3.5.
    """

    #: One-way propagation + protocol latency for a remote message (s).
    latency: float = 100e-6
    #: NIC bandwidth in bytes/second (Gigabit Ethernet).
    bandwidth: float = 125e6
    #: Fixed per-message wire overhead (headers, framing), bytes.
    per_message_bytes: int = 64
    #: Latency for a message between workers of the same process (s).
    local_latency: float = 2e-6
    #: Probability a message suffers a loss/retransmission event.
    packet_loss_probability: float = 0.0
    #: Delay paid on a loss (minimum retransmit timeout).  The paper
    #: reduces this from 300 ms (Windows default) to 20 ms.
    retransmit_timeout: float = 20e-3
    #: Nagle/delayed-ACK penalty applied to small messages when the
    #: default TCP configuration is left in place (0 = disabled, the
    #: tuned configuration of section 3.5).
    nagle_delay: float = 0.0
    #: Messages smaller than this are subject to the Nagle penalty.
    small_message_bytes: int = 512

    #: Mean interval between GC pauses per process (s); 0 disables GC.
    gc_interval: float = 0.0
    #: Mean GC pause duration (s).
    gc_pause: float = 0.0

    def __post_init__(self) -> None:
        # Eager validation: a mistyped constant surfaces here, at
        # construction, instead of as a nonsense virtual-time schedule
        # deep inside a run (same convention as FaultTolerance and the
        # rescale preconditions).
        if self.latency < 0:
            raise ValueError(
                "NetworkConfig.latency must be >= 0 (got %r)" % (self.latency,)
            )
        if self.local_latency < 0:
            raise ValueError(
                "NetworkConfig.local_latency must be >= 0 (got %r)"
                % (self.local_latency,)
            )
        if self.bandwidth <= 0:
            raise ValueError(
                "NetworkConfig.bandwidth must be > 0 bytes/s (got %r)"
                % (self.bandwidth,)
            )
        if self.per_message_bytes < 0:
            raise ValueError(
                "NetworkConfig.per_message_bytes must be >= 0 (got %r)"
                % (self.per_message_bytes,)
            )
        if not 0.0 <= self.packet_loss_probability <= 1.0:
            raise ValueError(
                "NetworkConfig.packet_loss_probability must be a "
                "probability in [0, 1] (got %r)"
                % (self.packet_loss_probability,)
            )
        if self.retransmit_timeout < 0:
            raise ValueError(
                "NetworkConfig.retransmit_timeout must be >= 0 (got %r)"
                % (self.retransmit_timeout,)
            )
        if self.nagle_delay < 0:
            raise ValueError(
                "NetworkConfig.nagle_delay must be >= 0 (got %r)"
                % (self.nagle_delay,)
            )
        if self.small_message_bytes < 0:
            raise ValueError(
                "NetworkConfig.small_message_bytes must be >= 0 (got %r)"
                % (self.small_message_bytes,)
            )
        if self.gc_interval < 0:
            raise ValueError(
                "NetworkConfig.gc_interval must be >= 0 (got %r)"
                % (self.gc_interval,)
            )
        if self.gc_pause < 0:
            raise ValueError(
                "NetworkConfig.gc_pause must be >= 0 (got %r)" % (self.gc_pause,)
            )
        if self.gc_pause > 0 and self.gc_interval == 0:
            raise ValueError(
                "NetworkConfig.gc_pause=%r needs gc_interval > 0: the "
                "pause duration is drawn per pause, but pauses are only "
                "scheduled when an interval is set" % (self.gc_pause,)
            )


@dataclass
class TrafficStats:
    """Bytes and message counts by traffic category."""

    bytes_by_kind: Dict[str, int] = field(default_factory=dict)
    messages_by_kind: Dict[str, int] = field(default_factory=dict)

    def record(self, kind: str, size: int, copies: int = 1) -> None:
        self.bytes_by_kind[kind] = self.bytes_by_kind.get(kind, 0) + size * copies
        self.messages_by_kind[kind] = self.messages_by_kind.get(kind, 0) + copies

    def bytes(self, kind: str) -> int:
        return self.bytes_by_kind.get(kind, 0)

    def messages(self, kind: str) -> int:
        return self.messages_by_kind.get(kind, 0)

    def total_bytes(self) -> int:
        return sum(self.bytes_by_kind.values())


class Network:
    """Point-to-point message delivery between processes.

    Remote messages occupy the sender's egress NIC and the receiver's
    ingress NIC for ``size / bandwidth`` seconds each, so concurrent
    transfers queue — reproducing both the throughput ceiling of Figure
    6a and the incast behaviour at accumulators.  Delivery between a
    pair of processes is FIFO (TCP in-order semantics).
    """

    def __init__(self, sim: Simulator, num_processes: int, config: NetworkConfig):
        self.sim = sim
        self.config = config
        self.num_processes = num_processes
        self.stats = TrafficStats()
        self._egress_free = [0.0] * num_processes
        self._ingress_free = [0.0] * num_processes
        self._fifo_last: Dict[Tuple[int, int], float] = {}
        self._gc_busy_until = [0.0] * num_processes
        #: Messages sent but not yet delivered or written off as lost.
        #: Failure injection zeroes it.
        self.in_flight = 0
        #: The subset of :attr:`in_flight` that is failure-detector
        #: heartbeat traffic.  Heartbeats flow for as long as the
        #: computation runs, so quiescence checks
        #: (``RecoveryManager.quiescent``) use :attr:`data_in_flight` —
        #: they would otherwise never fire with a supervisor attached.
        self.heartbeat_in_flight = 0
        self._generation = 0
        #: Injected network partitions (see :meth:`partition`): dicts
        #: with keys ``a``, ``b``, ``start``, ``heal`` (None = never
        #: heals) and ``one_way``.
        self.partitions = []
        #: Messages silently lost to a never-healing partition.
        self.partition_drops = 0
        #: Observability sink (repro.obs.TraceSink); None = tracing off.
        self.trace = None
        if config.gc_interval > 0:
            for process in range(num_processes):
                self._schedule_gc(process)

    # ------------------------------------------------------------------
    # GC pauses (section 3.5): a paused process neither sends nor
    # receives until the collector finishes.
    # ------------------------------------------------------------------

    def _schedule_gc(self, process: int) -> None:
        interval = self.sim.rng.expovariate(1.0 / self.config.gc_interval)
        self.sim.schedule_background(interval, self._gc_pause, process)

    def _gc_pause(self, process: int) -> None:
        duration = self.sim.rng.expovariate(1.0 / self.config.gc_pause)
        self._gc_busy_until[process] = max(
            self._gc_busy_until[process], self.sim.now + duration
        )
        self._schedule_gc(process)

    def process_available_at(self, process: int) -> float:
        """Earliest time the process can do work (after any GC pause)."""
        return max(self.sim.now, self._gc_busy_until[process])

    @property
    def data_in_flight(self) -> int:
        """In-flight messages excluding detector heartbeats — the count
        quiescence-sensitive machinery waits on."""
        return self.in_flight - self.heartbeat_in_flight

    # ------------------------------------------------------------------
    # Elastic rescaling.
    # ------------------------------------------------------------------

    def add_process(self) -> int:
        """Grow the topology by one process and return its index.

        The new process gets fresh NIC occupancy state and (when the
        straggler model is on) its own GC pause schedule.  Departed
        processes keep their slots — process indices are stable for the
        life of the simulation — so removal needs no network change.
        """
        process = self.num_processes
        self.num_processes += 1
        self._egress_free.append(0.0)
        self._ingress_free.append(0.0)
        self._gc_busy_until.append(0.0)
        if self.config.gc_interval > 0:
            self._schedule_gc(process)
        return process

    # ------------------------------------------------------------------
    # Network partitions (fault injection for the failure detector).
    # ------------------------------------------------------------------

    def partition(
        self,
        a: int,
        b: int,
        at: float = None,
        heal_at: float = None,
        one_way: bool = False,
    ) -> Dict:
        """Cut the link between processes ``a`` and ``b``.

        TCP-retransmit semantics: a message sent across the cut while
        the partition is active is not lost outright — the sender keeps
        retransmitting, and the message arrives one latency after
        ``heal_at`` (plus any queueing it would have paid anyway).  A
        partition with ``heal_at=None`` never heals: affected messages
        are dropped silently (counted in :attr:`partition_drops`), which
        is what makes a one-way partition produce a *zombie* — a process
        that keeps talking but can no longer be heard.

        ``one_way`` blocks only the ``a -> b`` direction; the default
        cuts both.  Returns the partition record (mutable: a test can
        adjust ``heal`` before traffic crosses it).
        """
        if a == b:
            raise ValueError("partition(%d, %d): a process cannot be "
                             "partitioned from itself" % (a, b))
        for process in (a, b):
            if not 0 <= process < self.num_processes:
                raise ValueError(
                    "partition endpoint %d out of range (network has %d "
                    "processes)" % (process, self.num_processes)
                )
        start = self.sim.now if at is None else at
        if heal_at is not None and heal_at <= start:
            raise ValueError(
                "partition heal_at=%r must be after its start %r"
                % (heal_at, start)
            )
        record = {"a": a, "b": b, "start": start, "heal": heal_at,
                  "one_way": one_way}
        self.partitions.append(record)
        return record

    def _partition_barrier(self, src: int, dst: int, at: float):
        """Earliest time a ``src -> dst`` message sent at ``at`` can get
        through the active partitions: None when unobstructed, ``inf``
        when a never-healing partition swallows it, else the latest heal
        time among the partitions cutting the direction."""
        barrier = None
        for part in self.partitions:
            if at < part["start"]:
                continue
            heal = part["heal"]
            if heal is not None and at >= heal:
                continue
            if not (
                (part["a"] == src and part["b"] == dst)
                or (not part["one_way"] and part["a"] == dst and part["b"] == src)
            ):
                continue
            if heal is None:
                return float("inf")
            barrier = heal if barrier is None else max(barrier, heal)
        return barrier

    # ------------------------------------------------------------------
    # Message delivery.
    # ------------------------------------------------------------------

    def send(self, src: int, dst: int, size: int, kind: str, fn: Callable, *args) -> float:
        """Model sending ``size`` payload bytes from ``src`` to ``dst``.

        ``fn(*args)`` runs at the (virtual) arrival time, which is also
        returned — unless a failure tears the channel down first, or a
        never-healing partition swallows the message, in which case the
        returned time is when the loss is written off and ``fn`` never
        runs.  ``kind`` tags the traffic for accounting.
        """
        wire_size = size + self.config.per_message_bytes
        self.stats.record(kind, wire_size)
        return self._copy(src, dst, wire_size, kind, self._generation, fn, args)

    def multicast(
        self, src: int, dsts: List[int], size: int, kind: str, fn: Callable, *args
    ) -> None:
        """Send ``size`` payload bytes from ``src`` to each of ``dsts``.

        Exactly one :meth:`send` per destination in ``dsts`` order —
        the same arrival times, event sequence numbers and random draws
        — but one stats update; each copy calls ``fn(dst, *args)`` on
        arrival.
        """
        wire_size = size + self.config.per_message_bytes
        self.stats.record(kind, wire_size, len(dsts))
        generation = self._generation
        for dst in dsts:
            self._copy(src, dst, wire_size, kind, generation, fn, (dst,) + args)

    def _copy(
        self, src: int, dst: int, wire_size: int, kind: str, generation: int, fn, args
    ) -> float:
        """Schedule one copy's arrival: NIC occupancy, Nagle, loss, GC,
        partitions and per-pair FIFO, in that order."""
        config = self.config
        now = self.sim.now
        self.in_flight += 1
        heartbeat = kind == "heartbeat"
        if heartbeat:
            self.heartbeat_in_flight += 1
        if src == dst:
            arrival = now + config.local_latency
        else:
            transfer = wire_size / config.bandwidth
            start = max(now, self._egress_free[src], self._gc_busy_until[src])
            self._egress_free[src] = start + transfer
            # Cut-through: bytes stream, so the receive occupies the
            # ingress NIC for one transfer time beginning when the first
            # byte lands (or when the NIC frees up, under incast
            # contention).
            receive_start = max(start + config.latency, self._ingress_free[dst])
            arrival = receive_start + transfer
            self._ingress_free[dst] = arrival
            if (
                config.nagle_delay > 0
                and wire_size < config.small_message_bytes
            ):
                arrival += config.nagle_delay
            if (
                config.packet_loss_probability > 0
                and self.sim.rng.random() < config.packet_loss_probability
            ):
                arrival += config.retransmit_timeout
            arrival = max(arrival, self._gc_busy_until[dst])
            if self.partitions:
                barrier = self._partition_barrier(src, dst, now)
                if barrier is not None:
                    if barrier == float("inf"):
                        # A never-healing cut: the packet and all its
                        # retransmissions die.  The loss still settles
                        # the in-flight accounting at the nominal
                        # arrival time so quiescence checks are not
                        # pinned forever.
                        self.partition_drops += 1
                        self.sim.schedule_at(
                            arrival, self._arrive, generation, heartbeat, None, args
                        )
                        return arrival
                    # Retransmissions succeed one latency after the heal.
                    arrival = max(arrival, barrier + config.latency)
            # FIFO per process pair.
            key = (src, dst)
            arrival = max(arrival, self._fifo_last.get(key, 0.0))
            self._fifo_last[key] = arrival
        self.sim.schedule_at(arrival, self._arrive, generation, heartbeat, fn, args)
        trace = self.trace
        if trace is not None:
            trace.emit(
                TraceEvent(
                    "message",
                    now,
                    arrival - now,
                    perf_counter(),
                    -1,
                    src,
                    "",
                    (),
                    (src, dst, wire_size, kind),
                )
            )
        return arrival

    def _arrive(self, generation: int, heartbeat: bool, fn, args: Tuple) -> None:
        """One copy reaches its destination (``fn`` None: it was lost)."""
        # A failure between send and arrival tears the channel down
        # (generation bump); the message is lost with the process.
        if generation != self._generation:
            return
        self.in_flight -= 1
        if heartbeat:
            self.heartbeat_in_flight -= 1
        if fn is not None:
            fn(*args)

    # ------------------------------------------------------------------
    # Failure injection (section 3.4).
    # ------------------------------------------------------------------

    def teardown_inflight(self) -> None:
        """Drop every message currently in flight.

        Called when a process is killed: TCP connections to the dead
        process reset, and because recovery rolls *all* processes back to
        the last consistent checkpoint, surviving in-flight traffic
        belongs to the abandoned execution too.  Already-scheduled
        delivery events become no-ops via the generation check, and
        transport state (NIC occupancy, per-pair FIFO ordering) resets
        for the fresh connections of the recovered cluster.
        """
        self._generation += 1
        self.in_flight = 0
        self.heartbeat_in_flight = 0
        self._egress_free = [0.0] * self.num_processes
        self._ingress_free = [0.0] * self.num_processes
        self._fifo_last.clear()
