"""The fused super-vertex produced by the operator-fusion pass.

A :class:`FusedVertex` owns a pipeline of constituent vertices (built
from the original stages' factories) and runs the whole chain
synchronously inside one callback: a constituent's ``send_by`` becomes a
direct ``on_recv`` on the next constituent, and only the tail's output
leaves the fused stage.  One DES event therefore carries the Python work
of the entire chain — the point of fusion: per-event overhead (dispatch,
progress updates, queue traffic) is paid once instead of once per
operator, which fattens callback bodies.

Notifications are deduplicated at the fused boundary: however many
constituents request a notification at timestamp ``t``, the fused vertex
holds a single outer request and, when it is granted, dispatches the
constituents' ``on_notify(t)`` in chain order — upstream first, so a
buffering constituent's emission at ``t`` reaches its downstream
neighbours before their own completions run, exactly the order the
unfused plan guarantees via the frontier.  A downstream constituent
that first requests ``t`` during that grant (its only input at ``t``
was an upstream completion) runs later in the same grant: the grant
already proves nothing outside the chain can still reach ``t``, and
its turn comes only after every constituent upstream of it has run.

The outer request keeps the kind of its constituents' requests (section
2.4): it holds a capability only if some constituent asked for one at
``t``, and is a capability-free cleanup otherwise, which delays no one.
Cleanups are settled at the end of each fused callback, so a
constituent that asks for a cleanup and then a capability at ``t`` in
one callback costs one outer notification, as it did before fusion.
When a cleanup and a capability are both held at ``t``, the capability
is delivered first (they share one pointstamp, and a worker serves
notifications before cleanups), so it runs every constituent due at
``t`` and the cleanup then finds nothing left.

Fault tolerance composes: ``checkpoint()`` snapshots every constituent
(each applying its own ``_CONFIG_ATTRS`` exclusions, so the composite
state round-trips through pickle) plus the pending-notification table,
and ``restore()`` rolls each constituent back — the section 3.4 recovery
machinery works unchanged.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Tuple

from ..core.timestamp import Timestamp
from ..core.vertex import Vertex, snapshot_copy

#: Bits of :attr:`FusedVertex._outer`: the outer requests held at a time.
_CAPABILITY = 1
_CLEANUP = 2


class _ChainHarness:
    """The private harness constituents run under inside a fused vertex.

    Routes a constituent's ``send`` to the next constituent's
    ``on_recv`` (synchronously, same timestamp) and the tail's ``send``
    out through the fused vertex.  Notification requests are folded into
    the fused vertex's pending table.  ``total_workers`` delegates to
    the fused vertex's *current* harness, so constituents see the right
    peer count in every execution context (reference runtime, DES
    worker, pool child) without rebinding.
    """

    __slots__ = ("fused",)

    def __init__(self, fused: "FusedVertex"):
        self.fused = fused

    @property
    def total_workers(self) -> int:
        return self.fused._harness.total_workers

    def deliver(self, position: int, records: List[Any], timestamp: Timestamp) -> None:
        """Dispatch a batch to a constituent; a failure names the
        constituent before it propagates."""
        fused = self.fused
        target = fused.parts[position]
        if position:
            # Fusion saves per-event overhead, not per-record work: the
            # runtime bills the head for the delivered batch, and every
            # later constituent for the records it is actually handed.
            fused._harness.charge(records)
        try:
            target.on_recv(0, records, timestamp)
        except Exception as exc:
            fused._blame(exc, position)
            raise

    def send(
        self, vertex: Vertex, output_port: int, records: List[Any], timestamp: Timestamp
    ) -> None:
        if output_port != 0:
            raise ValueError(
                "fused constituents are single-output (got port %d)" % output_port
            )
        parts = self.fused.parts
        # Chains are a handful of operators long: a scan by identity
        # beats building a position index for every fused vertex.
        position = parts.index(vertex) + 1
        if position == len(parts):
            self.fused.send_by(0, records, timestamp)
        else:
            self.deliver(position, records, timestamp)

    def request_notification(
        self, vertex: Vertex, timestamp: Timestamp, capability: bool = True
    ) -> None:
        self.fused._request(self.fused.parts.index(vertex), timestamp, capability)


class FusedVertex(Vertex):
    """A pipeline of unary vertices executing as one physical vertex.

    Constituents must be 1-in/1-out operators (the tail may be a
    1-in/0-out sink) that request at most one notification per
    timestamp and send only at the time of the running callback — the
    properties the fusion pass checks via ``OpSpec`` before building
    this vertex.
    """

    # The constituent list and chain harness contain user closures and
    # back-references; per-constituent state is captured explicitly by
    # the composite checkpoint below.
    _CONFIG_ATTRS = ("names", "parts", "_chain")

    def __init__(self, parts: List[Vertex], names: Tuple[str, ...]):
        super().__init__()
        if not parts:
            raise ValueError("a fused vertex needs at least one constituent")
        self.parts = list(parts)
        self.names = tuple(names)
        self._chain = chain = _ChainHarness(self)
        notifies = False
        for part in self.parts:
            part._harness = chain
            notifies = notifies or part.notifies
        self.notifies = notifies
        #: Timestamp -> {constituent position: whether it asked for a
        #: capability} for the constituents awaiting on_notify there.
        self._pending: Dict[Timestamp, Dict[int, bool]] = {}
        #: Timestamp -> the outer requests held there, a bit mask of
        #: _CAPABILITY and _CLEANUP.
        self._outer: Dict[Timestamp, int] = {}
        #: Times a constituent asked a cleanup at during the running
        #: callback, settled at its end.
        self._touched: Dict[Timestamp, None] = {}
        #: While on_notify(t) runs: ``(t, positions due in this grant,
        #: positions held for the next one)``, and the running position.
        self._grant: Optional[Tuple[Timestamp, Dict[int, bool], Dict[int, bool]]] = None
        self._running = 0

    # ------------------------------------------------------------------
    # Callbacks.
    # ------------------------------------------------------------------

    def on_recv(self, input_port: int, records: List[Any], timestamp: Timestamp) -> None:
        self._chain.deliver(0, records, timestamp)
        if self._touched:
            self._settle()

    def on_notify(self, timestamp: Timestamp) -> None:
        # A held capability is delivered before a cleanup held at the
        # same time: with both held, this delivery is the capability.
        if self._outer.pop(timestamp, 0) == _CAPABILITY | _CLEANUP:
            self._outer[timestamp] = _CLEANUP
        due = self._pending.pop(timestamp, None)
        if due is None:
            return
        parts = self.parts
        held: Dict[int, bool] = {}
        self._grant = (timestamp, due, held)
        try:
            # Chain order: an upstream constituent's completion may emit
            # at ``timestamp`` into its downstream neighbours, which must
            # observe those records before their own on_notify runs.
            for position in range(min(due), len(parts)):
                if position not in due:
                    continue
                if held:
                    # An upstream constituent re-requested ``timestamp``
                    # and may emit into this one again: the rest wait
                    # for the next grant, as the frontier would have it.
                    for later, capability in due.items():
                        if later >= position:
                            held[later] = held.get(later, False) or capability
                    break
                self._running = position
                try:
                    parts[position].on_notify(timestamp)
                except Exception as exc:
                    self._blame(exc, position)
                    raise
        finally:
            self._grant = None
        if held:
            self._pending[timestamp] = held
            self._hold(timestamp, any(held.values()))
        if self._touched:
            self._settle()

    def _blame(self, exc: Exception, position: int) -> None:
        """Fail fast as the original exception, but say which operator
        raised — ``fuse(a+b)`` alone does not.  The innermost constituent
        wins; a PEP 678 note, printed with the message from 3.11 on."""
        if not hasattr(exc, "operator"):
            exc.operator = self.names[position]
            note = "in operator %r of %r" % (self.names[position], self)
            exc.__notes__ = getattr(exc, "__notes__", []) + [note]

    def _request(self, position: int, timestamp: Timestamp, capability: bool) -> None:
        grant = self._grant
        if grant is not None and grant[0] == timestamp:
            # A request at the time being granted: a downstream
            # constituent is due later in this grant, and whether it
            # may run is decided when its turn comes; the running one
            # (or one upstream of it) needs the next grant.
            wanted = grant[1] if position > self._running else grant[2]
        else:
            wanted = self._pending.get(timestamp)
            if wanted is None:
                wanted = self._pending[timestamp] = {}
            self._hold(timestamp, capability)
        wanted[position] = wanted.get(position, False) or capability

    def _hold(self, timestamp: Timestamp, capability: bool) -> None:
        """Cover a constituent request at ``timestamp`` with an outer
        one: a capability at once unless one is held there, a cleanup
        when the running callback ends (:meth:`_settle`)."""
        if not capability:
            self._touched[timestamp] = None
            return
        outer = self._outer.get(timestamp, 0)
        if not outer & _CAPABILITY:
            self.notify_at(timestamp)
            self._outer[timestamp] = outer | _CAPABILITY

    def _settle(self) -> None:
        """Hold a cleanup at each time a constituent asked one for in
        the callback that is ending, unless an outer request is already
        held there."""
        touched, self._touched = self._touched, {}
        for timestamp in touched:
            if timestamp not in self._outer:
                self.notify_at(timestamp, capability=False)
                self._outer[timestamp] = _CLEANUP

    # ------------------------------------------------------------------
    # Fault tolerance: composite snapshot.
    # ------------------------------------------------------------------

    def checkpoint(self) -> Any:
        return {
            "parts": [part.checkpoint() for part in self.parts],
            "pending": {
                timestamp: dict(positions)
                for timestamp, positions in self._pending.items()
            },
            "outer": dict(self._outer),
        }

    def restore(self, state: Any) -> None:
        for part, snapshot in zip(self.parts, state["parts"]):
            part.restore(snapshot)
        self._pending = snapshot_copy(state["pending"])
        self._outer = dict(state["outer"])
        self._touched = {}

    def __repr__(self) -> str:
        base = super().__repr__()
        return "%s<%s>" % (base, "+".join(self.names))
