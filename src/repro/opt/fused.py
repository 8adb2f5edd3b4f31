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
holds a single outer pointstamp and, when it is granted, dispatches the
constituents' ``on_notify(t)`` in chain order — upstream first, so a
buffering constituent's emission at ``t`` reaches its downstream
neighbours before their own completions run, exactly the order the
unfused plan guarantees via the frontier.  A downstream constituent
that first requests ``t`` during that grant (its only input at ``t``
was an upstream completion) runs later in the same grant: the grant
already proves nothing outside the chain can still reach ``t``, and
its turn comes only after every constituent upstream of it has run.

Fault tolerance composes: ``checkpoint()`` snapshots every constituent
(each applying its own ``_CONFIG_ATTRS`` exclusions, so the composite
state round-trips through pickle) plus the pending-notification table,
and ``restore()`` rolls each constituent back — the section 3.4 recovery
machinery works unchanged.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Set, Tuple

from ..core.timestamp import Timestamp
from ..core.vertex import Vertex, snapshot_copy


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
        self.fused._request(self.fused.parts.index(vertex), timestamp)


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
        #: Timestamp -> constituent positions awaiting on_notify there.
        #: An entry's existence means one outer notification is held.
        self._pending: Dict[Timestamp, Set[int]] = {}
        #: While on_notify(t) runs: ``(t, positions due in this grant,
        #: positions held for the next one)``, and the running position.
        self._grant: Optional[Tuple[Timestamp, Set[int], Set[int]]] = None
        self._running = 0

    # ------------------------------------------------------------------
    # Callbacks.
    # ------------------------------------------------------------------

    def on_recv(self, input_port: int, records: List[Any], timestamp: Timestamp) -> None:
        self._chain.deliver(0, records, timestamp)

    def on_notify(self, timestamp: Timestamp) -> None:
        due = self._pending.pop(timestamp, None)
        if due is None:
            return
        parts = self.parts
        held: Set[int] = set()
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
                    held.update(p for p in due if p >= position)
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
            self.notify_at(timestamp)

    def _blame(self, exc: Exception, position: int) -> None:
        """Fail fast as the original exception, but say which operator
        raised — ``fuse(a+b)`` alone does not.  The innermost constituent
        wins; a PEP 678 note, printed with the message from 3.11 on."""
        if not hasattr(exc, "operator"):
            exc.operator = self.names[position]
            note = "in operator %r of %r" % (self.names[position], self)
            exc.__notes__ = getattr(exc, "__notes__", []) + [note]

    def _request(self, position: int, timestamp: Timestamp) -> None:
        grant = self._grant
        if grant is not None and grant[0] == timestamp:
            # A request at the time being granted: a downstream
            # constituent is due later in this grant, and whether it
            # may run is decided when its turn comes; the running one
            # (or one upstream of it) needs the next grant.
            if position > self._running:
                grant[1].add(position)
            else:
                grant[2].add(position)
            return
        waiting = self._pending.get(timestamp)
        if waiting is None:
            self._pending[timestamp] = {position}
            # One outer pointstamp covers every constituent request at
            # this time.
            self.notify_at(timestamp)
        else:
            waiting.add(position)

    # ------------------------------------------------------------------
    # Fault tolerance: composite snapshot.
    # ------------------------------------------------------------------

    def checkpoint(self) -> Any:
        return {
            "parts": [part.checkpoint() for part in self.parts],
            "pending": {
                timestamp: sorted(positions)
                for timestamp, positions in self._pending.items()
            },
        }

    def restore(self, state: Any) -> None:
        for part, snapshot in zip(self.parts, state["parts"]):
            part.restore(snapshot)
        self._pending = {
            timestamp: set(positions)
            for timestamp, positions in snapshot_copy(state["pending"]).items()
        }

    def __repr__(self) -> str:
        base = super().__repr__()
        return "%s<%s>" % (base, "+".join(self.names))
