"""The fused super-vertex produced by the operator-fusion pass.

A :class:`FusedVertex` owns a pipeline of constituent vertices (built
from the original stages' factories) and runs the whole chain
synchronously inside one callback: a constituent's ``send_by`` becomes a
direct ``on_recv`` on the next constituent, and only the tail's output
leaves the fused stage.  One DES event therefore carries the Python work
of the entire chain — the point of fusion: per-event overhead (dispatch,
progress updates, queue traffic) is paid once instead of once per
operator, which fattens callback bodies and raises the fraction of work
the multiprocessing backend can offload.

Notifications are deduplicated at the fused boundary: however many
constituents request a notification at timestamp ``t``, the fused vertex
holds a single outer pointstamp and, when it is granted, dispatches the
constituents' ``on_notify(t)`` in chain order — upstream first, so a
buffering constituent's emission at ``t`` reaches its downstream
neighbours before their own completions run, exactly the order the
unfused plan guarantees via the frontier.

Fault tolerance composes: ``checkpoint()`` snapshots every constituent
(each applying its own ``_CONFIG_ATTRS`` exclusions, so the composite
state round-trips through pickle) plus the pending-notification table,
and ``restore()`` rolls each constituent back — the section 3.4 recovery
machinery and the pool's per-(stage, worker) pinning work unchanged.
"""

from __future__ import annotations

import copy
from typing import Any, Dict, List, Set, Tuple

from ..columnar import ColumnarBatch
from ..core.timestamp import Timestamp
from ..core.vertex import Vertex


class _ChainHarness:
    """The private harness constituents run under inside a fused vertex.

    Routes a constituent's ``send`` to the next constituent's
    ``on_recv`` (synchronously, same timestamp) and the tail's ``send``
    out through the fused vertex.  Notification requests are folded into
    the fused vertex's pending table.  ``total_workers`` delegates to
    the fused vertex's *current* harness, so constituents see the right
    peer count in every execution context (reference runtime, DES
    worker, forked pool child) without rebinding.
    """

    __slots__ = ("fused", "_position")

    def __init__(self, fused: "FusedVertex", parts: List[Vertex]):
        self.fused = fused
        self._position: Dict[int, int] = {
            id(part): position for position, part in enumerate(parts)
        }

    @property
    def total_workers(self) -> int:
        return self.fused._harness.total_workers

    def deliver(self, position: int, records: Any, timestamp: Timestamp) -> None:
        """Dispatch a payload to a constituent, columnar fast path
        included; a failure names the constituent before it propagates."""
        fused = self.fused
        target = fused.parts[position]
        if position:
            # Fusion saves per-event overhead, not per-record work: the
            # runtime bills the head for the delivered batch, and every
            # later constituent for the records it is actually handed.
            fused._harness.charge(records)
        try:
            if type(records) is ColumnarBatch:
                target.on_recv_batch(0, records, timestamp)
            else:
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
        position = self._position[id(vertex)] + 1
        if position == len(self.fused.parts):
            self.fused.send_by(0, records, timestamp)
        else:
            self.deliver(position, records, timestamp)

    def request_notification(
        self, vertex: Vertex, timestamp: Timestamp, capability: bool = True
    ) -> None:
        self.fused._request(self._position[id(vertex)], timestamp)


class FusedVertex(Vertex):
    """A pipeline of unary vertices executing as one physical vertex.

    Constituents must be 1-in/1-out operators that request at most one
    notification per timestamp and send only at the time of the running
    callback — the properties the fusion pass checks via ``OpSpec``
    before building this vertex.
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
        self.notifies = any(
            getattr(part, "notifies", True) for part in self.parts
        )
        self._chain = _ChainHarness(self, self.parts)
        for part in self.parts:
            part._harness = self._chain
        #: Timestamp -> constituent positions awaiting on_notify there.
        #: An entry's existence means one outer notification is held.
        self._pending: Dict[Timestamp, Set[int]] = {}

    # ------------------------------------------------------------------
    # Callbacks.
    # ------------------------------------------------------------------

    def on_recv(self, input_port: int, records: Any, timestamp: Timestamp) -> None:
        # A columnar batch reaches the head's own on_recv_batch: it
        # decides whether it has a column kernel; its default shim
        # materializes, so semantics are unchanged.
        self._chain.deliver(0, records, timestamp)

    on_recv_batch = on_recv

    def on_notify(self, timestamp: Timestamp) -> None:
        positions = self._pending.pop(timestamp, None)
        if positions is None:
            return
        parts = self.parts
        # Chain order: an upstream constituent's completion may emit at
        # ``timestamp`` into its downstream neighbours, which must
        # observe those records before their own on_notify runs.
        for position in sorted(positions):
            try:
                parts[position].on_notify(timestamp)
            except Exception as exc:
                self._blame(exc, position)
                raise

    def _blame(self, exc: Exception, position: int) -> None:
        """Fail fast as the original exception, but say which operator
        raised — ``fuse(a+b)`` alone does not.  The innermost constituent
        wins; a PEP 678 note, printed with the message from 3.11 on."""
        if not hasattr(exc, "operator"):
            exc.operator = self.names[position]
            note = "in operator %r of %r" % (self.names[position], self)
            exc.__notes__ = getattr(exc, "__notes__", []) + [note]

    def _request(self, position: int, timestamp: Timestamp) -> None:
        waiting = self._pending.get(timestamp)
        if waiting is None:
            self._pending[timestamp] = {position}
            # One outer pointstamp covers every constituent request at
            # this time; re-requests during on_notify dispatch (a
            # downstream constituent first touched by an upstream
            # completion) create a fresh entry and a second grant.
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
            for timestamp, positions in copy.deepcopy(state["pending"]).items()
        }

    def __repr__(self) -> str:
        base = super().__repr__()
        return "%s<%s>" % (base, "+".join(self.names))
