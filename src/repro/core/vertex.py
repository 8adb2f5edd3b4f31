"""The vertex programming model (paper section 2.2).

A vertex implements two callbacks and may invoke two system methods::

    v.on_recv(input_port, records, timestamp)   # a message arrived
    v.on_notify(timestamp)                      # all messages <= t delivered

    self.send_by(output_port, records, timestamp)
    self.notify_at(timestamp)

The system guarantees that ``on_notify(t)`` runs only after no further
``on_recv(..., t')`` with ``t' <= t`` can occur.  In exchange, callbacks
running at time ``t`` may only send or request notification at times
``t' >= t`` — the "no messages backwards in time" rule, which the harness
enforces.

Messages are *batches*: ``records`` is a list, matching Naiad's practice
of moving arrays of records through channels to amortise per-record
overhead.

Vertices optionally implement ``checkpoint()``/``restore(state)``
(section 3.4); the default implementation snapshots the instance's
attribute dictionary, which suffices for vertices whose state is plain
Python data.

Checkpoint state must be *picklable*: the section 3.4 durable journal
and the multiprocessing execution backend (:mod:`repro.parallel`) both
ship it across process boundaries.  Configuration a vertex received at
construction time — user functions, predicates, key selectors — is
immutable and often unpicklable (lambdas, closures, bound methods), so
subclasses list those attribute names in ``_CONFIG_ATTRS``; they are
excluded from the snapshot and left untouched by ``restore``, exactly
like the runtime-assigned transient attributes.
"""

from __future__ import annotations

import copy
from typing import Any, List, Optional, Tuple

from .timestamp import Timestamp


class Vertex:
    """Base class for all dataflow vertices.

    Subclasses override :meth:`on_recv` (and :meth:`on_notify` if they
    request notifications).  The runtime assigns ``stage``, ``worker``
    (the parallel index of this instance within its stage) and a private
    harness before any callback runs.
    """

    #: True pins every instance of this vertex class to the coordinator
    #: under the multiprocessing backend (repro.parallel): its callbacks
    #: run on the DES thread.  Set on vertex classes whose callbacks
    #: side-effect driver-side objects (subscriptions, probes).
    coordinator_only = False

    #: False declares that instances never call :meth:`notify_at` with a
    #: capability.  A loop scope whose stages all opt out this way can be
    #: *summarized* by the distributed runtime: its interior pointstamp
    #: churn stays scope-local and only boundary projections are
    #: broadcast (see ``runtime.cluster``).  Leave True when in doubt —
    #: a notifying vertex inside a summarized scope is rejected at
    #: ``notify_at`` time with a :class:`TimestampViolation`.
    notifies = True

    def __init__(self):
        self.stage = None
        self.worker: int = 0
        self._harness = None

    # ------------------------------------------------------------------
    # Callbacks (override in subclasses).
    # ------------------------------------------------------------------

    def on_recv(self, input_port: int, records: List[Any], timestamp: Timestamp) -> None:
        raise NotImplementedError(
            "%s does not implement on_recv" % type(self).__name__
        )

    def on_notify(self, timestamp: Timestamp) -> None:
        """Called once all messages at times <= ``timestamp`` are delivered."""

    def on_recv_batch(self, input_port: int, batch: Any, timestamp: Timestamp) -> None:
        """Columnar fast path: a :class:`repro.columnar.ColumnarBatch`
        arrived (only ever under the opt-in columnar data plane).

        The default implementation is the automatic record-list shim —
        it materializes the batch and calls :meth:`on_recv`, so every
        existing vertex works unchanged.  Hot operators override this to
        run directly on the batch's column arrays, skipping per-record
        tuple construction; an override must be observably identical to
        the shim (same outputs, same order, same state) because the
        runtime chooses between batch and record delivery freely.
        """
        self.on_recv(input_port, batch.to_records(), timestamp)

    # ------------------------------------------------------------------
    # System methods (provided).
    # ------------------------------------------------------------------

    def send_by(self, output_port: int, records: List[Any], timestamp: Timestamp) -> None:
        """Send a batch of records on an output port.

        The timestamp is given on the *input side* of this stage; system
        stages (ingress/egress/feedback) have the appropriate adjustment
        applied by the runtime, so user code never manipulates loop
        counters directly.
        """
        self._harness.send(self, output_port, records, timestamp)

    def notify_at(self, timestamp: Timestamp, capability: bool = True) -> None:
        """Request an :meth:`on_notify` callback at ``timestamp``.

        With ``capability=False`` the request decouples the guarantee
        time from the capability time (section 2.4): the callback is
        still guaranteed not to run before ``timestamp`` is complete,
        but it renounces the ability to produce new events (its
        capability time is ⊤).  Such "state purging" notifications do
        not occupy a pointstamp, so they never delay other
        notifications and introduce no coordination; the harness
        rejects any ``send_by``/``notify_at`` made from their callback.
        """
        self._harness.request_notification(self, timestamp, capability)

    @property
    def peers(self) -> int:
        """Total number of parallel workers executing this stage.

        ``self.worker`` identifies this instance among them.  Libraries
        use this for explicit data placement (e.g. AllReduce chunk
        ownership and broadcast fan-out).
        """
        return self._harness.total_workers

    # ------------------------------------------------------------------
    # Fault tolerance hooks (section 3.4).
    # ------------------------------------------------------------------

    #: Attributes excluded from the default checkpoint.
    _TRANSIENT_ATTRS = ("stage", "worker", "_harness")

    #: Constructor-supplied configuration excluded from the default
    #: checkpoint alongside the transient attributes.  Subclasses list
    #: the names of user-function attributes here (lambdas, closures and
    #: bound methods do not pickle); configuration is immutable, so
    #: leaving it out of the snapshot loses nothing on restore.
    _CONFIG_ATTRS: Tuple[str, ...] = ()

    def _checkpoint_excluded(self, key: str) -> bool:
        return key in self._TRANSIENT_ATTRS or key in self._CONFIG_ATTRS

    def checkpoint(self) -> Any:
        """Return a snapshot of this vertex's state (default: deep copy).

        The snapshot excludes runtime-transient attributes and the
        immutable configuration named by ``_CONFIG_ATTRS``, and must be
        picklable — it travels through the durable journal and between
        the coordinator and pool workers.
        """
        state = {
            key: value
            for key, value in self.__dict__.items()
            if not self._checkpoint_excluded(key)
        }
        return copy.deepcopy(state)

    def restore(self, state: Any) -> None:
        """Reset this vertex's state from a :meth:`checkpoint` snapshot.

        Attributes acquired *after* the checkpoint (and neither
        transient nor configuration) are removed, so restore really is a
        rollback: a vertex that lazily created per-timestamp state past
        the snapshot point does not keep it into the replayed execution.
        """
        stale = [
            key
            for key in self.__dict__
            if not self._checkpoint_excluded(key) and key not in state
        ]
        for key in stale:
            delattr(self, key)
        for key, value in copy.deepcopy(state).items():
            setattr(self, key, value)

    def __repr__(self) -> str:
        name = self.stage.name if self.stage is not None else "unbound"
        return "%s(%s[%d])" % (type(self).__name__, name, self.worker)


class ForwardingVertex(Vertex):
    """System vertex used for ingress, egress and feedback stages.

    It forwards every incoming batch on output port 0; the runtime
    applies the stage's timestamp action (push / pop / increment a loop
    counter).  A feedback stage may bound the number of iterations by
    dropping messages whose innermost loop counter has reached
    ``max_iterations``, which is how bounded loops terminate cleanly.
    """

    notifies = False

    def __init__(self, max_iterations: Optional[int] = None):
        super().__init__()
        self.max_iterations = max_iterations

    def drops(self, timestamp: Timestamp) -> bool:
        """True when a bounded feedback stage discards messages at
        ``timestamp``: the send would increment the innermost counter
        out of bounds.  The runtimes' cut-through asks this too."""
        return (
            self.max_iterations is not None
            and timestamp.counters[-1] + 1 >= self.max_iterations
        )

    def on_recv(self, input_port: int, records: List[Any], timestamp: Timestamp) -> None:
        if not self.drops(timestamp):
            self.send_by(0, records, timestamp)

    def on_recv_batch(self, input_port: int, batch: Any, timestamp: Timestamp) -> None:
        # Forwarding never inspects records, so a columnar batch passes
        # through whole — no materialization at scope boundaries.
        self.on_recv(input_port, batch, timestamp)
