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
Python data.  Both directions copy with :func:`snapshot_copy`, which
means what ``copy.deepcopy`` means but shares immutable leaves and
rebuilds leaf-only dicts, lists and sets with one C-level call each —
the copy is what a snapshot costs, so it is the part kept cheap.

Checkpoint state must be *picklable*: the section 3.4 durable journal
ships it across process boundaries.  Configuration a vertex received at
construction time — user functions, predicates, key selectors — is
immutable and often unpicklable (lambdas, closures, bound methods), so
subclasses list those attribute names in ``_CONFIG_ATTRS``; they are
excluded from the snapshot and left untouched by ``restore``, exactly
like the runtime-assigned transient attributes.
"""

from __future__ import annotations

import copy
from itertools import chain
from operator import is_
from typing import Any, Dict, List, Optional, Tuple

from .pathsummary import PathSummary
from .timestamp import Timestamp

#: Immutable types a snapshot shares instead of copying.  Exact types
#: only: a subclass may add mutable attributes, so it goes to deepcopy.
_LEAF_TYPES = frozenset(
    (int, float, complex, str, bytes, bool, type(None), Timestamp, PathSummary)
)
_NESTED_LEAVES = frozenset((tuple, frozenset))
_REBUILT = frozenset((dict, list, set))


def _all_leaves(items) -> bool:
    """True when every item of the collection ``items`` is a leaf: a
    ``_LEAF_TYPES`` instance, or a tuple/frozenset made only of leaves.

    Works a nesting level at a time with C-level type scans, so a dict
    keyed by ``(user, tag)`` pairs is checked in two passes rather than
    one Python call per key.
    """
    while True:
        types = set(map(type, items))
        if types <= _LEAF_TYPES:
            return True
        if not types - _LEAF_TYPES <= _NESTED_LEAVES:
            return False
        if types & _LEAF_TYPES:
            items = [item for item in items if type(item) in _NESTED_LEAVES]
        items = list(chain.from_iterable(items))


def snapshot_copy(obj: Any, memo: Optional[Dict[int, Any]] = None) -> Any:
    """A copy of ``obj`` with the meaning of ``copy.deepcopy(obj, memo)``.

    Leaves (see :func:`_all_leaves`) are shared, as deepcopy already
    shares atoms and leaf-only tuples.  Exact ``dict``/``list``/``set``
    containers are rebuilt — with one ``dict(x)``/``list(x)``/``set(x)``
    call when every member is a leaf, else member by member — and
    insertion order is kept.  An instance of a class that sets
    ``_PLAIN_STATE = True`` is rebuilt as deepcopy rebuilds a plain
    object, a new instance over a copy of its ``__dict__``.  Everything
    else (subclasses such as ``Counter``, custom objects, functions)
    goes to ``copy.deepcopy`` with the same ``memo``, so an object
    reached twice comes back as one copy reached twice, exactly as
    deepcopy keeps aliasing.
    """
    cls = type(obj)
    if cls in _LEAF_TYPES:
        return obj
    if memo is None:
        memo = {}
    copied = memo.get(id(obj))
    if copied is not None:
        return copied
    if cls in _REBUILT and not obj:
        # An empty container has no member to test: a fresh vertex's
        # state is mostly these.  The type test comes first: other
        # objects (a numpy array) may have no truth value.
        copied = memo[id(obj)] = cls()
        return copied
    if cls is dict:
        leaf_keys = _all_leaves(obj)
        if leaf_keys and _all_leaves(obj.values()):
            copied = memo[id(obj)] = dict(obj)
            return copied
        # Registered before the members, so a cycle back to ``obj``
        # finds this copy.
        copied = memo[id(obj)] = {}
        for key, value in obj.items():
            if not leaf_keys:
                key = snapshot_copy(key, memo)
            copied[key] = snapshot_copy(value, memo)
        return copied
    if cls is list:
        if _all_leaves(obj):
            copied = memo[id(obj)] = list(obj)
            return copied
        copied = memo[id(obj)] = []
        copied.extend([snapshot_copy(item, memo) for item in obj])
        return copied
    if cls is set:
        copied = memo[id(obj)] = set()
        if _all_leaves(obj):
            copied.update(obj)
        else:
            copied.update([snapshot_copy(item, memo) for item in obj])
        return copied
    if cls is tuple:
        if _all_leaves(obj):
            return obj
        items = [snapshot_copy(item, memo) for item in obj]
        # A cycle through a mutable member may have copied this tuple.
        copied = memo.get(id(obj))
        if copied is not None:
            return copied
        if all(map(is_, items, obj)):
            return obj
        copied = memo[id(obj)] = tuple(items)
        return copied
    if cls is frozenset and _all_leaves(obj):
        return obj
    if getattr(cls, "_PLAIN_STATE", False):
        copied = memo[id(obj)] = cls.__new__(cls)
        copied.__dict__.update(snapshot_copy(obj.__dict__, memo))
        return copied
    return copy.deepcopy(obj, memo)


class Vertex:
    """Base class for all dataflow vertices.

    Subclasses override :meth:`on_recv` (and :meth:`on_notify` if they
    request notifications).  The runtime assigns ``stage``, ``worker``
    (the parallel index of this instance within its stage) and a private
    harness before any callback runs.
    """

    #: False declares that instances never call :meth:`notify_at` with a
    #: capability.  A loop scope whose stages all opt out this way can be
    #: *summarized* by the distributed runtime: its interior pointstamp
    #: churn stays scope-local and only boundary projections are
    #: broadcast (decided by ``core.scope.notifying_contexts``, applied
    #: by ``runtime.protocol.ProgressPlane``).  Leave True when in doubt —
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

    def _checkpoint_state(self) -> Dict[str, Any]:
        """The attributes a checkpoint holds: all but the transient and
        configuration ones."""
        transient, config = self._TRANSIENT_ATTRS, self._CONFIG_ATTRS
        return {
            key: value
            for key, value in self.__dict__.items()
            if key not in transient and key not in config
        }

    def checkpoint(self) -> Any:
        """Return a snapshot of this vertex's state (default: a
        :func:`snapshot_copy` of the attribute dictionary).

        The snapshot excludes runtime-transient attributes and the
        immutable configuration named by ``_CONFIG_ATTRS``, and must be
        picklable — it travels through the durable journal.
        """
        return snapshot_copy(self._checkpoint_state())

    def restore(self, state: Any) -> None:
        """Reset this vertex's state from a :meth:`checkpoint` snapshot.

        Attributes acquired *after* the checkpoint (and neither
        transient nor configuration) are removed, so restore really is a
        rollback: a vertex that lazily created per-timestamp state past
        the snapshot point does not keep it into the replayed execution.
        """
        stale = [key for key in self._checkpoint_state() if key not in state]
        for key in stale:
            delattr(self, key)
        for key, value in snapshot_copy(state).items():
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
