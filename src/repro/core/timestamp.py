"""Logical timestamps for timely dataflow (paper section 2.1).

A timestamp pairs an integer *epoch*, assigned by the external producer
that feeds an input vertex, with a tuple of *loop counters*, one per loop
context that encloses the edge the message travels on::

    Timestamp : (e in N, <c_1, ..., c_k> in N^k)

Two timestamps at the same graph location (hence with equally many loop
counters) are partially ordered: ``t1 <= t2`` iff the epochs satisfy
``e1 <= e2`` *and* the counter tuples satisfy ``c1 <=_lex c2`` under the
lexicographic order on integer sequences.

The system-provided loop vertices act on timestamps as pure functions,
exposed here as :meth:`Timestamp.entered`, :meth:`Timestamp.left` and
:meth:`Timestamp.incremented`:

============  =============================  ============================
Vertex        Input timestamp                Output timestamp
============  =============================  ============================
Ingress       ``(e, <c1, ..., ck>)``         ``(e, <c1, ..., ck, 0>)``
Egress        ``(e, <c1, ..., ck, ck+1>)``   ``(e, <c1, ..., ck>)``
Feedback      ``(e, <c1, ..., ck>)``         ``(e, <c1, ..., ck + 1>)``
============  =============================  ============================

A :class:`Timestamp` *is* the tuple ``(epoch, counters)``: equality,
hashing and the Python ordering are the tuple's own, run in C, because
every progress structure is a dict keyed by pointstamps whose first
field is a timestamp.  The one consequence beyond speed is deliberate:
a timestamp equals the plain tuple ``(epoch, counters)`` (and hashes
like it), so ``Timestamp(1, (2,)) == (1, (2,))``.  The partial-order
methods still accept only timestamps.
"""

from __future__ import annotations

from operator import itemgetter
from typing import Tuple


class Timestamp(tuple):
    """An immutable logical timestamp ``(epoch, loop counters)``.

    A validated ``tuple`` subclass: equality, hash and the Python total
    order are those of the tuple ``(epoch, counters)`` — lexicographic,
    which refines the timely-dataflow partial order and is convenient
    for deterministic scheduling.  The semantically meaningful partial
    order of section 2.1 is exposed as :meth:`less_equal` /
    :meth:`less_than`.
    """

    __slots__ = ()

    def __new__(cls, epoch: int, counters: Tuple[int, ...] = ()):
        if epoch < 0:
            raise ValueError("epoch must be non-negative, got %r" % (epoch,))
        counters = tuple(counters)
        if counters and min(counters) < 0:
            raise ValueError("loop counters must be non-negative, got %r" % (counters,))
        return tuple.__new__(cls, (epoch, counters))

    epoch = property(itemgetter(0), doc="The input epoch.")
    counters = property(itemgetter(1), doc="The loop counters, outermost first.")

    def __reduce__(self):
        return (Timestamp, (self.epoch, self.counters))

    def __copy__(self):
        return self

    def __deepcopy__(self, memo):
        return self

    # ------------------------------------------------------------------
    # The partial order of section 2.1.
    # ------------------------------------------------------------------

    def less_equal(self, other: "Timestamp") -> bool:
        """The timely-dataflow partial order ``self <= other``.

        Requires both timestamps to carry the same number of loop
        counters (i.e. to live in the same loop context).
        """
        self._check_comparable(other)
        return self.epoch <= other.epoch and self.counters <= other.counters

    def less_than(self, other: "Timestamp") -> bool:
        """Strict version of :meth:`less_equal`."""
        return self.less_equal(other) and self != other

    def comparable(self, other: "Timestamp") -> bool:
        """True when the two timestamps are ordered either way."""
        return self.less_equal(other) or other.less_equal(self)

    def join(self, other: "Timestamp") -> "Timestamp":
        """Least upper bound of two timestamps in the same context."""
        self._check_comparable(other)
        epoch = max(self.epoch, other.epoch)
        counters = max(self.counters, other.counters)
        return Timestamp(epoch, counters)

    def meet(self, other: "Timestamp") -> "Timestamp":
        """Greatest lower bound of two timestamps in the same context."""
        self._check_comparable(other)
        epoch = min(self.epoch, other.epoch)
        counters = min(self.counters, other.counters)
        return Timestamp(epoch, counters)

    def _check_comparable(self, other: "Timestamp") -> None:
        if not isinstance(other, Timestamp):
            raise TypeError("expected a Timestamp, got %r" % (other,))
        if len(self.counters) != len(other.counters):
            raise ValueError(
                "timestamps live in different loop contexts: %r vs %r" % (self, other)
            )

    # ------------------------------------------------------------------
    # Loop-vertex actions.
    # ------------------------------------------------------------------

    @property
    def depth(self) -> int:
        """The nesting depth: number of loop counters."""
        return len(self.counters)

    def entered(self) -> "Timestamp":
        """Timestamp after passing an ingress vertex (append a 0 counter)."""
        return Timestamp(self.epoch, self.counters + (0,))

    def left(self) -> "Timestamp":
        """Timestamp after passing an egress vertex (drop the last counter)."""
        if not self.counters:
            raise ValueError("cannot leave a loop from the streaming context")
        return Timestamp(self.epoch, self.counters[:-1])

    def incremented(self, by: int = 1) -> "Timestamp":
        """Timestamp after passing a feedback vertex (bump the last counter)."""
        if not self.counters:
            raise ValueError("cannot increment a loop counter outside any loop")
        counters = self.counters[:-1] + (self.counters[-1] + by,)
        return Timestamp(self.epoch, counters)

    def with_epoch(self, epoch: int) -> "Timestamp":
        """A copy of this timestamp with a different epoch."""
        return Timestamp(epoch, self.counters)

    def __repr__(self) -> str:
        return "Timestamp(%d, %r)" % (self.epoch, list(self.counters))


#: The first timestamp of the streaming (outermost) context.
ZERO = Timestamp(0)
