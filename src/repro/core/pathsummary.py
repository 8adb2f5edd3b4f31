"""Path summaries and the could-result-in relation (paper section 2.3).

Messages flowing along a dataflow path have their timestamps adjusted by
the ingress, egress and feedback vertices on that path.  The net effect of
any path can be summarised canonically: some suffix of the source's loop
counters is discarded (by egress vertices), the deepest surviving counter
is incremented some number of times (by feedback vertices at that depth),
and a tuple of constant counters is appended (by ingress vertices, whose
pushed zeroes may themselves be incremented by deeper feedback vertices).

:class:`PathSummary` captures exactly this normal form::

    summary = (keep, delta, append)
    summary(e, <c_1, ..., c_k>) = (e, <c_1, ..., c_{keep-1}, c_keep + delta> + append)

Summaries compose associatively, and are partially ordered pointwise:
``s1 <= s2`` iff ``s1(t) <= s2(t)`` for every timestamp ``t``.  The paper
notes that for the restricted loop structure of timely dataflow graphs one
path summary between two locations always dominates; we are slightly more
general and maintain an :class:`Antichain` of minimal summaries per
location pair, which is both robust and sufficient to evaluate
could-result-in.

:func:`minimal_summaries` runs the "straightforward graph propagation
algorithm" of section 2.3: an all-pairs shortest-path-style fixed point
over antichains of summaries.
"""

from __future__ import annotations

from collections import deque
from functools import lru_cache
from typing import Dict, Hashable, Iterable, List, Sequence, Tuple

from .timestamp import Timestamp

Location = Hashable


class PathSummary:
    """The canonical timestamp transformation along a dataflow path.

    Parameters
    ----------
    keep:
        Number of leading source loop counters that survive the path.
    delta:
        Increment applied to the last surviving counter (0 if ``keep == 0``).
    append:
        Constant loop counters appended after the surviving prefix.
    """

    __slots__ = ("keep", "delta", "append", "_hash")

    def __init__(self, keep: int, delta: int = 0, append: Tuple[int, ...] = ()):
        if keep < 0:
            raise ValueError("keep must be non-negative")
        if delta < 0:
            raise ValueError("delta must be non-negative")
        if keep == 0 and delta != 0:
            raise ValueError("cannot increment the epoch (delta at depth 0)")
        append = tuple(append)
        if any(a < 0 for a in append):
            raise ValueError("appended counters must be non-negative")
        object.__setattr__(self, "keep", keep)
        object.__setattr__(self, "delta", delta)
        object.__setattr__(self, "append", append)
        object.__setattr__(self, "_hash", hash((keep, delta, append)))

    def __setattr__(self, name, value):
        raise AttributeError("PathSummary is immutable")

    def __reduce__(self):
        return (PathSummary, (self.keep, self.delta, self.append))

    def __copy__(self):
        return self

    def __deepcopy__(self, memo):
        return self

    # ------------------------------------------------------------------
    # Construction helpers for the three system vertices.  Instances
    # are immutable, so each helper interns one summary per depth.
    # ------------------------------------------------------------------

    @staticmethod
    @lru_cache(maxsize=None)
    def identity(depth: int) -> "PathSummary":
        """The summary of an empty path at nesting depth ``depth``."""
        return PathSummary(depth, 0, ())

    @staticmethod
    @lru_cache(maxsize=None)
    def ingress(depth: int) -> "PathSummary":
        """Entering a loop from depth ``depth``: push a zero counter."""
        return PathSummary(depth, 0, (0,))

    @staticmethod
    @lru_cache(maxsize=None)
    def egress(depth: int) -> "PathSummary":
        """Leaving a loop whose body is at depth ``depth``: pop a counter."""
        if depth < 1:
            raise ValueError("cannot leave a loop from the streaming context")
        return PathSummary(depth - 1, 0, ())

    @staticmethod
    @lru_cache(maxsize=None)
    def feedback(depth: int) -> "PathSummary":
        """Traversing a feedback vertex at depth ``depth``: increment."""
        if depth < 1:
            raise ValueError("feedback requires a loop context")
        return PathSummary(depth, 1, ())

    # ------------------------------------------------------------------
    # Semantics.
    # ------------------------------------------------------------------

    @property
    def target_depth(self) -> int:
        """Nesting depth of timestamps produced by this summary."""
        return self.keep + len(self.append)

    def apply(self, t: Timestamp) -> Timestamp:
        """Adjust ``t`` as a message traversing this path would be."""
        counters = t.counters
        if len(counters) < self.keep:
            raise ValueError(
                "summary %r needs at least %d counters, got %r" % (self, self.keep, t)
            )
        if len(counters) == self.keep and not self.delta and not self.append:
            return t  # the identity at t's depth; timestamps are immutable
        prefix = counters[: self.keep]
        if self.keep:
            prefix = prefix[:-1] + (prefix[-1] + self.delta,)
        return Timestamp(t.epoch, prefix + self.append)

    def dominates(self, t1: Timestamp, t2: Timestamp) -> bool:
        """True iff ``self(t1) <= t2``, without allocating a Timestamp.

        This is the hot operation of progress tracking (every
        could-result-in test ends here), so it works directly on the
        counter tuples.
        """
        return t1.epoch <= t2.epoch and self.dominates_counters(
            t1.counters, t2.counters
        )

    def dominates_counters(
        self, counters1: Tuple[int, ...], counters2: Tuple[int, ...]
    ) -> bool:
        """The loop-counter part of :meth:`dominates` (epoch-invariant).

        Summaries never change epochs, so could-result-in factors into
        ``epoch1 <= epoch2 AND dominates_counters(...)`` — which lets
        progress trackers memoise the counter part across epochs.
        """
        keep = self.keep
        prefix = counters1[:keep]
        if keep:
            prefix = prefix[:-1] + (prefix[-1] + self.delta,)
        return prefix + self.append <= counters2

    def __call__(self, t: Timestamp) -> Timestamp:
        return self.apply(t)

    def then(self, other: "PathSummary") -> "PathSummary":
        """Compose: first follow ``self``, then ``other``."""
        if other.keep > self.target_depth:
            raise ValueError(
                "cannot compose %r (target depth %d) with %r (keeps %d)"
                % (self, self.target_depth, other, other.keep)
            )
        if other.keep <= self.keep:
            if other.keep == self.keep and other.keep and self.delta:
                return PathSummary(other.keep, other.delta + self.delta, other.append)
            # ``other`` drops or keeps verbatim every counter ``self``
            # changed, so the composite is ``other`` itself.
            return other
        # other.keep > self.keep: 'other' keeps some of our appended
        # constants and increments the last kept one.
        cut = other.keep - self.keep  # how many appended entries survive
        kept = self.append[: cut - 1] + (self.append[cut - 1] + other.delta,)
        return PathSummary(self.keep, self.delta, kept + other.append)

    # ------------------------------------------------------------------
    # The pointwise partial order.
    # ------------------------------------------------------------------

    def less_equal(self, other: "PathSummary") -> bool:
        """True iff ``self(t) <= other(t)`` for every timestamp ``t``.

        Both summaries must produce timestamps of the same depth (they
        summarise paths between the same pair of locations).
        """
        if self.target_depth != other.target_depth:
            raise ValueError(
                "summaries target different depths: %r vs %r" % (self, other)
            )
        m1, d1, a1 = self.keep, self.delta, self.append
        m2, d2, a2 = other.keep, other.delta, other.append
        if m1 == m2:
            return (d1,) + a1 <= (d2,) + a2
        if m1 > m2:
            # 'other' increments a counter that 'self' keeps verbatim; the
            # incremented coordinate dominates iff the increment is positive.
            return d2 > 0
        # m1 < m2: 'self' pops strictly deeper.  It can only stay below
        # 'other' if it adds nothing on the way up (delta == 0), re-enters
        # with zeros up to other's kept depth, and lands strictly below (or
        # ties into a lexicographically smaller tail at) other's increment.
        if d1 != 0:
            return False
        gap = m2 - m1
        if any(a1[i] != 0 for i in range(gap - 1)):
            return False
        pivot = a1[gap - 1]
        if pivot < d2:
            return True
        return pivot == d2 and a1[gap:] <= a2

    def less_than(self, other: "PathSummary") -> bool:
        return self != other and self.less_equal(other)

    # ------------------------------------------------------------------
    # Python protocol.
    # ------------------------------------------------------------------

    def __eq__(self, other) -> bool:
        if not isinstance(other, PathSummary):
            return NotImplemented
        return (
            self.keep == other.keep
            and self.delta == other.delta
            and self.append == other.append
        )

    def __hash__(self) -> int:
        return self._hash

    def __repr__(self) -> str:
        return "PathSummary(keep=%d, delta=%d, append=%r)" % (
            self.keep,
            self.delta,
            self.append,
        )


class Antichain:
    """A set of mutually incomparable minimal path summaries."""

    __slots__ = ("elements",)

    def __init__(self, elements: Iterable[PathSummary] = ()):
        self.elements: List[PathSummary] = []
        for element in elements:
            self.insert(element)

    def insert(self, candidate: PathSummary) -> bool:
        """Add ``candidate`` if no current element is <= it.

        Returns True when the antichain changed (i.e. the candidate was
        genuinely new and minimal).
        """
        for element in self.elements:
            if element.less_equal(candidate):
                return False
        self.elements = [
            element for element in self.elements if not candidate.less_equal(element)
        ]
        self.elements.append(candidate)
        return True

    def dominates(self, t1: Timestamp, t2: Timestamp) -> bool:
        """True iff some summary maps ``t1`` at or below ``t2``."""
        return any(s.dominates(t1, t2) for s in self.elements)

    def __iter__(self):
        return iter(self.elements)

    def __len__(self) -> int:
        return len(self.elements)

    def __bool__(self) -> bool:
        return bool(self.elements)

    def __eq__(self, other) -> bool:
        if not isinstance(other, Antichain):
            return NotImplemented
        return set(self.elements) == set(other.elements)

    def __repr__(self) -> str:
        return "Antichain(%r)" % (self.elements,)


def minimal_summaries(
    locations: Sequence[Location],
    links: Iterable[Tuple[Location, Location, PathSummary]],
    depths: Dict[Location, int],
) -> Dict[Tuple[Location, Location], Antichain]:
    """All-pairs minimal path summaries over a location graph.

    Parameters
    ----------
    locations:
        Every pointstamp location (vertices and edges, or stages and
        connectors for the projected logical graph).
    links:
        Directed one-step could-result-in links ``(src, dst, summary)``.
    depths:
        Loop-nesting depth of each location (used for identity summaries).

    Returns
    -------
    A mapping from ``(l1, l2)`` to the antichain of minimal summaries of
    paths from ``l1`` to ``l2``.  Every ``(l, l)`` entry contains at least
    the identity summary.  Pairs with no connecting path are absent.
    """
    adjacency: Dict[Location, List[Tuple[Location, PathSummary]]] = {
        location: [] for location in locations
    }
    for src, dst, summary in links:
        adjacency[src].append((dst, summary))

    table: Dict[Tuple[Location, Location], Antichain] = {}
    for source in locations:
        reached: Dict[Location, Antichain] = {
            source: Antichain([PathSummary.identity(depths[source])])
        }
        worklist = deque([source])
        while worklist:
            node = worklist.popleft()
            summaries = list(reached[node])
            for succ, link_summary in adjacency[node]:
                target = reached.setdefault(succ, Antichain())
                changed = False
                for summary in summaries:
                    if target.insert(summary.then(link_summary)):
                        changed = True
                if changed:
                    worklist.append(succ)
        for destination, antichain in reached.items():
            table[(source, destination)] = antichain
    return table
