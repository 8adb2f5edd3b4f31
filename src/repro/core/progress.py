"""Frontier-based progress tracking (paper section 2.3).

Every unprocessed event — an undelivered message or an outstanding
notification request — occupies a :class:`Pointstamp`: a timestamp plus a
location (connector for messages, stage for notifications).  The
:class:`ProgressState` maintains, per active pointstamp, an *occurrence
count* (outstanding events at that pointstamp) and a *precursor count*
(active pointstamps that could-result-in it).  A pointstamp with zero
precursors is in the *frontier*; notifications in the frontier may be
delivered safely.

Occurrence counts change according to the four rules of section 2.3:

==========================  ==========================
Operation                   Update
==========================  ==========================
``v.send_by(e, m, t)``      ``OC[(t, e)] += 1``
``v.on_recv(e, m, t)``      ``OC[(t, e)] -= 1``
``v.notify_at(t)``          ``OC[(t, v)] += 1``
``v.on_notify(t)``          ``OC[(t, v)] -= 1``
==========================  ==========================

The same class is each process's *local view* of global progress in
the distributed protocol (section 3.3), where the updates arrive as
broadcast ``(pointstamp, delta)`` batches (:meth:`ProgressState.apply`).
Because broadcasts from different workers may interleave, a local
occurrence count can transiently go negative; any pointstamp with a
non-zero count is treated as active (and hence blocking), which
preserves the protocol's safety property.  A view is one object for the
life of a computation: recovery rebuilds it in place
(:meth:`ProgressState.reset`).

Occurrence counts are applied at once, but precursor counts and the
frontier are *settled lazily*: an update only records the pointstamps
whose active status may have flipped, and :meth:`ProgressState.settle`
— run by every frontier read — reconciles precursor bookkeeping with the
active set.  Precursor counts and the frontier are functions of the
active set alone, not of the order updates arrived in, so a ``+1``/``-1``
pair between two reads never touches them.
"""

from __future__ import annotations

from typing import Callable, Dict, Hashable, Iterable, List, NamedTuple, Optional, Tuple

from .graph import Connector
from .pathsummary import Antichain
from .timestamp import Timestamp


class Pointstamp(NamedTuple):
    """A timestamp paired with a graph location (stage or connector)."""

    timestamp: Timestamp
    location: Hashable

    def __repr__(self) -> str:
        return "Pointstamp(%r @ %r)" % (self.timestamp, self.location)


class ProgressState:
    """Occurrence/precursor counting over a could-result-in table.

    Parameters
    ----------
    summaries:
        ``{(l1, l2): Antichain}`` giving minimal path summaries between
        locations, as produced by
        :meth:`repro.core.graph.DataflowGraph.freeze`.
    on_change:
        Called after an :meth:`apply` that moved the frontier: pending
        notifications may have become deliverable.
    """

    def __init__(
        self,
        summaries: Dict[Tuple[Hashable, Hashable], Antichain],
        cri_cache: Optional[Dict] = None,
        on_change: Optional[Callable[[], None]] = None,
    ):
        self._summaries = summaries
        self.on_change = on_change
        #: Called with the applied batch after every :meth:`apply` —
        #: even when the frontier did not move, because occurrence-count
        #: churn dirties entries for the accumulators' incremental hold
        #: scan.
        self.listeners: List[Callable[[List[Tuple[Pointstamp, int]]], None]] = []
        self.occurrence: Dict[Pointstamp, int] = {}
        #: Precursor counts of the active set as of the last
        #: :meth:`settle`; its keys are the settled active pointstamps.
        self.precursor: Dict[Pointstamp, int] = {}
        #: Pointstamps whose active status may differ from
        #: ``precursor``'s, in update order (a dict for determinism).
        self._dirty: Dict[Pointstamp, None] = {}
        #: Incrementally maintained set of zero-precursor pointstamps.
        self._frontier: set = set()
        #: Memoised counter-part of could-result-in (epoch-invariant, so
        #: the cache stays bounded on long streams; shareable between
        #: the per-process views of a cluster since the graph is fixed).
        self._cri_cache: Dict = cri_cache if cri_cache is not None else {}
        #: Bumped only when frontier *membership* changes — occurrence
        #: count churn on existing pointstamps leaves it untouched, which
        #: is what makes the domination memo below effective.  Current
        #: only after :meth:`settle`.
        self.version = 0
        #: pointstamp -> (version, dominated?) memos of
        #: :meth:`frontier_dominates` and
        #: :meth:`frontier_dominates_past_messages`.
        self._dominated: Dict[Pointstamp, Tuple[int, bool]] = {}
        self._dominated_past_messages: Dict[Pointstamp, Tuple[int, bool]] = {}
        #: Active pointstamps grouped by location, then by epoch.
        #: could-result-in is location-gated (no path summary between
        #: two locations means no pointstamp pair across them ever
        #: relates) and epoch-gated (``t1.epoch <= t2.epoch`` is
        #: necessary), so the O(active) scans in :meth:`_activate` /
        #: :meth:`_deactivate` can skip a whole group after two summary
        #: lookups and a whole epoch bucket after one integer compare,
        #: instead of paying a memo-key build per member.
        self._active_by_loc: Dict[Hashable, Dict[int, set]] = {}
        #: Frontier pointstamps grouped by location, for the same skip
        #: in :meth:`frontier_dominates`.
        self._frontier_by_loc: Dict[Hashable, set] = {}
        #: (l1, l2) -> (forward, backward, fwd_trivial, back_trivial):
        #: whether a summary exists each way and, if so, whether it
        #: relates two counter-free timestamps.  Entries are non-empty
        #: tuples, so ``pairs.get(key) or self._pair(...)`` only calls
        #: on a miss.
        self._pairs: Dict[Tuple[Hashable, Hashable], Tuple] = {}

    # ------------------------------------------------------------------
    # The could-result-in relation on pointstamps.
    # ------------------------------------------------------------------

    def could_result_in(self, p1: Pointstamp, p2: Pointstamp) -> bool:
        """True iff an event at ``p1`` could lead to an event at ``p2``."""
        t1, t2 = p1.timestamp, p2.timestamp
        if t1.epoch > t2.epoch:
            return False
        # The cache hit inlined: this is the scans' innermost call.
        cached = self._cri_cache.get(
            (p1.location, p2.location, t1.counters, t2.counters)
        )
        if cached is None:
            return self._cri_counters(p1.location, p2.location, t1.counters, t2.counters)
        return cached

    def _cri_counters(self, l1, l2, c1: Tuple, c2: Tuple) -> bool:
        """could-result-in on raw (location, counters) pairs, memoised —
        the epoch condition is the caller's responsibility.  Lets the
        scan loops below resolve a whole epoch bucket of flat
        (no-counter) timestamps with one cached verdict instead of a
        memo-key build per member."""
        key = (l1, l2, c1, c2)
        cached = self._cri_cache.get(key)
        if cached is None:
            antichain = self._summaries.get((l1, l2))
            # A summary keeping more loop levels than the timestamp
            # carries cannot apply to it.
            cached = antichain is not None and any(
                s.keep <= len(c1) and s.dominates_counters(c1, c2)
                for s in antichain
            )
            self._cri_cache[key] = cached
        return cached

    def _pair(self, l1, l2) -> Tuple[bool, bool, bool, bool]:
        """The location-level gate of the scans below, memoised."""
        summaries = self._summaries
        forward = summaries.get((l1, l2)) is not None
        backward = summaries.get((l2, l1)) is not None
        pair = (
            forward,
            backward,
            forward and self._cri_counters(l1, l2, (), ()),
            backward and self._cri_counters(l2, l1, (), ()),
        )
        self._pairs[(l1, l2)] = pair
        return pair

    # ------------------------------------------------------------------
    # Occurrence-count updates.
    # ------------------------------------------------------------------

    def update(self, pointstamp: Pointstamp, delta: int) -> None:
        """Apply an occurrence-count delta; precursor counts and the
        frontier catch up at the next :meth:`settle`."""
        if delta == 0:
            return
        occurrence = self.occurrence
        old = occurrence.get(pointstamp, 0)
        new = old + delta
        if new == 0:
            del occurrence[pointstamp]
            self._dirty[pointstamp] = None
        else:
            occurrence[pointstamp] = new
            if old == 0:
                self._dirty[pointstamp] = None

    def update_many(self, updates: Iterable[Tuple[Pointstamp, int]]) -> None:
        for pointstamp, delta in updates:
            self.update(pointstamp, delta)

    def apply(self, updates: List[Tuple[Pointstamp, int]]) -> None:
        """Apply one batch as a process view does: update, settle once
        (the listeners and the version test read the frontier version),
        tell the listeners, then ``on_change`` if the frontier moved."""
        before = self.version
        for pointstamp, delta in updates:
            self.update(pointstamp, delta)
        self.settle()
        for listener in self.listeners:
            listener(updates)
        if self.on_change is not None and self.version != before:
            self.on_change()

    def reset(self, occurrence: Dict[Pointstamp, int]) -> None:
        """Rebuild in place from checkpointed occurrence counts.

        Failure recovery (section 3.4): every peer discards its progress
        state and re-derives precursor counts and the frontier from the
        counts recorded at the last consistent checkpoint.  The path
        summaries and could-result-in caches are kept — they are
        properties of the (unchanged) dataflow graph — and so are the
        listeners and ``on_change``, which the restored batch reaches
        through :meth:`apply`.  ``version`` keeps growing, so nothing
        memoised against a pre-reset version is ever served again.
        """
        restored = [(p, d) for p, d in occurrence.items() if d]
        self.occurrence.clear()
        self.precursor.clear()
        self._dirty.clear()
        self._frontier.clear()
        self._active_by_loc.clear()
        self._frontier_by_loc.clear()
        self._dominated.clear()
        self._dominated_past_messages.clear()
        self.version += 1
        self.apply(restored)

    def settle(self) -> None:
        """Bring precursor counts, the frontier and ``version`` up to
        date with ``occurrence``.

        Only pointstamps whose active status differs from the last
        settle are (de)activated.  The result is independent of the
        order updates arrived in, because precursor counts and the
        frontier are functions of the active set alone.
        """
        dirty = self._dirty
        if not dirty:
            return
        self._dirty = {}
        occurrence = self.occurrence
        precursor = self.precursor
        for pointstamp in dirty:
            if pointstamp in occurrence:
                if pointstamp not in precursor:
                    self._activate(pointstamp)
            elif pointstamp in precursor:
                self._deactivate(pointstamp)

    def _activate(self, pointstamp: Pointstamp) -> None:
        count = 0
        precursor = self.precursor
        frontier = self._frontier
        cri = self.could_result_in
        pairs = self._pairs
        location = pointstamp.location
        epoch = pointstamp.timestamp.epoch
        flat_self = not pointstamp.timestamp.counters
        for loc, epochs in self._active_by_loc.items():
            pair = pairs.get((location, loc)) or self._pair(location, loc)
            forward, backward, fwd_trivial, back_trivial = pair
            if not forward and not backward:
                continue
            for other_epoch, group in epochs.items():
                scan_back = backward and other_epoch <= epoch
                scan_fwd = forward and epoch <= other_epoch
                if not scan_back and not scan_fwd:
                    continue
                for other in group:
                    flat = flat_self and not other.timestamp.counters
                    if scan_back and (
                        back_trivial if flat else cri(other, pointstamp)
                    ):
                        count += 1
                    if scan_fwd and (
                        fwd_trivial if flat else cri(pointstamp, other)
                    ):
                        precursor[other] += 1
                        if other in frontier:
                            frontier.discard(other)
                            self._note_membership(other, False)
        self._active_by_loc.setdefault(location, {}).setdefault(
            epoch, set()
        ).add(pointstamp)
        precursor[pointstamp] = count
        if count == 0:
            frontier.add(pointstamp)
            self._note_membership(pointstamp, True)

    def _deactivate(self, pointstamp: Pointstamp) -> None:
        del self.precursor[pointstamp]
        location = pointstamp.location
        epoch = pointstamp.timestamp.epoch
        epochs = self._active_by_loc.get(location)
        if epochs is not None:
            group = epochs.get(epoch)
            if group is not None:
                group.discard(pointstamp)
                if not group:
                    del epochs[epoch]
                    if not epochs:
                        del self._active_by_loc[location]
        frontier = self._frontier
        if pointstamp in frontier:
            frontier.discard(pointstamp)
            self._note_membership(pointstamp, False)
        precursor = self.precursor
        cri = self.could_result_in
        pairs = self._pairs
        flat_self = not pointstamp.timestamp.counters
        for loc, other_epochs in self._active_by_loc.items():
            pair = pairs.get((location, loc)) or self._pair(location, loc)
            if not pair[0]:
                continue
            fwd_trivial = pair[2]
            for other_epoch, group in other_epochs.items():
                if other_epoch < epoch:
                    continue
                for other in group:
                    flat = flat_self and not other.timestamp.counters
                    if fwd_trivial if flat else cri(pointstamp, other):
                        remaining = precursor[other] - 1
                        precursor[other] = remaining
                        if remaining == 0:
                            frontier.add(other)
                            self._note_membership(other, True)

    def _note_membership(self, pointstamp: Pointstamp, added: bool) -> None:
        """A pointstamp entered or left the frontier: bump the version
        and keep the per-location frontier groups current."""
        self.version += 1
        if added:
            self._frontier_by_loc.setdefault(pointstamp.location, set()).add(
                pointstamp
            )
        else:
            group = self._frontier_by_loc.get(pointstamp.location)
            if group is not None:
                group.discard(pointstamp)
                if not group:
                    del self._frontier_by_loc[pointstamp.location]

    # ------------------------------------------------------------------
    # Frontier queries.
    # ------------------------------------------------------------------

    def is_active(self, pointstamp: Pointstamp) -> bool:
        return pointstamp in self.occurrence

    def in_frontier(self, pointstamp: Pointstamp) -> bool:
        """True iff the pointstamp is active with no active precursors."""
        if self._dirty:
            self.settle()
        return pointstamp in self._frontier

    def frontier(self) -> List[Pointstamp]:
        """The current frontier of active pointstamps."""
        if self._dirty:
            self.settle()
        return list(self._frontier)

    def unblocked(self, pointstamp: Pointstamp) -> bool:
        """True when no *other* active pointstamp could-result-in it: the
        delivery test for a request, which need not be active here (its
        ``+1`` may still be held in an accumulator elsewhere)."""
        if self._dirty:
            self.settle()
        return pointstamp in self._frontier or not self.frontier_dominates(pointstamp)

    def frontier_dominates(self, pointstamp: Pointstamp) -> bool:
        """True iff some *other* frontier element could-result-in it.

        Because could-result-in is transitive and every active
        pointstamp is dominated by a frontier element, this is
        equivalent to "some other active pointstamp could-result-in
        it".  Memoised per frontier version: the hot paths (notification
        delivery tests, accumulator hold conditions) ask about the same
        pointstamps repeatedly between frontier movements.
        """
        if self._dirty:
            self.settle()
        cached = self._dominated.get(pointstamp)
        if cached is not None and cached[0] == self.version:
            return cached[1]
        return self._scan_dominators(pointstamp, self._dominated, None)

    def frontier_dominates_past_messages(self, pointstamp: Pointstamp) -> bool:
        """True iff some *other* frontier element that could-result-in
        it is not a message at its own time: a stage pointstamp (an
        open input epoch, a pending notification) or one with another
        timestamp.  Memoised per frontier version like
        :meth:`frontier_dominates`, which it implies."""
        if self._dirty:
            self.settle()
        memo = self._dominated_past_messages
        cached = memo.get(pointstamp)
        if cached is not None and cached[0] == self.version:
            return cached[1]
        return self._scan_dominators(pointstamp, memo, pointstamp.timestamp)

    def _scan_dominators(
        self,
        pointstamp: Pointstamp,
        memo: Dict[Pointstamp, Tuple[int, bool]],
        skip_messages_at: Optional[Timestamp],
    ) -> bool:
        """The frontier scan behind both domination tests, memoised in
        ``memo``; frontier messages at ``skip_messages_at`` do not count."""
        cri = self.could_result_in
        pairs = self._pairs
        location = pointstamp.location
        result = False
        for loc, group in self._frontier_by_loc.items():
            if not (pairs.get((loc, location)) or self._pair(loc, location))[0]:
                continue
            if skip_messages_at is not None and isinstance(loc, Connector):
                group = [o for o in group if o.timestamp != skip_messages_at]
            if any(other != pointstamp and cri(other, pointstamp) for other in group):
                result = True
                break
        if len(memo) > 100_000:
            memo.clear()
        memo[pointstamp] = (self.version, result)
        return result

    def active_pointstamps(self) -> List[Pointstamp]:
        return list(self.occurrence)

    def __len__(self) -> int:
        return len(self.occurrence)

    def __repr__(self) -> str:
        return "ProgressState(%d active, frontier=%r)" % (
            len(self.occurrence),
            self.frontier(),
        )
