"""The distributed progress tracking protocol (paper section 3.3).

Workers never update their local occurrence counts directly.  Instead,
every callback completion produces an ordered batch of ``(pointstamp,
delta)`` progress updates — the ``+1`` for each send and notification
request, followed by the ``-1`` for the event just processed — which is
disseminated to a *local view* (:class:`repro.core.progress.ProgressState`)
at every process.  Broadcasts between a pair of nodes are FIFO; across
nodes they interleave arbitrarily, so views can transiently disagree
(and counts can dip negative), but no local frontier ever passes the
global frontier.

Dissemination runs in one of four modes, matching Figure 6c:

``none``
    every worker batch is broadcast to all processes immediately;
``local``
    batches accumulate in a per-process buffer that nets matching
    updates and flushes only when the safety condition requires;
``global``
    batches go to a central (cluster-level) accumulator that nets
    updates from all processes before broadcasting;
``local+global``
    both: process-level buffers feed the central accumulator.

The buffering safety condition is the paper's: a buffered pointstamp
``p`` may be withheld while either (a) some *other* element of the local
frontier could-result-in ``p``, or (b) ``p`` is a vertex (stage)
pointstamp whose net update — local count, plus buffered delta, plus
updates sent but not yet seen back — is strictly positive.  When any
buffered pointstamp fails both tests the whole buffer is flushed, with
positive deltas sent before negative ones.

The whole progress plane lives here.  :class:`Accumulator` is the one
implementation of that algorithm (buffer and netting, in-flight ledger,
hold-verdict memo, deferred-flush timer); :class:`ProtocolNode` and
:class:`CentralAccumulator` add only routing.  :class:`ProgressPlane`
owns every endpoint together with the views, the generation fence, the
scope projection and the queued-interior counts, and is what the data
plane and the control plane talk to.
"""

from __future__ import annotations

from functools import partial
from typing import Any, Callable, Dict, List, Optional, Tuple

from ..core.graph import Stage
from ..core.progress import Pointstamp, ProgressState
from ..core.scope import ScopeNode
from ..core.timestamp import Timestamp
from ..sim.des import Simulator
from ..sim.network import Network

#: One progress update on the wire: location id + timestamp + delta.
UPDATE_WIRE_BYTES = 20

ProgressUpdate = Tuple[Pointstamp, int]

PROTOCOL_MODES = ("none", "local", "global", "local+global")


def wire_size(updates: List[ProgressUpdate]) -> int:
    return UPDATE_WIRE_BYTES * len(updates)


def _may_hold_update(
    state: ProgressState,
    pointstamp: Pointstamp,
    buffered: int,
    in_flight: int,
    queued: Optional[Dict[Pointstamp, int]] = None,
) -> bool:
    """The paper's buffering safety condition, amended for liveness.

    (a) Some *other* element of the local frontier could-result-in the
    pointstamp: flushing can wait, because no recipient's frontier can
    advance past it anyway.

    (b) For a vertex pointstamp whose buffered delta is *positive* and
    whose net update (local count + buffer + in-flight) stays strictly
    positive: withholding a surplus ``+1`` cannot wrongly advance anyone.

    The amendment: the paper states (b) without the positive-delta
    restriction, but two processes that each hold notification *decrements*
    under (b) — each computing a positive net from its own view, unaware
    of the other's withheld ``-1`` — deadlock the computation.  Restricting
    (b) to positive buffered deltas preserves the traffic savings (netting
    still cancels matched pairs in-buffer) and guarantees that decrements
    eventually disseminate.

    Scope-boundary pointstamps (a :class:`ScopeNode` location, produced
    when a summarized scope's interior updates are projected onto its
    boundary) get a third hold reason: while this endpoint knows of
    interior work still queued for the scope at that projected time
    (a key of ``queued``), the boundary delta may be withheld.  That
    count is an input of the verdict like any other:
    :meth:`ProgressPlane.note_dequeue` re-tests the hold when it reaches
    zero, because the callback that took the last delivery may net to
    nothing at this endpoint and so never touch the entry again.

    Withholding a *negative* delta only makes peers more conservative.
    Withholding a positive boundary delta has no such argument: the
    paper restricts (b) to vertex pointstamps, and a callback's consumed
    and produced interior pointstamps project onto one boundary
    pointstamp, so a downstream ``-1`` can reach a peer before the
    ``+1`` it answers (DESIGN.md, "The progress plane").
    """
    if state.frontier_dominates(pointstamp):
        return True
    location = pointstamp.location
    if isinstance(location, ScopeNode):
        if queued is not None and pointstamp in queued:
            return True
        # Condition (b) applies to boundary pointstamps too: a surplus
        # positive whose globally visible net stays strictly positive
        # keeps every peer conservative about the scope.  This is what
        # coalesces boundary deltas when the loop's records live mostly
        # on *other* processes and the local pending count is zero.
        if buffered > 0:
            net = state.occurrence.get(pointstamp, 0) + buffered + in_flight
            if net > 0:
                return True
        return False
    if buffered > 0 and isinstance(location, Stage):
        net = state.occurrence.get(pointstamp, 0) + buffered + in_flight
        if net > 0:
            return True
    return False


def net_updates(updates: List[ProgressUpdate]) -> List[ProgressUpdate]:
    """Combine updates with the same pointstamp; positives first."""
    combined: Dict[Pointstamp, int] = {}
    for pointstamp, delta in updates:
        combined[pointstamp] = combined.get(pointstamp, 0) + delta
    merged = [(p, d) for p, d in combined.items() if d != 0]
    merged.sort(key=lambda item: item[1], reverse=True)
    return merged


class ProgressView:
    """A process's local view of global progress.

    Wraps a :class:`ProgressState` and the worker notification recheck
    hook: whenever updates are applied, pending notifications at this
    process may have become deliverable.
    """

    def __init__(
        self,
        summaries,
        on_change: Optional[Callable[[], None]] = None,
        cri_cache: Optional[Dict] = None,
    ):
        self.state = ProgressState(summaries, cri_cache=cri_cache)
        self.on_change = on_change
        #: Called with the applied update list after every ``apply`` —
        #: even when the frontier did not move, because occurrence-count
        #: churn invalidates the accumulators' hold-verdict memos.
        self.listeners: List[Callable[[List[ProgressUpdate]], None]] = []

    def apply(self, updates: List[ProgressUpdate]) -> None:
        state = self.state
        before = state.version
        for pointstamp, delta in updates:
            state.update(pointstamp, delta)
        for listener in self.listeners:
            listener(updates)
        # Deliverability can only change when the frontier moved.
        if self.on_change is not None and state.version != before:
            self.on_change()

    def snapshot(self) -> Dict[Pointstamp, int]:
        """The occurrence counts this view currently holds (a copy)."""
        return dict(self.state.occurrence)

    def reset(self, occurrence: Dict[Pointstamp, int]) -> None:
        """Rebuild the view from checkpointed occurrence counts.

        Used by failure recovery (section 3.4): every peer discards its
        progress state and re-derives precursor counts and the frontier
        from the counts recorded at the last consistent checkpoint.  The
        path summaries and the shared could-result-in cache are reused —
        they are properties of the (unchanged) dataflow graph.
        """
        state = self.state
        self.state = ProgressState(state._summaries, cri_cache=state._cri_cache)
        # Apply through the normal path so on_change fires and pending
        # notifications deliverable under the restored frontier run.
        self.apply([(p, d) for p, d in occurrence.items() if d])

    def unblocked(self, pointstamp: Pointstamp) -> bool:
        """True when no *other* active pointstamp could-result-in it.

        This is the delivery test for notifications: the requesting
        worker knows its own request exists, so the pointstamp itself
        need not be visible in the view (its ``+1`` may still be held in
        an accumulator elsewhere).  Scanning the frontier suffices:
        could-result-in is transitive and every active pointstamp is
        dominated by some frontier element, so an active blocker implies
        a frontier blocker.
        """
        return not self.state.frontier_dominates(pointstamp)


class Accumulator:
    """One endpoint of the section 3.3 accumulator algorithm.

    The paper runs the same algorithm at two levels — per process and
    per cluster — and so does this class: it buffers and nets updates,
    withholds the buffer while every entry passes the safety condition
    (:func:`_may_hold_update`) against ``view``, tracks what it sent
    but has not yet seen back, and flushes.  Subclasses add routing
    only: where a flushed batch goes (:meth:`_disseminate`) and which
    acknowledgements they consume.
    """

    def __init__(self, process: int, view: ProgressView, plane: "ProgressPlane"):
        self.process = process
        self.view = view
        self.plane = plane
        self.buffer: Dict[Pointstamp, int] = {}
        #: Origins ``(process, seq)`` whose batches were absorbed here
        #: and are acknowledged by the next flush.  Only an endpoint
        #: with upstream feeders (the central accumulator) ever owes any.
        self._covered: List[Tuple[int, int]] = []
        self._in_flight: Dict[int, List[ProgressUpdate]] = {}
        self._in_flight_totals: Dict[Pointstamp, int] = {}
        self._next_seq = 0
        #: Boundary pointstamp ``(ScopeNode, projected time)`` -> interior
        #: deliveries still queued for that scope as far as this endpoint
        #: can see (its own process for a node, the whole cluster for the
        #: central).  Maintained by :meth:`ProgressPlane.note_enqueue` /
        #: ``note_dequeue``; a key is present iff its count is positive.
        self.queued: Dict[Pointstamp, int] = {}
        #: A deferred flush is pending on the plane's timer.  When the
        #: plane batches (``ProgressPlane.defer_flush``), an unholdable
        #: buffer is not flushed per callback but once per interval —
        #: Naiad batches its progress updates the same way (the paper's
        #: §6 micro-benchmark measures the resulting coordination
        #: rounds), and boundary deltas from a summarized scope coalesce
        #: heavily within an interval.  The timer is a simulator event,
        #: so a pending flush keeps ``run()`` alive.
        self._flush_scheduled = False
        #: Hold-verdict memo with exact invalidation: an entry maps a
        #: pointstamp to ``(frontier version vector, verdict)`` and is
        #: dropped when any input of its verdict changes — its buffered
        #: delta (accumulate), its in-flight total (ledger), its
        #: occurrence count (view listener), its queued-interior count
        #: (``ProgressPlane.note_dequeue``) — while a frontier move
        #: invalidates only the entries whose version vector actually
        #: advanced (inner-iteration churn in *other* scopes leaves a
        #: verdict's vector, and hence its memo entry, intact).
        self._hold_cache: Dict[Pointstamp, Tuple[Tuple, bool]] = {}
        self._hold_version = -1
        #: Incremental safety-condition scan — the fix for the measured
        #: 64-computer hot path (_maybe_flush runs on every accumulate
        #: and every progress receive, and used to rescan the whole
        #: buffer each time).  ``_verified`` means every buffered
        #: pointstamp outside ``_dirty`` was proven holdable and none of
        #: those verdicts has been invalidated since, so a recheck only
        #: needs to look at the dirty ones.  A dict, not a set: scan
        #: order (and with it ``hold_evals``) must not follow the
        #: address-derived hashes of pointstamps.
        self._verified = False
        self._dirty: Dict[Pointstamp, None] = {}
        self.hold_evals = 0
        self.hold_memo_hits = 0
        view.listeners.append(self._note_view_updates)

    def accumulate(
        self,
        updates: List[ProgressUpdate],
        origin: Optional[Tuple[int, int]] = None,
    ) -> None:
        """Net ``updates`` into the buffer and re-test the holds."""
        buffer = self.buffer
        cache = self._hold_cache
        dirty = self._dirty
        for pointstamp, delta in updates:
            buffer[pointstamp] = buffer.get(pointstamp, 0) + delta
            if buffer[pointstamp] == 0:
                del buffer[pointstamp]
            cache.pop(pointstamp, None)
            dirty[pointstamp] = None
        if origin is not None:
            self._covered.append(origin)
        self._maybe_flush()

    def _disseminate(
        self,
        updates: List[ProgressUpdate],
        covered: Tuple[Tuple[int, int], ...],
    ) -> None:
        raise NotImplementedError

    # ------------------------------------------------------------------
    # The buffering safety condition.
    # ------------------------------------------------------------------

    def _note_view_updates(self, updates: List[ProgressUpdate]) -> None:
        cache = self._hold_cache
        dirty = self._dirty
        # The applied pointstamps' occurrence counts changed — an input
        # of condition (b) the version vector does not capture.
        for pointstamp, _ in updates:
            cache.pop(pointstamp, None)
            dirty[pointstamp] = None
        version = self.view.state.version
        if version != self._hold_version:
            self._hold_version = version
            # The frontier moved somewhere; re-examine exactly the
            # entries whose version vector advanced.
            state = self.view.state
            stale = [
                pointstamp
                for pointstamp, (vector, _) in cache.items()
                if state.frontier_version_vector(pointstamp.location) != vector
            ]
            for pointstamp in stale:
                del cache[pointstamp]
                dirty[pointstamp] = None

    def _may_hold(self, pointstamp: Pointstamp, buffered: int) -> bool:
        state = self.view.state
        vector = state.frontier_version_vector(pointstamp.location)
        cached = self._hold_cache.get(pointstamp)
        if cached is not None and cached[0] == vector:
            self.hold_memo_hits += 1
            return cached[1]
        self.hold_evals += 1
        verdict = _may_hold_update(
            state,
            pointstamp,
            buffered,
            self._in_flight_totals.get(pointstamp, 0),
            self.queued,
        )
        self._hold_cache[pointstamp] = (vector, verdict)
        return verdict

    def _holds_invalidated(self, pointstamp: Pointstamp) -> None:
        if self._hold_cache.pop(pointstamp, None) is not None:
            self._dirty[pointstamp] = None

    def _scan_holds(self) -> bool:
        """True iff the whole buffer may (still) be withheld.

        When the previous scan verified the buffer, only pointstamps
        whose verdict inputs changed since (the dirty ones) are
        re-examined; the rest are covered by exact invalidation.
        """
        buffer = self.buffer
        if self._verified:
            dirty = self._dirty
            if not dirty:
                self.hold_memo_hits += len(buffer)
                return True
            examined = 0
            for pointstamp in dirty:
                delta = buffer.get(pointstamp)
                if delta is not None:
                    examined += 1
                    if not self._may_hold(pointstamp, delta):
                        return False
            dirty.clear()
            # The entries the dirty scan skipped are verdicts reused
            # as-is — each one an evaluation the flat rescan performed
            # every round.
            self.hold_memo_hits += len(buffer) - examined
            return True
        if all(self._may_hold(p, d) for p, d in buffer.items()):
            self._verified = True
            self._dirty.clear()
            return True
        return False

    # ------------------------------------------------------------------
    # Flushing.
    # ------------------------------------------------------------------

    def _maybe_flush(self) -> None:
        if not self.buffer:
            if self._covered:
                # All buffered updates cancelled: acknowledge origins so
                # their in-flight ledgers do not pin condition (b).
                if self.plane.defer_flush is not None:
                    self._schedule_flush()
                else:
                    self._disseminate([], tuple(self._covered))
                    self._covered = []
            return
        if self._scan_holds():
            return
        if self.plane.defer_flush is not None:
            self._schedule_flush()
            return
        self._flush_now()

    def _schedule_flush(self) -> None:
        if not self._flush_scheduled:
            self._flush_scheduled = True
            self.plane.defer_flush(self._deferred_flush)

    def _deferred_flush(self) -> None:
        self._flush_scheduled = False
        if self.buffer and self._scan_holds():
            # The buffer became holdable while the timer was pending
            # (e.g. the unholdable delta netted away); owed
            # acknowledgements wait for the next real flush, exactly as
            # the undeferred path would have them.
            return
        if self.buffer or self._covered:
            self._flush_now()

    def _flush_now(self) -> None:
        updates = net_updates(list(self.buffer.items()))
        covered = tuple(self._covered)
        self.buffer.clear()
        self._hold_cache.clear()
        self._verified = False
        self._dirty.clear()
        self._covered = []
        self._disseminate(updates, covered)

    # ------------------------------------------------------------------
    # The in-flight ledger: what this endpoint sent and has not seen
    # come back, an input of condition (b).
    # ------------------------------------------------------------------

    def _remember_in_flight(self, updates: List[ProgressUpdate]) -> int:
        seq = self._next_seq
        self._next_seq += 1
        if updates:
            self._in_flight[seq] = updates
            totals = self._in_flight_totals
            for pointstamp, delta in updates:
                totals[pointstamp] = totals.get(pointstamp, 0) + delta
                self._holds_invalidated(pointstamp)
        return seq

    def _forget_in_flight(self, seq: int) -> None:
        updates = self._in_flight.pop(seq, None)
        if updates is None:
            return
        totals = self._in_flight_totals
        for pointstamp, delta in updates:
            remaining = totals.get(pointstamp, 0) - delta
            if remaining:
                totals[pointstamp] = remaining
            else:
                totals.pop(pointstamp, None)
            self._holds_invalidated(pointstamp)

    # ------------------------------------------------------------------
    # Checkpoint / recovery support (section 3.4).
    # ------------------------------------------------------------------

    def drain(self) -> List[ProgressUpdate]:
        """Surrender all withheld updates for a synchronous flush.

        Valid only at a checkpoint barrier, when the network holds no
        in-flight messages: every update this endpoint sent has been
        applied at every peer and every origin's ledger is cleared by
        the same barrier, so ledgers and owed acknowledgements are
        dropped rather than waiting for acknowledgement rounds.
        """
        updates = list(self.buffer.items())
        self.reset()
        return updates

    def reset(self) -> None:
        """Discard buffered and in-flight ledger state (failure recovery)."""
        self.buffer.clear()
        self._covered = []
        self._in_flight.clear()
        self._in_flight_totals.clear()
        self._hold_cache.clear()
        self._hold_version = -1
        self._verified = False
        self._dirty.clear()


class ProtocolNode(Accumulator):
    """Per-process protocol endpoint.

    One node exists per process; in the ``global`` modes a single extra
    :class:`CentralAccumulator` nets updates cluster-wide.  Routing:
    what leaves the node goes to the central accumulator when there is
    one, else to every member, and comes back through :meth:`receive`.
    """

    def __init__(
        self,
        process: int,
        view: ProgressView,
        plane: "ProgressPlane",
        mirror: bool = False,
    ):
        super().__init__(process, view, plane)
        #: A mirror node shares another process's view object (elastic
        #: add_process): it buffers and flushes its own workers' updates
        #: normally but must not apply received broadcasts — the view
        #: owner's delivery already applies them to the shared object.
        self.mirror = mirror

    def _disseminate(
        self,
        updates: List[ProgressUpdate],
        covered: Tuple[Tuple[int, int], ...],
    ) -> None:
        if not updates:
            return
        plane = self.plane
        seq = self._remember_in_flight(updates)
        size = wire_size(updates)
        central = plane.central
        if central is not None:
            deliver = plane.fence.register(
                self.process,
                central.process,
                lambda: central.accumulate(updates, (self.process, seq)),
            )
            plane.network.send(
                self.process, central.process, size, "progress", deliver
            )
            return
        origin = ((self.process, seq),)
        for dst in list(plane.live_processes):
            node = plane.nodes[dst]
            deliver = plane.fence.register(
                self.process, dst, lambda node=node: node.receive(updates, origin)
            )
            plane.network.send(self.process, dst, size, "progress", deliver)

    def receive(
        self,
        updates: List[ProgressUpdate],
        covered: Tuple[Tuple[int, int], ...],
    ) -> None:
        """A progress broadcast arrived at this process."""
        for origin, seq in covered:
            if origin == self.process:
                self._forget_in_flight(seq)
        if not self.mirror:
            # A mirror node's view is another process's object; that
            # process's own delivery applies the updates exactly once.
            self.view.apply(updates)
        # The paper: on receiving updates the accumulator must re-test
        # whether its buffered pointstamps may still be withheld.
        self._maybe_flush()


class CentralAccumulator(Accumulator):
    """The cluster-level accumulator (hosted on one process).

    Nets updates arriving from process nodes (:meth:`accumulate` with
    the sender's origin) and broadcasts their combined effect, holding
    against the hosting process's view.  Routing: every flush goes to
    every member, carrying the origins it covers plus its own ``(-1,
    seq)``, which its home delivery consumes.
    """

    def _disseminate(
        self,
        updates: List[ProgressUpdate],
        covered: Tuple[Tuple[int, int], ...],
    ) -> None:
        plane = self.plane
        covered = covered + ((-1, self._remember_in_flight(updates)),)
        size = wire_size(updates)
        for dst in list(plane.live_processes):
            node = plane.nodes[dst]
            deliver = plane.fence.register(
                self.process,
                dst,
                lambda node=node: self._deliver(node, updates, covered),
            )
            plane.network.send(self.process, dst, size, "progress", deliver)

    def _deliver(
        self,
        node: ProtocolNode,
        updates: List[ProgressUpdate],
        covered: Tuple[Tuple[int, int], ...],
    ) -> None:
        home = node.process == self.process
        if home:
            for origin, seq in covered:
                if origin == -1:
                    self._forget_in_flight(seq)
        node.receive(updates, covered)
        if home:
            self._maybe_flush()


class _Fence:
    """Generation fencing for the progress plane.

    Every in-flight progress-protocol copy (node broadcast, central
    accumulate, central deliver, controller broadcast) registers here
    before entering the network and unregisters as it delivers.  When a
    process is fenced, :meth:`settle` applies every outstanding copy
    touching it *synchronously*, in send order — equivalent to the
    network having been instantaneously fast for exactly those copies
    (progress updates commute, and occurrence accounting is exact
    either way) — so all views agree on the fenced incarnation's final
    effects and no accumulator hold waits on a dead peer forever.  The
    network copy of a settled entry that straggles in later finds its
    key gone and is dropped (``on_stale(src, dst)`` is told): that is
    the deterministic discard of zombie progress traffic.
    """

    __slots__ = ("_entries", "_next_key", "_on_stale")

    def __init__(self, on_stale: Optional[Callable[[int, int], None]]):
        self._entries: Dict[int, Tuple[int, int, Callable[[], None]]] = {}
        self._next_key = 0
        self._on_stale = on_stale

    def register(
        self, src: int, dst: int, deliver: Callable[[], None]
    ) -> Callable[[], None]:
        key = self._next_key
        self._next_key += 1
        self._entries[key] = (src, dst, deliver)

        def wrapped() -> None:
            entry = self._entries.pop(key, None)
            if entry is None:
                # Settled at fence time (or cleared by a global
                # rollback): this network copy is provably stale.
                if self._on_stale is not None:
                    self._on_stale(src, dst)
                return
            entry[2]()

        return wrapped

    def settle(self, process: int) -> int:
        """Apply every outstanding copy from or to ``process`` now, in
        send order; returns how many were settled."""
        keys = sorted(
            key
            for key, (src, dst, _) in self._entries.items()
            if src == process or dst == process
        )
        for key in keys:
            entry = self._entries.pop(key, None)
            if entry is not None:
                # A settled deliver can trigger fresh broadcasts that
                # register (and even settle) new entries; the snapshot
                # of keys above keeps this loop over the original set.
                entry[2]()
        return len(keys)

    def clear(self) -> None:
        """Forget every entry (a global rollback tore the network down:
        the guarded copies will never run, so nothing can double-apply)."""
        self._entries.clear()


class ProgressPlane:
    """The progress plane of a cluster: views, endpoints, fence, scopes.

    Built from the graph's summary index, a simulator and a network —
    no cluster, no vertices — so it can be driven on its own.
    ``notifies(stage)`` says whether a stage's vertices request
    notifications; a loop scope none of whose stages do is *summarized*:
    its interior pointstamps are projected onto the scope's boundary
    :class:`ScopeNode` (inner loop coordinates dropped) before
    dissemination, so inner-iteration churn nets away inside the
    accumulators instead of crossing the network.  ``live_processes`` is
    the cluster's membership list, shared and read at every broadcast.

    The data plane calls :meth:`submit`, :meth:`view`,
    :meth:`note_enqueue` / :meth:`note_dequeue` and
    :meth:`is_summarized`; everything else is control plane.
    ``on_frontier_change(process)`` fires when that process's frontier
    moved (pending notifications may have become deliverable);
    ``on_stale(src, dst)`` when a fenced-off progress copy is dropped.
    """

    def __init__(
        self,
        summaries,
        notifies: Callable[[Stage], bool],
        sim: Simulator,
        network: Network,
        live_processes: List[int],
        progress_mode: str,
        progress_batch_interval: float,
        *,
        on_frontier_change: Optional[Callable[[int], None]] = None,
        on_stale: Optional[Callable[[int, int], None]] = None,
    ):
        if progress_mode not in PROTOCOL_MODES:
            raise ValueError("unknown protocol mode %r" % progress_mode)
        self.sim = sim
        self.network = network
        self.live_processes = live_processes
        self.accumulates_locally = progress_mode in ("local", "local+global")
        self.on_frontier_change = on_frontier_change
        self.fence = _Fence(on_stale)
        #: Loop contexts whose interior progress is summarized.
        self.summarized_scopes: Tuple = ()
        #: location -> ScopeNode of its outermost summarized enclosing
        #: scope; empty when nothing is summarized (every data-plane
        #: hook is then a single truthiness test).
        self._proj_table: Dict[Any, ScopeNode] = {}
        #: Pointstamp -> projected Pointstamp memo for :meth:`project`.
        self._proj_cache: Dict[Pointstamp, Pointstamp] = {}
        self._summarize_scopes(summaries, notifies)
        #: Deferred-flush timer shared by all endpoints: called with a
        #: thunk to run one accumulation interval later.  Only
        #: summarized scopes batch — scope-free graphs never defer.
        self.defer_flush: Optional[Callable[[Callable[[], None]], None]] = None
        if self._proj_table and progress_batch_interval > 0:
            self.defer_flush = partial(sim.schedule, progress_batch_interval)
        #: Processes added at runtime; their views alias process 0's.
        self._mirrors: List[int] = []
        shared_cri_cache: Dict = {}
        self.views: List[ProgressView] = [
            ProgressView(
                summaries,
                on_change=partial(self._frontier_moved, process),
                cri_cache=shared_cri_cache,
            )
            for process in range(len(live_processes))
        ]
        self.nodes: List[ProtocolNode] = [
            ProtocolNode(process, view, self)
            for process, view in enumerate(self.views)
        ]
        #: Hosted on process 0, mirroring Naiad, where the cluster-level
        #: accumulator lives in one process.
        self.central: Optional[CentralAccumulator] = None
        if progress_mode in ("global", "local+global"):
            self.central = CentralAccumulator(0, self.views[0], self)

    def _summarize_scopes(self, index, notifies: Callable[[Stage], bool]) -> None:
        """Choose the summarized scopes and fill the projection table.

        A loop scope qualifies when no stage in its subtree notifies:
        interior work then never needs a cluster-wide notification
        frontier.  The outermost qualifying ancestor absorbs its whole
        nest.
        """
        summarized: set = set()
        for scope in index.scopes:
            if scope is None:
                continue  # the root streaming context has no boundary
            if not any(
                getattr(member, "kind", None) is not None and notifies(member)
                for inner in index.subtree(scope)
                for member in index.members(inner)
            ):
                summarized.add(id(scope))
        self.summarized_scopes = tuple(
            scope for scope in index.scopes if id(scope) in summarized
        )
        for scope in index.scopes:
            if scope is None:
                continue
            # scope_chain runs innermost -> root; scan from the top so
            # the outermost summarized ancestor owns the projection.
            for ancestor in reversed(index.scope_chain(scope)[:-1]):
                if id(ancestor) in summarized:
                    node = index.scope_node(ancestor)
                    for member in index.members(scope):
                        self._proj_table[member] = node
                    break

    # ------------------------------------------------------------------
    # Data plane.
    # ------------------------------------------------------------------

    def submit(self, process: int, updates: List[ProgressUpdate]) -> None:
        """A worker on ``process`` committed a callback's updates:
        project them, then hand them to its node — to accumulate in the
        ``local`` modes, to pass on netted otherwise."""
        if self._proj_table:
            updates = self.project(updates)
        if not updates:
            return
        node = self.nodes[process]
        if self.accumulates_locally:
            node.accumulate(updates)
        else:
            node._disseminate(net_updates(updates), ())

    def view(self, process: int) -> ProgressView:
        return self.views[process]

    def is_summarized(self, stage: Stage) -> bool:
        """True when ``stage`` lies inside a summarized scope, where its
        own pointstamps are never disseminated."""
        return stage in self._proj_table

    def note_enqueue(self, connector, timestamp: Timestamp, process: int) -> None:
        """A delivery on ``connector`` was queued at a worker of
        ``process``; counts only if it is interior to a summarized scope."""
        node = self._proj_table.get(connector)
        if node is None:
            return
        boundary = Pointstamp(
            Timestamp(timestamp.epoch, timestamp.counters[: node.depth]), node
        )
        for endpoint in (self.nodes[process], self.central):
            if endpoint is not None:
                endpoint.queued[boundary] = endpoint.queued.get(boundary, 0) + 1

    def note_dequeue(
        self, connector, timestamp: Timestamp, process: int, count: int = 1
    ) -> None:
        """``count`` such deliveries left the queue (run, or lost)."""
        node = self._proj_table.get(connector)
        if node is None:
            return
        boundary = Pointstamp(
            Timestamp(timestamp.epoch, timestamp.counters[: node.depth]), node
        )
        for endpoint in (self.nodes[process], self.central):
            if endpoint is not None:
                remaining = endpoint.queued.get(boundary, 0) - count
                if remaining > 0:
                    endpoint.queued[boundary] = remaining
                else:
                    endpoint.queued.pop(boundary, None)
                    if boundary in endpoint.buffer:
                        # The last queued interior delivery is gone, and
                        # the callback that took it may net to nothing
                        # here (or never reach the central): no later
                        # update need touch this verdict, so re-test now.
                        endpoint._holds_invalidated(boundary)
                        self.sim.schedule(0.0, endpoint._maybe_flush)

    # ------------------------------------------------------------------
    # Control plane.
    # ------------------------------------------------------------------

    def project(self, updates: List[ProgressUpdate]) -> List[ProgressUpdate]:
        """Replace interior pointstamps of summarized scopes with their
        boundary projection.  Idempotent — ScopeNode locations are never
        projection keys — so already-projected batches pass through."""
        table = self._proj_table
        if not table:
            return updates
        cache = self._proj_cache
        out: List[ProgressUpdate] = []
        for pointstamp, delta in updates:
            node = table.get(pointstamp.location)
            if node is not None:
                projected = cache.get(pointstamp)
                if projected is None:
                    t = pointstamp.timestamp
                    projected = Pointstamp(
                        Timestamp(t.epoch, t.counters[: node.depth]), node
                    )
                    if len(cache) > 100_000:
                        cache.clear()
                    cache[pointstamp] = projected
                pointstamp = projected
            out.append((pointstamp, delta))
        return out

    def agreeing_views(self, live_only: bool = False) -> List[ProgressView]:
        """The distinct view objects, identity-deduplicated.

        Mirror processes alias process 0's view object, so iterating
        ``views`` would visit it twice — whatever is applied through
        this list lands on each object exactly once.  ``live_only``
        restricts to current members: a removed process's view is stale
        by design and must not vote in agreement checks.
        """
        processes = self.live_processes if live_only else range(len(self.views))
        unique: Dict[int, ProgressView] = {}
        for process in processes:
            view = self.views[process]
            unique.setdefault(id(view), view)
        return list(unique.values())

    def apply_all(self, updates: List[ProgressUpdate]) -> None:
        """Apply ``updates`` to every view directly, off the network."""
        for view in self.agreeing_views():
            view.apply(list(updates))

    def controller_broadcast(self, updates: List[ProgressUpdate]) -> None:
        """Low-volume control-plane updates from the controller (proc 0)."""
        size = wire_size(updates)
        for dst in list(self.live_processes):
            node = self.nodes[dst]
            deliver = self.fence.register(
                0, dst, lambda node=node: node.receive(updates, ())
            )
            self.network.send(0, dst, size, "progress", deliver)

    def flush_all(self) -> None:
        """Synchronously disseminate all withheld progress updates.

        Part of the checkpoint barrier: once nothing is in flight, the
        updates held in per-process accumulators (under the section 3.3
        safety condition) and in the central accumulator are applied
        directly to every view, bringing all processes to agreement.
        """
        updates: List[ProgressUpdate] = []
        for node in self.nodes:
            updates.extend(node.drain())
        if self.central is not None:
            updates.extend(self.central.drain())
        merged = net_updates(updates)
        if merged:
            self.apply_all(merged)

    def withholding(self, process: int) -> bool:
        """True while ``process``'s node holds undisseminated updates."""
        return bool(self.nodes[process].buffer)

    def flush_node(self, process: int) -> None:
        """Force ``process``'s withheld updates out through the normal
        dissemination path (it is dying or departing: they are committed
        effects its peers never saw).  Ledgers stay intact — unlike the
        barrier's drain, messages are still in flight out there."""
        node = self.nodes[process]
        if node.buffer:
            node._flush_now()

    def settle(self, process: int) -> int:
        """Apply every outstanding protocol copy from or to ``process``
        now, in send order (it is being fenced); returns how many."""
        return self.fence.settle(process)

    def reset(self, occurrence: Dict[Pointstamp, int]) -> None:
        """Global rollback: rebuild every view from ``occurrence``.

        The network was torn down and every worker queue died, so the
        fence's entries (whose copies will never run — a later settle
        would re-apply pre-rollback updates), the queued-interior counts
        and all accumulator state go too.  ``occurrence`` may be in
        interior coordinates (async snapshots) or already projected
        (barrier snapshots copy views); projection is idempotent.
        """
        self.fence.clear()
        for endpoint in self.nodes + [self.central]:
            if endpoint is not None:
                endpoint.reset()
                endpoint.queued.clear()
        if self._proj_table:
            occurrence = dict(net_updates(self.project(list(occurrence.items()))))
        for view in self.agreeing_views():
            view.reset(occurrence)

    def add_mirror(self, process: int) -> None:
        """Admit a process added at runtime.  It mirrors process 0's
        view: the shared object already holds a consistent occurrence
        picture, and the mirror flag on its node keeps broadcast deltas
        from being applied to it twice."""
        self.views.append(self.views[0])
        self.nodes.append(ProtocolNode(process, self.views[0], self, mirror=True))
        self._mirrors.append(process)

    def describe(self) -> List[str]:
        """Non-empty views and withheld buffers (``debug_state``)."""
        lines = []
        for process, view in enumerate(self.views):
            # A mirror aliases process 0's view; already shown.
            if process not in self._mirrors and len(view.state):
                lines.append(
                    "  process %d view: %r" % (process, view.state.occurrence)
                )
        for node in self.nodes:
            if node.buffer:
                lines.append("  node %d buffer: %r" % (node.process, node.buffer))
        if self.central is not None and self.central.buffer:
            lines.append("  central buffer: %r" % (self.central.buffer,))
        return lines

    def _frontier_moved(self, process: int) -> None:
        # Mirror processes alias process 0's view, so its changes are
        # theirs too.
        mirrors = self._mirrors if process == 0 else ()
        notify = self.on_frontier_change
        if notify is not None:
            notify(process)
            for mirror in mirrors:
                notify(mirror)
        # A mirror node's holds are evaluated against the shared view,
        # which changes without the mirror receiving anything (the
        # owner's deliveries mutate it): re-test its withheld updates,
        # exactly like the central accumulator's.
        for mirror in mirrors:
            self.nodes[mirror]._maybe_flush()
        if self.central is not None and process == self.central.process:
            self.central._maybe_flush()
