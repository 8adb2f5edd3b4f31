"""Shared arrangements: epoch-versioned operator indexes (`repro.serve`).

A *shared arrangement* is the serving layer's core data structure (the
differential-dataflow idea): the indexed state of one maintaining
operator, written exactly once per epoch by that operator and read by
arbitrarily many concurrent query sessions.  Instead of every session
privately accumulating the diff stream (O(sessions x state) memory and
update work, the pre-serving `QueryVertex` design), the maintaining
:class:`ArrangeVertex` applies each epoch's consolidated diffs to one
:class:`SharedArrangement` and readers snapshot it at a chosen epoch.
Its ``base`` and per-epoch ``logs`` are the keyed multiset the
incremental operators keep (``key -> {record: multiplicity}`` plain
dicts), updated by the same :func:`repro.lib.incremental.index_diffs`.

The arrangement's contract:

- **Versioned reads.** ``lookup(key, epoch)`` returns the records under
  ``key`` with positive accumulated multiplicity over all diffs of
  epochs ``<= epoch``.  Reads at any epoch between ``compacted_through``
  and the newest applied epoch are exact; the writer never mutates an
  epoch in place, it only appends the next epoch's log.
- **Log compaction.** As the frontier advances (and readers release
  their epochs), logs older than the retention window fold into the
  consolidated ``base``, so memory is O(live state + retain window), not
  O(history).  ``compacted_through`` rises monotonically; a read below
  it is answered from ``base`` (a consistent, *newer* snapshot) and the
  effective epoch is reported to the caller, which is how the stale SLO
  class measures true staleness.
- **Single writer.** Only the maintaining :class:`ArrangeVertex`
  mutates the arrangement, and only inside its own callbacks — so the
  state rides the vertex's ordinary checkpoint/restore/migration path
  (async cuts, partial rollback, rescaling) with no extra machinery;
  ``snapshot_copy`` copies it attribute by attribute (``_PLAIN_STATE``).

Build arrangements with :meth:`repro.lib.stream.Stream.arrange_by` /
:meth:`repro.lib.incremental.Collection.arrange_by`, which return an
:class:`Arrangement` handle used by the :class:`~repro.serve.session.
SessionManager`.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, List, Optional, Tuple

from ..core.timestamp import Timestamp
from ..core.vertex import Vertex
from ..lib.incremental import consolidate_diffs, index_diffs
from ..lib.operators import UnaryBufferingVertex


class CompactedEpochError(LookupError):
    """A reader asked for an exact snapshot older than the compaction
    floor (use ``lookup(..., clamp=True)`` to accept the floor)."""


class SharedArrangement:
    """One operator's epoch-versioned index (plain picklable state).

    ``base`` holds the consolidated multiset as of ``compacted_through``;
    ``logs`` maps each later applied epoch to its per-key deltas;
    ``published`` is the newest applied epoch.  All methods are O(keys
    touched); ``lookup`` additionally scans the (bounded) log window.
    """

    #: Only plain dicts, strs and ints: snapshots skip ``copy.deepcopy``.
    _PLAIN_STATE = True

    def __init__(self, name: str, retain: int = 4):
        if retain < 1:
            raise ValueError("retain must be >= 1 (got %r)" % (retain,))
        self.name = name
        #: Epochs kept as logs behind ``published`` before folding.
        self.retain = retain
        #: key -> {record: multiplicity} as of ``compacted_through``.
        self.base: Dict[Any, Dict[Any, int]] = {}
        #: epoch -> key -> {record: delta}, for applied epochs > floor.
        self.logs: Dict[int, Dict[Any, Dict[Any, int]]] = {}
        #: Newest epoch whose diffs have been applied (-1 = none).
        self.published = -1
        #: All epochs <= this are folded into ``base`` (-1 = none).
        self.compacted_through = -1
        #: Counters for tests and metrics.
        self.publishes = 0
        self.compactions = 0

    # -- writer side ----------------------------------------------------

    def apply(self, epoch: int, keyed: Dict[Any, Dict[Any, int]]) -> None:
        """Append one epoch's consolidated deltas (writer only)."""
        if epoch <= self.compacted_through:
            raise ValueError(
                "arrangement %r: epoch %d is already compacted (through %d)"
                % (self.name, epoch, self.compacted_through)
            )
        if keyed:
            log = self.logs.setdefault(epoch, {})
            index_diffs(log, ((k, r, d) for k, ds in keyed.items() for r, d in ds.items()))
        if epoch > self.published:
            self.published = epoch
        self.publishes += 1

    def compact(self, floor: int) -> int:
        """Fold every log epoch ``<= floor`` into ``base``.

        ``floor`` is clamped to ``published - retain`` so the retention
        window always survives; callers additionally clamp it below any
        epoch a reader still holds.  Returns the number of epochs folded.
        """
        floor = min(floor, self.published - self.retain)
        folded = sorted(e for e in self.logs if e <= floor)
        for epoch in folded:
            deltas = self.logs.pop(epoch).items()
            index_diffs(self.base, ((k, r, d) for k, ds in deltas for r, d in ds.items()))
        if floor > self.compacted_through:
            self.compacted_through = floor
        if folded:
            self.compactions += 1
        return len(folded)

    # -- reader side ----------------------------------------------------

    def read_epoch(self, epoch: int) -> int:
        """The epoch a read at ``epoch`` actually snapshots (>= epoch
        when compaction has folded past it)."""
        return max(epoch, self.compacted_through)

    def lookup(self, key: Any, epoch: int, clamp: bool = False) -> List[Any]:
        """Records under ``key`` with positive multiplicity at ``epoch``.

        Exact for ``epoch >= compacted_through``.  Below the floor the
        exact snapshot is gone: with ``clamp=True`` the read answers
        from the floor (callers report :meth:`read_epoch`), otherwise
        :class:`CompactedEpochError` is raised.
        """
        if epoch < self.compacted_through:
            if not clamp:
                raise CompactedEpochError(
                    "arrangement %r: epoch %d is compacted (floor %d)"
                    % (self.name, epoch, self.compacted_through)
                )
            epoch = self.compacted_through
        acc: Dict[Any, int] = dict(self.base.get(key, ()))
        for log_epoch, log in self.logs.items():
            if log_epoch <= epoch:
                for record, delta in log.get(key, {}).items():
                    acc[record] = acc.get(record, 0) + delta
        return [record for record, total in acc.items() if total > 0]

    def entries(self) -> int:
        """Total stored (key, record) entries (base plus live logs) —
        the quantity the O(state) memory tests pin."""
        count = sum(len(slot) for slot in self.base.values())
        for log in self.logs.values():
            count += sum(len(deltas) for deltas in log.values())
        return count

    def __repr__(self) -> str:
        return "SharedArrangement(%r, published=%d, floor=%d, entries=%d)" % (
            self.name,
            self.published,
            self.compacted_through,
            self.entries(),
        )


class ArrangeVertex(UnaryBufferingVertex):
    """The maintaining operator of one :class:`SharedArrangement`.

    Consumes a diff stream ``(record, multiplicity)`` (single partition,
    like the app-level readers it replaces), buffers each epoch, and at
    the epoch's notification consolidates, applies to the arrangement,
    compacts, and fires the runtime's publish hook
    (``_arrangement_published``) so driver-side readers learn the new
    frontier.  The vertex emits no records — its output port exists as a
    *structural* edge to the serving stage: the could-result-in summary
    through that edge guarantees the server's ``on_notify(e)`` runs only
    after this vertex applied epoch ``e``, even when no records flow.

    ``readers`` is wired post-build by the :class:`~repro.serve.session.
    SessionManager`; compaction never folds an epoch a reader still has
    pending queries for.
    """

    _CONFIG_ATTRS = ("transform", "key", "readers")

    def __init__(self, name: str, key: Callable[[Any], Any], retain: int = 4):
        super().__init__(consolidate_diffs)
        self.key = key
        self.arr = SharedArrangement(name, retain=retain)
        #: Reader vertices whose pending epochs pin the compaction floor
        #: (transient; re-wired by the session manager after build).
        self.readers: List[Vertex] = []

    def _reader_floor(self) -> int:
        """The newest epoch safe to fold given outstanding fresh reads:
        one below the earliest epoch any reader still has buffered."""
        floor = self.arr.published
        for reader in self.readers:
            for timestamp in getattr(reader, "pending", ()):
                if timestamp.epoch - 1 < floor:
                    floor = timestamp.epoch - 1
        return floor

    def on_notify(self, timestamp: Timestamp) -> None:
        epoch, key = timestamp.epoch, self.key
        diffs = self.transform(self.buffers.pop(timestamp, []))
        keyed: Dict[Any, Dict[Any, int]] = {}
        index_diffs(keyed, [(key(r), r, m) for r, m in diffs])
        self.arr.apply(epoch, keyed)
        self.arr.compact(self._reader_floor())
        self._harness.computation._arrangement_published(self.arr.name, epoch)


class Arrangement:
    """Driver-side handle for one arranged stage (returned by
    ``arrange_by``).

    Holds the stage, a completion probe on the arrange output, and —
    after ``build()`` — resolves the live maintaining vertex.  The
    handle never caches the :class:`SharedArrangement` object itself:
    ``restore()`` replaces vertex attributes wholesale, so state is
    always reached through the vertex (``handle.state``).
    """

    def __init__(self, computation, stage, name: str, probe) -> None:
        self.computation = computation
        self.stage = stage
        self.name = name
        #: Progress probe on the arrange output: ``probe.done(e)`` means
        #: epoch ``e``'s diffs are applied cluster-wide (conservative).
        self.probe = probe

    def vertex(self) -> ArrangeVertex:
        vertex = self.computation.vertices.get((self.stage, 0))
        if vertex is None:
            raise RuntimeError(
                "arrangement %r: call build() before reading" % (self.name,)
            )
        return vertex

    @property
    def state(self) -> SharedArrangement:
        return self.vertex().arr

    def completed_epoch(self, default: Optional[int] = None) -> int:
        """Newest epoch this arrangement has fully applied, judged from
        the progress frontier (conservative, never early)."""
        first = self.probe.first_incomplete()
        if first is None:
            published = self.state.published
            return published if default is None else max(published, default)
        return first - 1

    def __repr__(self) -> str:
        return "Arrangement(%r)" % (self.name,)


class ArrangementView:
    """A read handle snapshotting one arrangement at one epoch."""

    __slots__ = ("arrangement", "epoch", "read_at")

    def __init__(self, arrangement: SharedArrangement, epoch: int):
        self.arrangement = arrangement
        #: The requested snapshot epoch.
        self.epoch = epoch
        #: The epoch actually answered from (>= epoch after compaction).
        self.read_at = arrangement.read_epoch(epoch)

    def get(self, key: Any) -> List[Any]:
        return self.arrangement.lookup(key, self.epoch, clamp=True)

    def __repr__(self) -> str:
        return "ArrangementView(%r @ %d)" % (self.arrangement.name, self.read_at)


def snapshot_views(
    arrangements: List[Arrangement], epoch: int
) -> Tuple[Dict[str, ArrangementView], int]:
    """Views of every arrangement at ``epoch``, plus the effective state
    epoch (the weakest ``read_at`` — everything up to it is reflected)."""
    views: Dict[str, ArrangementView] = {}
    state_epoch: Optional[int] = None
    for handle in arrangements:
        view = ArrangementView(handle.state, epoch)
        views[handle.name] = view
        if state_epoch is None or view.read_at < state_epoch:
            state_epoch = view.read_at
    return views, epoch if state_epoch is None else state_epoch
