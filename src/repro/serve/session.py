"""Multi-tenant query sessions over shared arrangements (`repro.serve`).

The :class:`SessionManager` multiplexes thousands of lightweight
:class:`Session` objects over **one** serving vertex per worker (the
``QueryVertex``-class reader, :class:`ServeVertex`) and a set of shared
:class:`~repro.serve.arrangement.Arrangement` handles.  Sessions are
driver-side bookkeeping — a session costs a dict entry, not a dataflow
stage, so session count never multiplies dataflow state.

Two SLO classes (the Figure 8 trade-off, per session):

- ``fresh`` — the query rides the dataflow: it joins the next query
  epoch, the server buffers all of an epoch's queries together
  (*same-epoch batching*: one snapshot, one notification, any number of
  sessions) and answers at the epoch's notification from arrangement
  views at exactly that epoch.  Answers are bit-identical to a
  per-session ``QueryVertex`` in fresh mode — and epoch-deterministic,
  so they survive failure/recovery replay unchanged (duplicate
  deliveries are suppressed by query id, the same exactly-once contract
  the journal gives external subscribers).
- ``stale(bound)`` — answered driver-side, immediately, from the newest
  *completed* snapshot (judged by the arrangements' progress probes —
  never a prefix of a half-applied epoch).  The measured staleness, in
  epochs behind the query's reference epoch, is enforced against the
  bound: a query whose bound cannot be met yet is parked and answered
  as soon as the publish frontier catches up.  Every stale answer
  carries the epoch of the state it actually read.

Admission (optional, :mod:`repro.serve.admission`) runs at submit time
and can degrade ``fresh`` to ``stale(bound)`` or reject, before the
update path starves behind a query burst.

Driver protocol::

    manager = SessionManager(comp, queries_in, arrangements=[...],
                             resolver=my_resolver)   # before build()
    comp.build()
    s = manager.open_session("fresh"); manager.submit(s, user)
    tweets_in.on_next(batch); manager.pump()         # once per epoch
    comp.run(); manager.drain()
"""

from __future__ import annotations

from time import perf_counter
from typing import Any, Callable, Dict, List, NamedTuple, Optional, Tuple

from ..core.timestamp import Timestamp
from ..core.vertex import Vertex
from ..obs.trace import TraceEvent
from .arrangement import Arrangement, snapshot_views


class Answer(NamedTuple):
    """One delivered query response."""

    query_id: Any
    session_id: int
    user: Any
    value: Any
    #: "fresh" or "stale" — the class the query was *served* under.
    slo: str
    #: The epoch of the state the answer reflects (>= all applied diffs).
    state_epoch: int
    #: Measured staleness in epochs (0 for fresh answers).
    staleness: int
    #: Virtual time the query was submitted / answered.
    issued_at: float
    answered_at: float
    #: True when admission degraded a fresh request to stale.
    degraded: bool

    @property
    def latency(self) -> float:
        return self.answered_at - self.issued_at


class Session:
    """One lightweight query session (driver-side state only)."""

    __slots__ = ("id", "slo", "bound", "open", "submitted", "answered",
                 "rejected", "degraded")

    def __init__(self, session_id: int, slo: str, bound: Optional[int]):
        if slo not in ("fresh", "stale"):
            raise ValueError("slo must be 'fresh' or 'stale' (got %r)" % (slo,))
        if slo == "stale":
            if bound is None or bound < 0:
                raise ValueError(
                    "stale sessions need a staleness bound >= 0 (got %r)" % (bound,)
                )
        self.id = session_id
        self.slo = slo
        self.bound = bound
        self.open = True
        self.submitted = 0
        self.answered = 0
        self.rejected = 0
        self.degraded = 0

    def __repr__(self) -> str:
        slo = self.slo if self.slo == "fresh" else "stale(%d)" % self.bound
        return "Session(%d, %s, %d/%d answered)" % (
            self.id, slo, self.answered, self.submitted,
        )


class ServeVertex(Vertex):
    """The per-worker serving reader (one per worker for *all* sessions).

    Input 0 carries query records ``(session_id, user, query_id)``;
    inputs ``1..k`` are the structural publish-barrier edges from the
    arrange stages (no records ever flow on them — their could-result-in
    summaries order this vertex's notifications after the arrangers').
    An epoch's queries are buffered together and answered in one batch
    at the notification, through the manager, from views snapshotted at
    exactly that epoch.
    """

    _CONFIG_ATTRS = ("manager",)

    def __init__(self, manager: "SessionManager"):
        super().__init__()
        self.manager = manager
        self.pending: Dict[Timestamp, List[Tuple[Any, Any, Any]]] = {}

    def on_recv(self, input_port: int, records: List[Any], timestamp: Timestamp) -> None:
        if input_port != 0:
            return  # publish-barrier edges are structural only
        pending = self.pending.get(timestamp)
        if pending is None:
            pending = self.pending[timestamp] = []
            self.notify_at(timestamp)
        pending.extend(records)

    def on_notify(self, timestamp: Timestamp) -> None:
        queries = self.pending.pop(timestamp, [])
        if queries:
            self.manager._answer_fresh(timestamp.epoch, queries)


class SessionManager:
    """Multiplexes query sessions over one serving stage and shared
    arrangements (see module docstring for the driver protocol).

    Construct *after* the arrangements and *before* ``build()``: the
    manager adds the serving stage and its connectors to the graph, then
    the runtime calls :meth:`_attach` from ``build()`` to resolve live
    vertices and (on the cluster) hook frontier advances for parked
    stale queries.
    """

    def __init__(
        self,
        computation,
        queries_input,
        arrangements: List[Arrangement],
        resolver: Callable[[Dict[str, Any], Any], Any],
        on_response: Optional[Callable[[Answer], None]] = None,
        on_reject: Optional[Callable[[Any, Session], None]] = None,
        policy=None,
        stale_cost: float = 500e-6,
        name: str = "serve",
    ):
        from ..lib.stream import Stream

        if not arrangements:
            raise ValueError("SessionManager needs at least one arrangement")
        self.computation = computation
        self.queries_input = queries_input
        self.arrangements = list(arrangements)
        self.resolver = resolver
        self.on_response = on_response
        self.on_reject = on_reject
        #: Modeled per-query service time for driver-side stale answers
        #: (index lookups off the update path); fresh latency needs no
        #: model — it is the epoch's completion time.
        self.stale_cost = stale_cost
        self.name = name
        self.admission = None
        if policy is not None:
            from .admission import AdmissionController

            self.admission = AdmissionController(self, policy)

        self.sessions: Dict[int, Session] = {}
        self._next_session = 0
        self._next_query = 0
        #: Fresh queries awaiting the next pump (records for one epoch).
        self._fresh_batch: List[Tuple[Any, Any, Any]] = []
        #: query_id -> (session, issued_at, degraded) for injected fresh.
        self._inflight: Dict[Any, Tuple[Session, float, bool]] = {}
        #: Parked stale queries: (session, user, qid, ref_epoch,
        #: issued_at, bound, degraded).
        self._deferred: List[Tuple] = []
        self._answered: set = set()
        #: Every delivered answer, in delivery order.
        self.answers: List[Answer] = []
        #: ``(query_id, session_id, at)`` per admission rejection.
        self.rejections: List[Tuple[Any, int, float]] = []
        #: Same-epoch batching effectiveness: (epochs pumped with >= 1
        #: query, fresh queries injected).
        self.fresh_epochs = 0
        self.fresh_injected = 0
        self._rechecking = False

        stage = computation.graph.new_stage(
            name, lambda s, w: ServeVertex(self), 1 + len(self.arrangements), 0
        )
        self.stage = stage
        Stream.from_input(queries_input).connect_to(
            stage, 0, partitioner=lambda rec: 0
        )
        for port, handle in enumerate(self.arrangements):
            Stream(computation, handle.stage, 0).connect_to(
                stage, 1 + port, partitioner=lambda rec: 0
            )
        computation.session_managers.append(self)

    # ------------------------------------------------------------------
    # Runtime attachment (called from build()).
    # ------------------------------------------------------------------

    def _attach(self, computation) -> None:
        """Resolve live vertices; wire compaction holds and (cluster
        only) frontier listeners for parked stale queries."""
        serve_vertex = self._serve_vertex()
        for handle in self.arrangements:
            vertex = handle.vertex()
            if serve_vertex not in vertex.readers:
                vertex.readers.append(serve_vertex)
        plane = getattr(computation, "plane", None)
        if plane is not None:
            plane.views[0].listeners.append(self._on_frontier)

    def _serve_vertex(self) -> ServeVertex:
        vertex = self.computation.vertices.get((self.stage, 0))
        if vertex is None:
            raise RuntimeError("call build() before serving queries")
        return vertex

    # ------------------------------------------------------------------
    # Session lifecycle.
    # ------------------------------------------------------------------

    def open_session(self, slo: str = "fresh", bound: Optional[int] = None) -> Session:
        session = Session(self._next_session, slo, bound)
        self._next_session += 1
        self.sessions[session.id] = session
        return session

    def close_session(self, session: Session) -> None:
        session.open = False

    @property
    def now(self) -> float:
        return getattr(self.computation, "now", 0.0)

    @property
    def outstanding(self) -> int:
        """Queries submitted but not yet answered or rejected."""
        return len(self._fresh_batch) + len(self._inflight) + len(self._deferred)

    def completed_epoch(self) -> int:
        """Newest epoch every arrangement has fully applied (probe-judged,
        conservative).  Trailing diff-free epochs count as applied once
        drained."""
        ref = self.queries_input.next_epoch - 1
        return min(
            handle.completed_epoch(default=ref) for handle in self.arrangements
        )

    def staleness_lag(self) -> int:
        """Epochs the slowest arrangement trails the injected frontier."""
        return max(0, (self.queries_input.next_epoch - 1) - self.completed_epoch())

    # ------------------------------------------------------------------
    # Query submission.
    # ------------------------------------------------------------------

    def submit(
        self, session: Session, user: Any, query_id: Optional[Any] = None
    ) -> Optional[Any]:
        """Submit one query on ``session``; returns its query id, or
        ``None`` when admission rejected it."""
        if not session.open:
            raise RuntimeError("session %d is closed" % session.id)
        if query_id is None:
            query_id = self._next_query
            self._next_query += 1
        issued_at = self.now
        session.submitted += 1
        slo, bound, degraded = session.slo, session.bound, False
        if self.admission is not None:
            verdict = self.admission.decide(session)
            if verdict.action == "reject":
                session.rejected += 1
                self.rejections.append((query_id, session.id, issued_at))
                self._trace("reject", issued_at, 0.0, -1, (session.id, slo))
                if self.on_reject is not None:
                    self.on_reject(query_id, session)
                return None
            if verdict.action == "degrade" and slo == "fresh":
                slo, bound, degraded = "stale", verdict.bound, True
                session.degraded += 1
        if slo == "fresh":
            self._fresh_batch.append((session.id, user, query_id))
            self._inflight[query_id] = (session, issued_at, degraded)
        else:
            ref = self.queries_input.next_epoch
            entry = (session, user, query_id, ref, issued_at, bound, degraded)
            if not self._try_stale(entry):
                self._deferred.append(entry)
        return query_id

    def pump(self) -> int:
        """Inject the buffered fresh queries as the next query epoch.

        Call once per input epoch (right after the data input's
        ``on_next``) so query epochs stay aligned with data epochs —
        empty query epochs are injected too.  Returns the epoch.
        """
        records = self._fresh_batch
        self._fresh_batch = []
        epoch = self.queries_input.on_next(records)
        if records:
            self.fresh_epochs += 1
            self.fresh_injected += len(records)
        self._recheck_deferred()
        return epoch

    def close(self) -> None:
        """Close the query input (no more fresh epochs)."""
        if self._fresh_batch:
            self.pump()
        self.queries_input.on_completed()

    def drain(self) -> int:
        """Answer every parked stale query that is now within bound;
        call after the final ``run()``.  Returns answers delivered."""
        return self._recheck_deferred()

    # ------------------------------------------------------------------
    # Fresh path (called by ServeVertex at epoch notifications).
    # ------------------------------------------------------------------

    def _answer_fresh(self, epoch: int, queries: List[Tuple[Any, Any, Any]]) -> None:
        views, state_epoch = snapshot_views(self.arrangements, epoch)
        answered_at = self.now
        resolver = self.resolver
        for session_id, user, query_id in queries:
            self._deliver(
                Answer(
                    query_id,
                    session_id,
                    user,
                    resolver(views, user),
                    "fresh",
                    epoch,
                    0,
                    self._issued_at(query_id, answered_at),
                    answered_at,
                    False,
                )
            )

    def _issued_at(self, query_id: Any, default: float) -> float:
        entry = self._inflight.get(query_id)
        return entry[1] if entry is not None else default

    # ------------------------------------------------------------------
    # Stale path (driver-side, probe-gated).
    # ------------------------------------------------------------------

    def _try_stale(self, entry: Tuple) -> bool:
        session, user, query_id, ref, issued_at, bound, degraded = entry
        completed = self.completed_epoch()
        if completed < (ref - 1) - bound:
            return False  # bound not satisfiable yet; park the query
        views, state_epoch = snapshot_views(self.arrangements, completed)
        staleness = max(0, (ref - 1) - state_epoch)
        answered_at = max(self.now, issued_at) + self.stale_cost
        self._deliver(
            Answer(
                query_id,
                session.id,
                user,
                self.resolver(views, user),
                "stale",
                state_epoch,
                staleness,
                issued_at,
                answered_at,
                degraded,
            )
        )
        return True

    def _recheck_deferred(self) -> int:
        if not self._deferred or self._rechecking:
            return 0
        self._rechecking = True
        try:
            delivered = 0
            remaining = []
            for entry in self._deferred:
                if self._try_stale(entry):
                    delivered += 1
                else:
                    remaining.append(entry)
            self._deferred = remaining
            return delivered
        finally:
            self._rechecking = False

    def _on_frontier(self, _updates) -> None:
        # Registered on the process-0 progress view (cluster runtime):
        # parked stale queries re-check exactly when completion advances.
        if self._deferred:
            self._recheck_deferred()

    def on_recovery(self) -> None:
        """Failure recovery ran (oracle- or supervisor-driven): parked
        queries re-check immediately.  A rollback can regress the
        frontier past epochs that were already readable, so answerable
        queries re-park transparently and retry as replay re-publishes;
        nothing is lost or double-answered (delivery dedups by query
        id)."""
        if self._deferred:
            self._recheck_deferred()

    def _on_publish(self, name: str, epoch: int) -> None:
        """Publish hook relayed by the runtime when an arrangement
        applies an epoch (reference runtime re-checks here; the cluster
        re-checks on the post-commit frontier change instead)."""
        if self._deferred and getattr(self.computation, "plane", None) is None:
            self._recheck_deferred()

    # ------------------------------------------------------------------
    # Delivery (exactly-once by query id across recovery replay).
    # ------------------------------------------------------------------

    def _deliver(self, answer: Answer) -> None:
        if answer.query_id in self._answered:
            return  # replayed epoch after a rollback: already delivered
        self._answered.add(answer.query_id)
        self._inflight.pop(answer.query_id, None)
        session = self.sessions.get(answer.session_id)
        if session is not None:
            session.answered += 1
        self.answers.append(answer)
        self._trace(
            "answer",
            answer.answered_at,
            answer.latency,
            answer.state_epoch,
            (answer.session_id, answer.slo, answer.staleness, answer.degraded),
        )
        if self.on_response is not None:
            self.on_response(answer)

    def _trace(self, action: str, t: float, dur: float, epoch: int, detail: Tuple):
        trace = getattr(self.computation, "_trace", None)
        if trace is None:
            return
        trace.emit(
            TraceEvent(
                "serve",
                t,
                dur,
                perf_counter(),
                -1,
                0,
                self.name,
                (epoch,) if epoch >= 0 else (),
                (action,) + detail,
            )
        )

    def arrangement_entries(self) -> int:
        """Total indexed entries across the shared arrangements — the
        serving layer's state footprint (independent of session count)."""
        return sum(handle.state.entries() for handle in self.arrangements)

    def __repr__(self) -> str:
        return "SessionManager(%r, %d sessions, %d answered)" % (
            self.name, len(self.sessions), len(self.answers),
        )
