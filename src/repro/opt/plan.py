"""Logical and physical plan representations for the optimizer.

The builder layer (:mod:`repro.lib.stream`) constructs a
:class:`repro.core.graph.DataflowGraph` and annotates each stage with an
:class:`OpSpec` — the operator-level metadata (is it fusable? is it safe
to coalesce its input batches? does it preserve the partitioning of its
input?) that the graph structure alone cannot express.  The annotated
graph *is* the logical plan; :func:`compile_plan` runs it through a pass
pipeline (:mod:`repro.opt.passes`) and returns a :class:`PhysicalPlan`
that records what every pass did, prints human-readable before/after
summaries via :meth:`PhysicalPlan.explain`, and renders through
:func:`repro.core.dot.to_dot` (fused super-vertices appear as clusters
listing their constituent operators).

Nothing in this module mutates a graph; rewrites live in the passes.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, List, Optional, Tuple
from zlib import crc32

from ..core.graph import DataflowGraph, Stage, StageKind


class OpSpec:
    """Operator metadata attached to a :class:`~repro.core.graph.Stage`.

    ``kind``
        the operator name ("select", "where", "fused", ...).
    ``fusable``
        the stage is a 1-in/1-out NORMAL operator (or a 1-in/0-out sink,
        which may only end a chain) whose ``on_recv`` / ``on_notify``
        semantics permit running it synchronously inside a
        :class:`repro.opt.fused.FusedVertex` chain.  Requires that the
        vertex requests at most one notification per timestamp and only
        sends at the timestamp of the callback that is running.
    ``batchable``
        delivering one merged batch ``[r1..rn]`` at a timestamp is
        observably identical to delivering the same records as several
        batches, in any interleaving with other inputs and times — true
        for record-at-a-time and buffering operators, false when the
        operator exposes per-batch callbacks to user code
        (``inspect``).  Grants the runtime permission to merge every
        queued entry of one (connector, timestamp) on the stage's input
        connectors into one delivery.
    ``preserves_partitioning``
        a partitioning established upstream still holds downstream —
        the property exchange elision propagates.  True when output
        records are a subset of input records (same objects, same
        worker).  Also true of the incremental distinct, whose outputs
        are new diffs: each output ``(r, ±1)`` carries the ``r`` of an
        input diff on the same worker.  The only partitioner it
        propagates is its own input partitioner, a
        :class:`HashPartitioner` over a :class:`RecordKey`, which reads
        ``d[0]`` only; every partitioner found equal to it wraps the
        same selector in a :class:`RecordKey` and reads ``d[0]`` only
        too, so it routes each output where it routed the input.
    ``constituents``
        for ``kind == "fused"``: the names of the operators the chain
        absorbed, in pipeline order.
    """

    __slots__ = (
        "kind",
        "fusable",
        "batchable",
        "preserves_partitioning",
        "constituents",
    )

    def __init__(
        self,
        kind: str,
        fusable: bool = False,
        batchable: bool = False,
        preserves_partitioning: bool = False,
        constituents: Tuple[str, ...] = (),
    ):
        self.kind = kind
        self.fusable = fusable
        self.batchable = batchable
        self.preserves_partitioning = preserves_partitioning
        self.constituents = constituents

    def __repr__(self) -> str:
        flags = [
            name
            for name, on in (
                ("fusable", self.fusable),
                ("batchable", self.batchable),
                ("preserving", self.preserves_partitioning),
            )
            if on
        ]
        return "OpSpec(%s%s)" % (self.kind, ", ".join([""] + flags) if flags else "")


#: ``None``'s stable hash: builtin ``hash(None)`` is its address on
#: Python 3.11, which differs between interpreters.
_NONE_HASH = crc32(b"None")


def stable_hash(key: Any) -> int:
    """A hash of ``key`` that is the same in every process.

    Builtin ``hash`` salts ``str`` and ``bytes`` differently in each
    interpreter, and tuples that hold them inherit the salt; placement
    must not.  A ``str`` hashes as the CRC-32 of its UTF-8 bytes,
    ``bytes`` as their CRC-32, a tuple as the builtin hash of its
    members' stable hashes, and ``None`` as a fixed value; anything
    else, ``int`` included, keeps builtin ``hash``, which has no salt.
    Equal keys hash equal: a numeric member contributes
    ``hash(member)``, so ``(1, "a")``, ``(1.0, "a")`` and ``(True,
    "a")`` agree, and a flat tuple of numbers hashes exactly as builtin
    ``hash`` does.
    """
    if isinstance(key, str):
        return crc32(key.encode())
    if isinstance(key, tuple):
        return hash(tuple(map(stable_hash, key)))
    if isinstance(key, bytes):
        return crc32(key)
    if key is None:
        return _NONE_HASH
    return hash(key)


class RecordKey:
    """A key selector applied to a diff's record: ``diff -> key(diff[0])``.

    How a :class:`repro.lib.incremental.Collection` places its
    ``(record, multiplicity)`` diffs.  Two wrappers around the *same*
    selector object compare equal, so two Collection exchanges by one
    key are equal partitioners and exchange elision can prove them so.
    Holds no cache: a wrapper lives exactly as long as its connector.
    """

    __slots__ = ("key",)

    def __init__(self, key: Callable[[Any], Any]):
        self.key = key

    def __call__(self, diff: Any) -> Any:
        return self.key(diff[0])

    def __eq__(self, other: object) -> bool:
        return type(other) is RecordKey and self.key is other.key

    def __hash__(self) -> int:
        return hash((RecordKey, id(self.key)))

    def __repr__(self) -> str:
        return "RecordKey(%s)" % getattr(self.key, "__name__", repr(self.key))


class HashPartitioner:
    """Route a record by the :func:`stable_hash` of its key.

    The callable carries its key selector, and two instances compare
    equal when their selectors compare equal: for a function that is
    the *same function object*, for a :class:`RecordKey` the same
    wrapped selector — the conservative test under which exchange
    elision is provably safe (equal selectors route every record to the
    same worker).
    """

    __slots__ = ("key",)

    def __init__(self, key: Callable[[Any], Any]):
        self.key = key

    def __call__(self, record: Any) -> int:
        return stable_hash(self.key(record))

    def route(self, records: List[Any], total: int) -> Dict[int, List[Any]]:
        """Bucket ``records`` by ``stable_hash(key(record)) % total``,
        each bucket in input order: the routing kernel of every
        exchange.  ``int`` and ``str`` keys, the common ones, hash
        inline; a :class:`RecordKey` is applied to the record directly."""
        key = self.key
        if type(key) is RecordKey:
            keys = map(key.key, [diff[0] for diff in records])
        else:
            keys = map(key, records)
        buckets: Dict[int, List[Any]] = {}
        for record, k in zip(records, keys):
            kind = type(k)
            if kind is int:
                dest = hash(k) % total
            elif kind is str:
                dest = crc32(k.encode()) % total
            else:
                dest = stable_hash(k) % total
            bucket = buckets.get(dest)
            if bucket is None:
                buckets[dest] = [record]
            else:
                bucket.append(record)
        return buckets

    def __eq__(self, other: object) -> bool:
        return isinstance(other, HashPartitioner) and self.key == other.key

    def __ne__(self, other: object) -> bool:
        return not self.__eq__(other)

    def __hash__(self) -> int:
        return hash((HashPartitioner, self.key))

    def __repr__(self) -> str:
        return "HashPartitioner(%s)" % getattr(self.key, "__name__", repr(self.key))


def partitioners_agree(a: Optional[Callable], b: Optional[Callable]) -> bool:
    """True when ``a`` and ``b`` provably route records identically.

    Object identity always suffices; :class:`HashPartitioner` extends
    the proof to distinct wrappers around one key selector.
    """
    if a is None or b is None:
        return False
    return a is b or a == b


class LogicalPlan:
    """The optimizer's working state: a mutable, unfrozen graph.

    ``total_workers`` is the degree of data parallelism the plan will be
    executed with (``None`` when unknown); passes may only apply
    rewrites whose safety does not depend on unknown parallelism.
    """

    __slots__ = ("graph", "total_workers", "notes", "_notifies")

    def __init__(self, graph: DataflowGraph, total_workers: Optional[int] = None):
        if graph.frozen:
            raise ValueError("cannot optimize a frozen graph")
        self.graph = graph
        self.total_workers = total_workers
        #: Why a pass left something as it was: printed by explain(),
        #: not counted as rewrites.
        self.notes: List[str] = []
        self._notifies: Dict[Stage, bool] = {}

    def notifies(self, stage: Stage) -> bool:
        """Whether ``stage``'s vertices request notifications, asked as
        the progress plane asks: of a vertex.  The passes share one
        probe vertex per stage per compilation."""
        known = self._notifies.get(stage)
        if known is None:
            known = self._notifies[stage] = getattr(
                stage.factory(stage, 0), "notifies", True
            )
        return known

    def reindex(self) -> None:
        """Restore the ``index == position`` invariant after a rewrite."""
        for position, stage in enumerate(self.graph.stages):
            stage.index = position
        for position, connector in enumerate(self.graph.connectors):
            connector.index = position


class PassResult:
    """What one pass did: a name plus one line per applied rewrite, and
    one per note on a rewrite it declined."""

    __slots__ = ("name", "rewrites", "notes")

    def __init__(self, name: str, rewrites: List[str], notes: List[str] = ()):
        self.name = name
        self.rewrites = rewrites
        self.notes = list(notes)

    def __repr__(self) -> str:
        return "PassResult(%s, %d rewrites)" % (self.name, len(self.rewrites))


def plan_signature(graph: DataflowGraph) -> Tuple:
    """A structural fingerprint of the plan: cheap to take, compared by
    the idempotence tests, and what :meth:`PhysicalPlan.explain` formats.

    Two graphs with equal signatures have the same stages (name, kind,
    opspec shape), the same wiring, the same exchange edges and the same
    connector hints — i.e. a pass pipeline that does not change the
    signature performed no rewrite.
    """
    stages = tuple(
        (
            stage.index,
            stage.name,
            stage.kind.value,
            None
            if stage.opspec is None
            else (
                stage.opspec.kind,
                stage.opspec.fusable,
                stage.opspec.batchable,
                stage.opspec.preserves_partitioning,
                stage.opspec.constituents,  # last: _describe reads it
            ),
        )
        for stage in graph.stages
    )
    connectors = tuple(
        (
            connector.index,
            connector.src.index,
            connector.src_port,
            connector.dst.index,
            connector.dst_port,
            connector.partitioner is not None,
            connector.coalesce,
            connector.cut_through,
        )
        for connector in graph.connectors
    )
    return (stages, connectors)


#: Names of the trailing flags of a :func:`plan_signature` connector row.
_CONNECTOR_MARKS = ("exchange", "coalesce", "cut-through")


def _describe(signature: Tuple) -> List[str]:
    """One deterministic line per stage and connector, plus a header."""
    stages, connectors = signature
    lines = ["%d stages, %d connectors" % (len(stages), len(connectors))]
    names = {stage[0]: stage[1] for stage in stages}
    for index, name, kind, spec in stages:
        constituents = spec[-1] if spec is not None else ()
        suffix = " [fused: %s]" % ", ".join(constituents) if constituents else ""
        lines.append("  [%d] %s (%s)%s" % (index, name, kind, suffix))
    for index, src, _src_port, dst, _dst_port, *flags in connectors:
        marks = [mark for mark, on in zip(_CONNECTOR_MARKS, flags) if on]
        lines.append(
            "  (%d) %s -> %s%s"
            % (index, names[src], names[dst], " {%s}" % ", ".join(marks) if marks else "")
        )
    return lines


class PhysicalPlan:
    """The compiled plan: the rewritten graph plus the rewrite log.
    ``before``/``after`` are :func:`plan_signature` snapshots: every
    build() compiles a plan, so text is formatted only on explain()."""

    __slots__ = ("graph", "before", "after", "results")

    def __init__(
        self,
        graph: DataflowGraph,
        before: Tuple,
        after: Tuple,
        results: List[PassResult],
    ):
        self.graph = graph
        self.before = before
        self.after = after
        self.results = results

    @property
    def rewrite_count(self) -> int:
        return sum(len(result.rewrites) for result in self.results)

    def explain(self) -> str:
        """A human-readable before/after report with per-pass rewrites."""
        lines = ["== logical plan =="]
        lines.extend(_describe(self.before))
        for result in self.results:
            lines.append(
                "== pass %s: %d rewrite%s =="
                % (result.name, len(result.rewrites), "" if len(result.rewrites) == 1 else "s")
            )
            for line in (*result.rewrites, *result.notes):
                lines.append("  %s" % line)
        lines.append("== physical plan ==")
        lines.extend(_describe(self.after))
        return "\n".join(lines)

    def to_dot(self, name: str = "plan") -> str:
        """Render the physical plan as Graphviz DOT text (fused stages
        appear as clusters listing their constituent operators)."""
        from ..core.dot import to_dot

        return to_dot(self.graph, name)

    def fused_stages(self) -> List:
        return [
            stage
            for stage in self.graph.stages
            if stage.opspec is not None and stage.opspec.kind == "fused"
        ]

    def elided_exchanges(self) -> int:
        prefix = "elided exchange"
        return sum(
            1
            for result in self.results
            for rewrite in result.rewrites
            if rewrite.startswith(prefix)
        )

    def __repr__(self) -> str:
        return "PhysicalPlan(%r, %d rewrites)" % (self.graph, self.rewrite_count)


# Batch-safety of the system stages: ingress/egress/feedback forward
# whole batches (ForwardingVertex inspects only the timestamp), so
# coalescing their input queues is always sound.  INPUT stages have no
# input connectors and never appear as a coalescing destination.
SYSTEM_BATCHABLE = (StageKind.INGRESS, StageKind.EGRESS, StageKind.FEEDBACK)
