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

from typing import Any, Callable, List, Optional, Tuple

from ..core.graph import DataflowGraph, StageKind


class OpSpec:
    """Operator metadata attached to a :class:`~repro.core.graph.Stage`.

    ``kind``
        the operator name ("select", "where", "fused", ...).
    ``fusable``
        the stage is a 1-in/1-out NORMAL operator whose ``on_recv`` /
        ``on_notify`` semantics permit running it synchronously inside a
        :class:`repro.opt.fused.FusedVertex` chain.  Requires that the
        vertex requests at most one notification per timestamp and only
        sends at the timestamp of the callback that is running.
    ``batchable``
        delivering one merged batch ``[r1..rn]`` at a timestamp is
        observably identical to delivering the same records as several
        consecutive batches — true for record-at-a-time and buffering
        operators, false when the operator exposes per-batch callbacks
        to user code (``inspect``).  Grants the runtime permission to
        coalesce adjacent queue entries on the stage's input connectors.
    ``preserves_partitioning``
        output records are a subset of input records (same objects, same
        worker), so a partitioning established upstream still holds
        downstream — the property exchange elision propagates.
    ``constituents``
        for ``kind == "fused"``: the names of the operators the chain
        absorbed, in pipeline order.
    ``schema``
        optional :class:`repro.columnar.Schema` declaring the record
        layout this operator consumes (and, for the symmetric library
        operators, produces).  Consumed by ``mark_columnar`` when the
        columnar data plane is enabled; ``None`` means record lists
        only.  Annotating a schema is a claim about record *shape*, not
        semantics — non-conforming records still take the list path.
    """

    __slots__ = (
        "kind",
        "fusable",
        "batchable",
        "preserves_partitioning",
        "constituents",
        "schema",
    )

    def __init__(
        self,
        kind: str,
        fusable: bool = False,
        batchable: bool = False,
        preserves_partitioning: bool = False,
        constituents: Tuple[str, ...] = (),
        schema: Optional[Any] = None,
    ):
        self.kind = kind
        self.fusable = fusable
        self.batchable = batchable
        self.preserves_partitioning = preserves_partitioning
        self.constituents = constituents
        self.schema = schema

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


class HashPartitioner:
    """A hash-partitioning function with provable equality.

    ``hash_partitioner(key)`` historically returned an anonymous
    closure, which made two exchanges by the same key indistinguishable
    to the optimizer.  This callable carries its key selector, and two
    instances compare equal when the selectors are the *same function
    object* — the conservative identity test under which exchange
    elision is provably safe (equal callables route every record to the
    same worker).

    ``key_col`` optionally names the record field (column index) the
    selector extracts, i.e. asserts ``key(record) == record[key_col]``.
    The columnar data plane uses it to hash-partition a
    :class:`~repro.columnar.ColumnarBatch` by its key column without
    materializing records; it never affects routing semantics or
    equality.
    """

    __slots__ = ("key", "key_col")

    def __init__(self, key: Callable[[Any], Any], key_col: Optional[int] = None):
        self.key = key
        self.key_col = key_col

    def __call__(self, record: Any) -> int:
        return hash(self.key(record))

    def __eq__(self, other: object) -> bool:
        return isinstance(other, HashPartitioner) and self.key is other.key

    def __ne__(self, other: object) -> bool:
        return not self.__eq__(other)

    def __hash__(self) -> int:
        return hash((HashPartitioner, id(self.key)))

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

    __slots__ = ("graph", "total_workers")

    def __init__(self, graph: DataflowGraph, total_workers: Optional[int] = None):
        if graph.frozen:
            raise ValueError("cannot optimize a frozen graph")
        self.graph = graph
        self.total_workers = total_workers

    def reindex(self) -> None:
        """Restore the ``index == position`` invariant after a rewrite."""
        for position, stage in enumerate(self.graph.stages):
            stage.index = position
        for position, connector in enumerate(self.graph.connectors):
            connector.index = position


class PassResult:
    """What one pass did: a name plus one line per applied rewrite."""

    __slots__ = ("name", "rewrites")

    def __init__(self, name: str, rewrites: List[str]):
        self.name = name
        self.rewrites = rewrites

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
            # Only ever set post-compile by mark_columnar (the columnar
            # opt-in), so pass-pipeline golden reports never change.
            connector.columnar is not None,
        )
        for connector in graph.connectors
    )
    return (stages, connectors)


#: Names of the trailing flags of a :func:`plan_signature` connector row.
_CONNECTOR_MARKS = ("exchange", "coalesce", "cut-through", "columnar")


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
            for rewrite in result.rewrites:
                lines.append("  %s" % rewrite)
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
