"""The plan-rewrite pass pipeline.

Four passes ship, applied in order by :func:`compile_plan`:

``exchange-elision``
    drops an exchange edge when the producer's records are provably
    already partitioned the way the consumer requires, turning a
    simulated all-to-all into a local pipeline hop (no network bytes,
    no per-share progress updates).  The proof propagates a
    "distribution property" through record-preserving stages and
    compares partitioners via :func:`repro.opt.plan.partitioners_agree`;
    with a single worker every exchange is trivially local.  Runs first
    so an elided edge can unlock fusion across it.

``operator-fusion``
    collapses maximal chains of fusable 1-in/1-out stages linked by
    pipeline (non-exchange, single-fan-out) connectors into one stage
    whose vertices are :class:`repro.opt.fused.FusedVertex` pipelines.
    Exchanges, loop ingress/egress/feedback, multi-input operators,
    fan-out points and opaque stages are fusion barriers.  Timestamp
    types match within a chain by construction: the graph layer rejects
    NORMAL-to-NORMAL connectors that cross a loop-context boundary.

``batch-coalescing``
    marks connectors whose destination tolerates merged deliveries
    (``OpSpec.batchable``, or any system forwarding stage); the cluster
    runtime then coalesces adjacent same-(connector, timestamp) queue
    entries into a single callback, cutting DES event counts on
    fan-in-heavy graphs where fusion alone cannot (e.g. the WCC label
    loop, whose one chain is a lone ``select_many``).

``plumbing-cut-through``
    marks pipeline connectors from a vertex into the stateless
    ingress/egress/feedback stage of a loop none of whose vertices
    notify; both runtimes then run the hop inside the producing
    callback (section 3.2), charging it the hop's cost, instead of
    queueing a delivery.  A hint, not a graph rewrite: the stages
    stay, so path summaries and scope projection do too.

Every pass is idempotent: re-running the pipeline on its own output
performs zero rewrites, which the property tests assert via
:func:`repro.opt.plan.plan_signature`.
"""

from __future__ import annotations

from time import perf_counter
from typing import Dict, List, Optional, Sequence

from ..core.graph import DataflowGraph, Stage, StageKind
from ..obs.trace import TraceEvent, TraceSink
from .fused import FusedVertex
from .plan import (
    SYSTEM_BATCHABLE,
    LogicalPlan,
    OpSpec,
    PassResult,
    PhysicalPlan,
    partitioners_agree,
    plan_signature,
)


class ExchangeElisionPass:
    """Remove exchange edges whose routing is provably the identity."""

    name = "exchange-elision"

    def run(self, plan: LogicalPlan) -> List[str]:
        graph = plan.graph
        rewrites: List[str] = []
        if plan.total_workers == 1:
            # One worker: every partitioner and the round-robin input
            # spray both reduce to "worker 0", including input edges.
            for connector in graph.connectors:
                if connector.partitioner is not None:
                    connector.partitioner = None
                    rewrites.append(
                        "elided exchange (%s -> %s): single worker"
                        % (connector.src.name, connector.dst.name)
                    )
            return rewrites
        located = self._distribution_properties(graph)
        for connector in graph.connectors:
            wanted = connector.partitioner
            if wanted is None:
                continue
            if connector.src.kind is StageKind.INPUT:
                continue  # ingest is round-robin, never provably keyed
            have = located.get(connector.src)
            if have is not None and partitioners_agree(have, wanted):
                connector.partitioner = None
                rewrites.append(
                    "elided exchange (%s -> %s): producer already partitioned "
                    "by an equal key" % (connector.src.name, connector.dst.name)
                )
        return rewrites

    def _distribution_properties(self, graph: DataflowGraph) -> Dict[Stage, object]:
        """For each stage, the partitioner its output records provably
        follow (records reside at ``p(r) % total``), or nothing.

        Established by an exchange edge; preserved by stages whose
        outputs are a subset of their inputs on the same worker
        (``OpSpec.preserves_partitioning`` and the system forwarding
        stages); destroyed by transforms, disagreeing multi-input
        merges, and — conservatively — feedback cycles.
        """
        located: Dict[Stage, object] = {}
        for stage in self._topo_no_feedback(graph):
            if stage.kind is StageKind.INPUT or stage.kind is StageKind.FEEDBACK:
                continue
            if stage.kind is StageKind.NORMAL:
                spec = stage.opspec
                if spec is None or not spec.preserves_partitioning:
                    continue
            incoming = []
            for connector in stage.inputs:
                if connector is None:
                    incoming = []
                    break
                have = (
                    connector.partitioner
                    if connector.partitioner is not None
                    else located.get(connector.src)
                )
                if have is None:
                    incoming = []
                    break
                incoming.append(have)
            if not incoming:
                continue
            first = incoming[0]
            if all(partitioners_agree(first, other) for other in incoming[1:]):
                located[stage] = first
        return located

    @staticmethod
    def _topo_no_feedback(graph: DataflowGraph) -> List[Stage]:
        """Stages in dependency order, ignoring feedback back-edges
        (mirrors the acyclicity check in :meth:`DataflowGraph.validate`)."""
        in_degree = {stage: 0 for stage in graph.stages}
        for connector in graph.connectors:
            if connector.src.kind is StageKind.FEEDBACK:
                continue
            in_degree[connector.dst] += 1
        ready = [stage for stage in graph.stages if in_degree[stage] == 0]
        order: List[Stage] = []
        while ready:
            stage = ready.pop()
            order.append(stage)
            if stage.kind is StageKind.FEEDBACK:
                continue
            for outputs in stage.outputs:
                for connector in outputs:
                    in_degree[connector.dst] -= 1
                    if in_degree[connector.dst] == 0:
                        ready.append(connector.dst)
        return order


class FusionPass:
    """Fuse maximal pipeline chains of unary operators into one stage."""

    name = "operator-fusion"

    def run(self, plan: LogicalPlan) -> List[str]:
        graph = plan.graph
        rewrites: List[str] = []
        changed = False
        for head in list(graph.stages):
            if not self._fusable(head) or self._chain_predecessor(head) is not None:
                continue
            chain = [head]
            while True:
                successor = self._chain_successor(chain[-1])
                if successor is None:
                    break
                chain.append(successor)
            if len(chain) < 2:
                continue
            self._rewrite(graph, chain)
            changed = True
            rewrites.append(
                "fused [%s] into one stage" % " -> ".join(stage.name for stage in chain)
            )
        if changed:
            plan.reindex()
        return rewrites

    # -- legality ------------------------------------------------------

    @staticmethod
    def _fusable(stage: Stage) -> bool:
        return (
            stage.kind is StageKind.NORMAL
            and stage.num_inputs == 1
            and stage.num_outputs == 1
            and stage.opspec is not None
            and stage.opspec.fusable
        )

    @classmethod
    def _chain_predecessor(cls, stage: Stage) -> Optional[Stage]:
        connector = stage.inputs[0]
        if connector is None or connector.partitioner is not None:
            return None
        src = connector.src
        if not cls._fusable(src) or len(src.outputs[0]) != 1:
            return None
        return src

    @classmethod
    def _chain_successor(cls, stage: Stage) -> Optional[Stage]:
        if len(stage.outputs[0]) != 1:
            return None
        connector = stage.outputs[0][0]
        if connector.partitioner is not None:
            return None
        dst = connector.dst
        if not cls._fusable(dst):
            return None
        return dst

    # -- rewrite -------------------------------------------------------

    @staticmethod
    def _rewrite(graph: DataflowGraph, chain: List[Stage]) -> None:
        names = tuple(stage.name for stage in chain)
        specs = [stage.opspec for stage in chain]
        originals = list(chain)

        def factory(stage: Stage, worker: int) -> FusedVertex:
            parts = [orig.factory(orig, worker) for orig in originals]
            return FusedVertex(parts, names)

        head, tail = chain[0], chain[-1]
        fused = Stage(
            graph,
            head.index,
            "fuse(%s)" % "+".join(names),
            StageKind.NORMAL,
            factory,
            1,
            1,
            head.context,
        )
        fused.opspec = OpSpec(
            "fused",
            fusable=False,
            batchable=all(spec.batchable for spec in specs),
            preserves_partitioning=all(spec.preserves_partitioning for spec in specs),
            constituents=names,
            # The chain consumes what its head consumed; deliveries
            # enter through parts[0], so the head's schema is the one
            # the columnar plane may encode against.
            schema=specs[0].schema,
        )
        incoming = head.inputs[0]
        if incoming is not None:
            incoming.dst = fused
            fused.inputs[0] = incoming
        outgoing = list(tail.outputs[0])
        for connector in outgoing:
            connector.src = fused
        fused.outputs[0] = outgoing
        for stage in chain[1:]:
            graph.connectors.remove(stage.inputs[0])
        position = graph.stages.index(head)
        graph.stages[position] = fused
        for stage in chain[1:]:
            graph.stages.remove(stage)


class BatchingHintPass:
    """Mark connectors whose destination tolerates merged deliveries."""

    name = "batch-coalescing"

    def run(self, plan: LogicalPlan) -> List[str]:
        rewrites: List[str] = []
        for connector in plan.graph.connectors:
            if connector.coalesce:
                continue
            dst = connector.dst
            if dst.kind in SYSTEM_BATCHABLE:
                batchable = True
            else:
                batchable = dst.opspec is not None and dst.opspec.batchable
            if batchable:
                connector.coalesce = True
                rewrites.append(
                    "coalesce hint on (%s -> %s)" % (connector.src.name, dst.name)
                )
        return rewrites


class PlumbingCutThroughPass:
    """Mark pipeline connectors into stateless forwarding stages."""

    name = "plumbing-cut-through"

    def run(self, plan: LogicalPlan) -> List[str]:
        # Only in scopes the progress plane summarizes: no stage inside
        # notifies (asked as the plane asks, of a vertex).  In the others
        # the hop's pointstamp is disseminated, and is what lets a
        # process withhold the hop's sends behind it (section 3.3): cut
        # through, Pregel-style loops broadcast 1.5-3.5x the updates.
        notifying = set()
        for stage in plan.graph.stages:
            context = stage.context
            if (
                context is not None
                and stage.kind is StageKind.NORMAL
                and getattr(stage.factory(stage, 0), "notifies", True)
            ):
                while context is not None:
                    notifying.add(context)
                    context = context.parent
        rewrites: List[str] = []
        for connector in plan.graph.connectors:
            if (
                connector.cut_through
                or connector.partitioner is not None
                or connector.dst.kind not in SYSTEM_BATCHABLE
                or connector.dst.context in notifying
                # Ingest is no callback: no producer to run or bill the hop in.
                or connector.src.kind is StageKind.INPUT
            ):
                continue
            connector.cut_through = True
            rewrites.append(
                "cut-through hint on (%s -> %s)" % (connector.src.name, connector.dst.name)
            )
        return rewrites


def default_passes() -> List:
    return [ExchangeElisionPass(), FusionPass(), BatchingHintPass(), PlumbingCutThroughPass()]


def compile_plan(
    graph: DataflowGraph,
    total_workers: Optional[int] = None,
    passes: Optional[Sequence] = None,
    trace: Optional[TraceSink] = None,
    now: float = 0.0,
) -> PhysicalPlan:
    """Run ``graph`` through the pass pipeline; returns the physical plan.

    The graph is rewritten *in place* (it must not be frozen yet); the
    returned :class:`PhysicalPlan` records before/after summaries and
    the per-pass rewrite log for :meth:`~PhysicalPlan.explain`.  With a
    trace sink attached, each pass emits one ``"plan"`` event whose
    detail is ``(rewrites, stages_after, connectors_after)``.
    """
    plan = LogicalPlan(graph, total_workers)
    before = plan_signature(graph)
    results: List[PassResult] = []
    for compiler_pass in default_passes() if passes is None else passes:
        rewrites = compiler_pass.run(plan)
        results.append(PassResult(compiler_pass.name, list(rewrites)))
        if trace is not None:
            trace.emit(
                TraceEvent(
                    "plan",
                    now,
                    0.0,
                    perf_counter(),
                    -1,
                    -1,
                    compiler_pass.name,
                    (),
                    (len(rewrites), len(graph.stages), len(graph.connectors)),
                )
            )
    return PhysicalPlan(graph, before, plan_signature(graph), results)


def parse_optimize_env(value: Optional[str]) -> bool:
    """Interpret the ``REPRO_COLUMNAR`` variable."""
    if value is None:
        return False
    return value.strip().lower() in ("1", "true", "yes", "on")


def mark_columnar(graph: DataflowGraph) -> int:
    """Annotate connectors with the columnar schema of their eventual
    destination; returns the number of connectors marked.

    A connector qualifies when every NORMAL stage reachable from it
    through system forwarding stages (ingress/egress/feedback, which
    pass batches through whole) declares the same ``OpSpec.schema``.
    Senders on a marked connector encode conforming record batches as
    :class:`~repro.columnar.ColumnarBatch` payloads; everything else is
    untouched, so marking is a pure opt-in performed by the cluster
    runtime at build time (after the pass pipeline, before freeze) and
    never appears in pass-pipeline golden reports.
    """
    forwarding = (StageKind.INGRESS, StageKind.EGRESS, StageKind.FEEDBACK)

    def eventual_schema(connector, seen):
        dst = connector.dst
        if dst.kind is StageKind.NORMAL:
            return None if dst.opspec is None else dst.opspec.schema
        if dst.kind in forwarding:
            if dst in seen:
                return None
            seen = seen | {dst}
            schemas = set()
            for outputs in dst.outputs:
                for downstream in outputs:
                    schemas.add(eventual_schema(downstream, seen))
            if len(schemas) == 1:
                return schemas.pop()
        return None

    marked = 0
    for connector in graph.connectors:
        schema = eventual_schema(connector, frozenset())
        if schema is not None:
            connector.columnar = schema
            marked += 1
    return marked
