"""The plan optimizer: passes, explain(), fused vertices, idempotence.

Covers the rewrite legality rules unit-by-unit (fusion barriers,
elision proofs, coalescing hints), the golden ``explain()`` report, the
``FusedVertex`` chain mechanics including the composite checkpoint, the
plumbing cut-through hints and their execution on both runtimes, and
— property-tested over random operator chains — idempotence of the
whole pass pipeline: compiling an already-compiled plan performs zero
rewrites and leaves the structural signature unchanged.
"""

import traceback
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import Computation
from repro.algorithms import weakly_connected_components
from repro.core.graph import StageKind
from repro.core.timestamp import Timestamp
from repro.lib import Stream
from repro.lib.operators import SelectVertex, UnaryBufferingVertex, WhereVertex
from repro.lib.stream import hash_partitioner
from repro.obs import TraceSink, collect_profile
from repro.opt import (
    FusedVertex,
    FusionPass,
    HashPartitioner,
    PlumbingCutThroughPass,
    compile_plan,
    parse_optimize_env,
    partitioners_agree,
    plan_signature,
)
from repro.parallel import fork_available
from repro.runtime import ClusterComputation


def fresh_graph(build):
    """Build a dataflow on an un-built Computation; return (comp, graph)."""
    comp = Computation(optimize=False)
    build(comp)
    return comp, comp.graph


def names(graph):
    return [stage.name for stage in graph.stages]


# ----------------------------------------------------------------------
# HashPartitioner equality.
# ----------------------------------------------------------------------


def _key(record):
    return record[0]


class TestPartitionerEquality:
    def test_same_key_object_compares_equal(self):
        assert hash_partitioner(_key) == hash_partitioner(_key)
        assert partitioners_agree(hash_partitioner(_key), hash_partitioner(_key))

    def test_different_keys_differ(self):
        a = hash_partitioner(_key)
        b = hash_partitioner(lambda record: record[0])  # same code, new object
        assert a != b
        assert not partitioners_agree(a, b)

    def test_agreement_is_conservative(self):
        assert not partitioners_agree(None, hash_partitioner(_key))
        assert not partitioners_agree(hash_partitioner(_key), None)
        opaque = lambda record: 0  # noqa: E731
        assert partitioners_agree(opaque, opaque)  # identity still counts

    def test_routing_matches_plain_hash(self):
        partitioner = HashPartitioner(_key)
        assert partitioner(("x", 1)) == hash("x")


# ----------------------------------------------------------------------
# Fusion legality.
# ----------------------------------------------------------------------


class TestFusionPass:
    def test_fuses_maximal_unary_chain(self):
        def build(comp):
            inp = comp.new_input("src")
            (
                Stream.from_input(inp)
                .select(lambda x: x + 1)
                .where(lambda x: x > 0)
                .select_many(lambda x: [x])
                .subscribe(lambda t, r: None)
            )

        comp, graph = fresh_graph(build)
        plan = compile_plan(graph, total_workers=4)
        fused = plan.fused_stages()
        assert len(fused) == 1
        assert fused[0].opspec.constituents == ("select", "where", "select_many")
        # The subscribe stage is not fusable (driver-side callback) and
        # stays outside the chain.
        assert names(graph) == ["src", "fuse(select+where+select_many)", "subscribe"]
        # Stage/connector indices are re-packed after the rewrite.
        assert [s.index for s in graph.stages] == list(range(len(graph.stages)))
        assert [c.index for c in graph.connectors] == list(
            range(len(graph.connectors))
        )

    def test_exchange_is_a_barrier(self):
        def build(comp):
            inp = comp.new_input("src")
            (
                Stream.from_input(inp)
                .select(lambda x: x)
                .count_by(lambda x: x)  # exchange on its input
                .subscribe(lambda t, r: None)
            )

        comp, graph = fresh_graph(build)
        plan = compile_plan(graph, total_workers=4)
        # select alone is a chain of one: nothing to fuse across the
        # exchange, and count_by's input edge keeps its partitioner.
        assert plan.fused_stages() == []
        assert any(c.partitioner is not None for c in graph.connectors)

    def test_fan_out_is_a_barrier(self):
        def build(comp):
            inp = comp.new_input("src")
            s = Stream.from_input(inp).select(lambda x: x, name="a")
            s.select(lambda x: x + 1, name="b").subscribe(lambda t, r: None)
            s.select(lambda x: x + 2, name="c").subscribe(lambda t, r: None)

        comp, graph = fresh_graph(build)
        plan = compile_plan(graph, total_workers=4)
        # "a" fans out to two consumers; neither branch may absorb it.
        assert all("a" not in s.opspec.constituents for s in plan.fused_stages())

    def test_loop_boundary_is_a_barrier(self):
        def build(comp):
            inp = comp.new_input("src")
            (
                Stream.from_input(inp)
                .select(lambda x: x, name="pre")
                .iterate(lambda s: s.select(lambda x: x - 1).where(lambda x: x > 0))
                .select(lambda x: x, name="post")
                .subscribe(lambda t, r: None)
            )

        comp, graph = fresh_graph(build)
        plan = compile_plan(graph, total_workers=4)
        # The loop body chain (select -> where) fuses; pre and post do
        # not cross the ingress/egress stages.
        constituents = [s.opspec.constituents for s in plan.fused_stages()]
        assert ("select", "where") in constituents
        for stages in constituents:
            assert "pre" not in stages and "post" not in stages
        kinds = {stage.kind for stage in graph.stages}
        assert StageKind.INGRESS in kinds and StageKind.EGRESS in kinds

    def test_fused_stage_charges_each_constituent_its_own_records(self):
        """Fusion saves per-event overhead, never per-record work: a
        chain that expands (select_many) or thins (where) its records
        is billed, constituent by constituent, what the unfused stages
        were — minus one callback overhead per delivery it removed."""

        def run(optimize):
            comp = ClusterComputation(
                num_processes=1, workers_per_process=1, optimize=optimize
            )
            sink = TraceSink()
            comp.attach_trace_sink(sink)
            inp = comp.new_input("src")
            (
                Stream.from_input(inp)
                .select_many(lambda x: [x] * x, name="expand")
                .where(lambda x: x % 2 == 0, name="even")
                .select(lambda x: x + 1, name="bump")
                .subscribe(lambda t, r: None)
            )
            comp.build()
            inp.on_next([1, 2, 3, 4])
            inp.on_next([6])
            inp.on_completed()
            comp.run()
            assert comp.drained()
            return comp, [e for e in sink.events if e.kind == "activation"]

        _, plain = run(False)
        comp, fused = run([FusionPass()])
        assert [s.name for s in comp.plan.fused_stages()] == ["fuse(expand+even+bump)"]
        assert len(fused) < len(plain)
        saved = (len(plain) - len(fused)) * comp.cost_model.callback_overhead
        assert sum(e.dur for e in fused) == pytest.approx(
            sum(e.dur for e in plain) - saved, abs=1e-12
        )


# ----------------------------------------------------------------------
# Exchange elision.
# ----------------------------------------------------------------------


class TestExchangeElision:
    def test_single_worker_elides_everything(self):
        def build(comp):
            inp = comp.new_input("src")
            (
                Stream.from_input(inp)
                .count_by(lambda x: x)
                .subscribe(lambda t, r: None)
            )

        comp, graph = fresh_graph(build)
        plan = compile_plan(graph, total_workers=1)
        assert plan.elided_exchanges() >= 1
        assert all(c.partitioner is None for c in graph.connectors)

    def test_repartition_by_same_key_elides(self):
        def build(comp):
            inp = comp.new_input("src")
            # Two whole-record exchanges (distinct partitions by the
            # shared identity selector), separated by a filter; both
            # distinct and where preserve the partitioning, so the
            # second exchange is provably redundant.
            (
                Stream.from_input(inp)
                .select(lambda x: x % 5)
                .distinct(name="first")
                .where(lambda r: True)
                .distinct(name="second")
                .subscribe(lambda t, r: None)
            )

        comp, graph = fresh_graph(build)
        plan = compile_plan(graph, total_workers=4)
        assert plan.elided_exchanges() == 1
        exchanges = [c for c in graph.connectors if c.partitioner is not None]
        assert len(exchanges) == 1
        # The upstream exchange stays; its destination is now the fused
        # chain the elision unlocked (first+where+second pipeline).
        assert exchanges[0].dst.name == "fuse(first+where+second)"

    def test_non_preserving_stage_blocks_elision(self):
        def build(comp):
            inp = comp.new_input("src")
            (
                Stream.from_input(inp)
                .group_by(_key, lambda k, vs: vs, name="first")
                .select(lambda r: r)  # select re-shapes records: not preserving
                .group_by(_key, lambda k, vs: vs, name="second")
                .subscribe(lambda t, r: None)
            )

        comp, graph = fresh_graph(build)
        plan = compile_plan(graph, total_workers=4)
        assert plan.elided_exchanges() == 0

    def test_input_edges_never_elided_multiworker(self):
        def build(comp):
            inp = comp.new_input("src")
            (
                Stream.from_input(inp)
                .count_by(lambda x: x)
                .subscribe(lambda t, r: None)
            )

        comp, graph = fresh_graph(build)
        plan = compile_plan(graph, total_workers=4)
        # Input ingest is round-robin; the keyed exchange must stay.
        assert plan.elided_exchanges() == 0


# ----------------------------------------------------------------------
# Batch-coalescing hints.
# ----------------------------------------------------------------------


class TestBatchingHints:
    def test_hints_follow_opspec_batchable(self):
        def build(comp):
            inp = comp.new_input("src")
            (
                Stream.from_input(inp)
                .where(lambda x: True)               # batchable
                .inspect(lambda t, r: None)          # per-batch user callback
                .count_by(lambda x: x)               # batchable
                .subscribe(lambda t, r: None)
            )

        comp, graph = fresh_graph(build)
        compile_plan(graph, total_workers=4)
        by_dst = {c.dst.name: c.coalesce for c in graph.connectors}
        assert by_dst["where"] is True
        assert by_dst["inspect"] is False  # users observe batch shapes
        assert by_dst["count_by"] is True

    def test_system_stages_always_coalesce(self):
        def build(comp):
            inp = comp.new_input("src")
            (
                Stream.from_input(inp)
                .iterate(lambda s: s.select(lambda x: x - 1).where(lambda x: x > 0))
                .subscribe(lambda t, r: None)
            )

        comp, graph = fresh_graph(build)
        compile_plan(graph, total_workers=4)
        for connector in graph.connectors:
            if connector.dst.kind in (
                StageKind.INGRESS,
                StageKind.EGRESS,
                StageKind.FEEDBACK,
            ):
                assert connector.coalesce is True


# ----------------------------------------------------------------------
# Plumbing cut-through: the hints, and both runtimes executing them.
# ----------------------------------------------------------------------

GOLDEN_WCC_EXPLAIN = """\
== logical plan ==
8 stages, 8 connectors
  [0] edges (input)
  [1] wcc.arcs (normal)
  [2] wcc.feedback (feedback)
  [3] wcc (normal)
  [4] wcc.ingress (ingress)
  [5] wcc.egress (egress)
  [6] wcc.final (normal)
  [7] subscribe (normal)
  (0) edges -> wcc.arcs
  (1) wcc.arcs -> wcc.ingress
  (2) wcc.ingress -> wcc {exchange}
  (3) wcc -> wcc.feedback
  (4) wcc.feedback -> wcc {exchange}
  (5) wcc -> wcc.egress
  (6) wcc.egress -> wcc.final {exchange}
  (7) wcc.final -> subscribe
== pass exchange-elision: 0 rewrites ==
== pass operator-fusion: 0 rewrites ==
== pass batch-coalescing: 8 rewrites ==
  coalesce hint on (edges -> wcc.arcs)
  coalesce hint on (wcc.arcs -> wcc.ingress)
  coalesce hint on (wcc.ingress -> wcc)
  coalesce hint on (wcc -> wcc.feedback)
  coalesce hint on (wcc.feedback -> wcc)
  coalesce hint on (wcc -> wcc.egress)
  coalesce hint on (wcc.egress -> wcc.final)
  coalesce hint on (wcc.final -> subscribe)
== pass plumbing-cut-through: 3 rewrites ==
  cut-through hint on (wcc.arcs -> wcc.ingress)
  cut-through hint on (wcc -> wcc.feedback)
  cut-through hint on (wcc -> wcc.egress)
== physical plan ==
8 stages, 8 connectors
  [0] edges (input)
  [1] wcc.arcs (normal)
  [2] wcc.feedback (feedback)
  [3] wcc (normal)
  [4] wcc.ingress (ingress)
  [5] wcc.egress (egress)
  [6] wcc.final (normal)
  [7] subscribe (normal)
  (0) edges -> wcc.arcs {coalesce}
  (1) wcc.arcs -> wcc.ingress {coalesce, cut-through}
  (2) wcc.ingress -> wcc {exchange, coalesce}
  (3) wcc -> wcc.feedback {coalesce, cut-through}
  (4) wcc.feedback -> wcc {exchange, coalesce}
  (5) wcc -> wcc.egress {coalesce, cut-through}
  (6) wcc.egress -> wcc.final {exchange, coalesce}
  (7) wcc.final -> subscribe {coalesce}"""


def wcc(comp, out=None):
    inp = comp.new_input("edges")
    weakly_connected_components(Stream.from_input(inp)).subscribe(
        lambda t, recs: None if out is None else out.extend(recs)
    )
    return inp


def countdown(comp, out, max_iterations=None):
    """x -> x - 1 while positive, round a loop fed by a vertex: every
    hop (ingress, feedback, egress) is behind a pipeline connector."""
    inp = comp.new_input("src")
    (
        Stream.from_input(inp)
        .select(lambda x: x)
        .iterate(
            lambda body: body.select(lambda x: x - 1).where(lambda x: x > 0),
            max_iterations=max_iterations,
        )
        .subscribe(lambda t, recs: out.setdefault(t.epoch, []).extend(recs))
    )
    return inp


def run_countdown(comp, max_iterations=None):
    out = {}
    inp = countdown(comp, out, max_iterations)
    comp.build()
    inp.on_next([3, 1, 4])
    inp.on_next([2, 5])
    inp.on_completed()
    comp.run()
    assert comp.drained()
    return {epoch: sorted(records) for epoch, records in out.items()}


class TestPlumbingCutThrough:
    def test_golden_wcc_report(self):
        comp, graph = fresh_graph(wcc)
        plan = compile_plan(graph, total_workers=8)
        assert plan.explain() == GOLDEN_WCC_EXPLAIN
        assert not any(c.cut_through and c.partitioner for c in graph.connectors)

    def test_exchanges_and_ingest_are_never_marked(self):
        def build(comp):
            inp = comp.new_input("src")
            (
                Stream.from_input(inp)  # the input feeds the ingress directly
                .iterate(
                    lambda body: body.where(lambda x: x > 0),
                    partitioner=hash_partitioner(_key),  # exchange into feedback
                )
                .subscribe(lambda t, r: None)
            )

        comp, graph = fresh_graph(build)
        compile_plan(graph, total_workers=4, passes=[PlumbingCutThroughPass()])
        marked = {
            (c.src.name, c.dst.name) for c in graph.connectors if c.cut_through
        }
        assert marked == {("where", "iterate.egress")}

    def test_a_scope_with_a_notifying_vertex_is_left_alone(self):
        # The progress plane will not summarize such a scope (nor the
        # ones enclosing it), so its hops' pointstamps are disseminated
        # and let accumulators hold what the hop sends; a quiet scope
        # nested inside it is summarized and cut through all the same.
        def build(comp):
            inp = comp.new_input("src")
            (
                Stream.from_input(inp)
                .select(lambda x: x)
                .iterate(
                    lambda outer: outer.count_by(lambda x: x)  # notifies
                    .select(lambda kv: kv[0])
                    .iterate(lambda inner: inner.where(lambda x: x > 9), name="inner"),
                    max_iterations=2,
                    name="outer",
                )
                .iterate(lambda quiet: quiet.where(lambda x: x > 9), name="quiet")
                .subscribe(lambda t, r: None)
            )

        comp, graph = fresh_graph(build)
        compile_plan(graph, total_workers=4, passes=[PlumbingCutThroughPass()])
        hops = {c.dst.name for c in graph.connectors if c.cut_through}
        assert hops == {"inner.ingress", "inner.feedback", "inner.egress"} | {
            "quiet.ingress", "quiet.feedback", "quiet.egress"
        }

    @pytest.mark.parametrize("max_iterations", [None, 3])
    def test_reference_runtime_forwards_inside_the_producer(self, max_iterations):
        oracle = Computation(optimize=False)
        expected = run_countdown(oracle, max_iterations)
        cut = Computation(optimize=[PlumbingCutThroughPass()])
        assert run_countdown(cut, max_iterations) == expected
        assert oracle.cut_through_hops == 0
        # Every delivery the oracle made to a plumbing stage became a hop.
        assert cut.cut_through_hops > 0
        assert cut.delivered_messages == (
            oracle.delivered_messages - cut.cut_through_hops
        )
        assert "cut_through_hops=%d" % cut.cut_through_hops in cut.debug_state().text
        assert cut.debug_state().cut_through_hops == cut.cut_through_hops

    @pytest.mark.parametrize("max_iterations", [None, 3])
    def test_cluster_charges_the_hop_to_the_producer(self, max_iterations):
        """The honest-cost rule: same outputs, the same summed callback
        cost (virtual time moves only through removed queueing, never
        through dropped CPU), fewer events."""

        def run(optimize):
            comp = ClusterComputation(
                num_processes=1, workers_per_process=1, optimize=optimize
            )
            sink = TraceSink()
            comp.attach_trace_sink(sink)
            out = run_countdown(comp, max_iterations)
            spans = [e for e in sink.events if e.kind == "activation"]
            return out, comp, spans

        expected, oracle, oracle_spans = run(False)
        out, cut, cut_spans = run([PlumbingCutThroughPass()])
        assert out == expected
        assert sum(e.dur for e in cut_spans) == pytest.approx(
            sum(e.dur for e in oracle_spans), abs=1e-9
        )
        assert cut.sim.events_executed < oracle.sim.events_executed
        assert cut.cut_through_hops > 0
        # Plumbing stages have no spans of their own: their cost sits in
        # the producer's span.
        assert {e.stage for e in oracle_spans if e.stage.startswith("iterate.")}
        assert not {e.stage for e in cut_spans if e.stage.startswith("iterate.")}
        assert collect_profile(cut).cut_through_hops == cut.cut_through_hops
        state = cut.debug_state()
        assert state.cut_through_hops == cut.cut_through_hops
        assert "cut_through_hops=%d" % cut.cut_through_hops in state.text

    @pytest.mark.parametrize("tracking", ["flat", "scoped"])
    def test_no_view_ever_holds_a_marked_connector(self, tracking):
        from repro.workloads import uniform_random_graph

        comp = ClusterComputation(
            num_processes=4, workers_per_process=2, progress_tracking=tracking
        )
        labels = []
        inp = wcc(comp, labels)
        comp.build()
        marked = {c for c in comp.graph.connectors if c.cut_through}
        assert len(marked) == 3
        seen = set()
        for view in comp.views:
            view.listeners.append(
                lambda updates: seen.update(p.location for p, _ in updates)
            )
        edges = uniform_random_graph(60, 120, seed=5)
        inp.on_next(edges)
        inp.on_completed()
        comp.run()
        assert comp.drained(), comp.debug_state()
        assert seen and not seen & marked
        assert comp.cut_through_hops > 0
        assert dict(labels) and min(l for _, l in labels) == min(
            min(edge) for edge in edges
        )


# ----------------------------------------------------------------------
# Fail fast on the default plan: a raising user function surfaces as
# itself from inside a fused chain and from under a cut-through send.
# ----------------------------------------------------------------------


def explode(x):
    return 1 // (x - 7)  # ZeroDivisionError on 7


def make_runtime(kind):
    if kind == "reference":
        return Computation()
    return ClusterComputation(
        num_processes=2,
        workers_per_process=1,
        backend="mp" if kind == "mp" else "inline",
        pool_workers=2,
    )


RUNTIMES = [
    "reference",
    "inline",
    pytest.param(
        "mp",
        marks=pytest.mark.skipif(
            not fork_available(), reason="mp backend requires the fork start method"
        ),
    ),
]


def raised_by(comp, inp):
    comp.build()
    inp.on_next([3, 7, 9])
    inp.on_completed()
    try:
        with pytest.raises(ZeroDivisionError) as info:
            comp.run()
    finally:
        if hasattr(comp, "close"):
            comp.close()
    # The user function's own frame: in the traceback itself, or (mp) in
    # the child's stack riding along as the cause.
    chain = "".join(
        traceback.format_exception(type(info.value), info.value, info.tb)
    )
    assert "in explode" in chain and "1 // (x - 7)" in chain
    return info.value


@pytest.mark.parametrize("kind", RUNTIMES)
class TestFailFast:
    def test_inside_a_fused_chain(self, kind):
        comp = make_runtime(kind)
        inp = comp.new_input("src")
        (
            Stream.from_input(inp)
            .where(lambda x: x > 0, name="positive")
            .select(explode, name="invert")
            .where(lambda x: True, name="all")
            .subscribe(lambda t, r: None)
        )
        error = raised_by(comp, inp)
        (fused,) = comp.plan.fused_stages()
        assert fused.name == "fuse(positive+invert+all)"
        # The message names the constituent, not only the fused stage.
        assert error.operator == "invert"
        (note,) = error.__notes__
        assert "'invert'" in note and "fuse(positive+invert+all)" in note

    def test_under_a_cut_through_send(self, kind):
        comp = make_runtime(kind)
        inp = comp.new_input("src")
        (
            Stream.from_input(inp)
            .iterate(lambda body: body.select(explode, name="invert"), max_iterations=2)
            .subscribe(lambda t, r: None)
        )
        raised_by(comp, inp)
        assert any(
            c.cut_through and c.src.name == "invert" for c in comp.graph.connectors
        )


# ----------------------------------------------------------------------
# The golden explain() report.
# ----------------------------------------------------------------------

GOLDEN_EXPLAIN = """\
== logical plan ==
6 stages, 5 connectors
  [0] lines (input)
  [1] select (normal)
  [2] where (normal)
  [3] select_many (normal)
  [4] count_by (normal)
  [5] subscribe (normal)
  (0) lines -> select
  (1) select -> where
  (2) where -> select_many
  (3) select_many -> count_by {exchange}
  (4) count_by -> subscribe
== pass exchange-elision: 0 rewrites ==
== pass operator-fusion: 1 rewrite ==
  fused [select -> where -> select_many] into one stage
== pass batch-coalescing: 3 rewrites ==
  coalesce hint on (lines -> fuse(select+where+select_many))
  coalesce hint on (fuse(select+where+select_many) -> count_by)
  coalesce hint on (count_by -> subscribe)
== pass plumbing-cut-through: 0 rewrites ==
== physical plan ==
4 stages, 3 connectors
  [0] lines (input)
  [1] fuse(select+where+select_many) (normal) [fused: select, where, select_many]
  [2] count_by (normal)
  [3] subscribe (normal)
  (0) lines -> fuse(select+where+select_many) {coalesce}
  (1) fuse(select+where+select_many) -> count_by {exchange, coalesce}
  (2) count_by -> subscribe {coalesce}"""


def wordcount(comp):
    inp = comp.new_input("lines")
    (
        Stream.from_input(inp)
        .select(str.lower)
        .where(lambda line: line.strip() != "")
        .select_many(str.split)
        .count_by(lambda word: word)
        .subscribe(lambda t, r: None)
    )
    return inp


class TestExplain:
    def test_golden_report(self):
        comp, graph = fresh_graph(wordcount)
        plan = compile_plan(graph, total_workers=8)
        assert plan.explain() == GOLDEN_EXPLAIN

    def test_explain_via_computation_build(self):
        # The reference runtime is single-worker, so the keyed exchange
        # elides — which then unlocks fusing count_by into the chain.
        comp = Computation(optimize=True)
        wordcount(comp)
        comp.build()
        assert comp.plan is not None
        explain = comp.plan.explain()
        assert (
            "elided exchange (select_many -> count_by): single worker" in explain
        )
        assert (
            "fused [select -> where -> select_many -> count_by] into one stage"
            in explain
        )
        (fused,) = comp.plan.fused_stages()
        assert fused.opspec.constituents == (
            "select",
            "where",
            "select_many",
            "count_by",
        )

    def test_unoptimized_computation_has_no_plan(self):
        comp = Computation(optimize=False)
        wordcount(comp)
        comp.build()
        assert comp.plan is None

    def test_fused_stage_renders_as_dot_cluster(self):
        comp, graph = fresh_graph(wordcount)
        plan = compile_plan(graph, total_workers=8)
        dot = plan.to_dot()
        assert "compound=true;" in dot
        assert "subgraph cluster_fused_1 {" in dot
        for part in ("select", "where", "select_many"):
            assert '[label="%s" shape=box]' % part in dot
        assert "lhead=cluster_fused_1" in dot
        assert "ltail=cluster_fused_1" in dot
        assert dot.count("{") == dot.count("}")

    def test_plan_trace_events(self):
        comp, graph = fresh_graph(wordcount)
        sink = TraceSink()
        compile_plan(graph, total_workers=8, trace=sink)
        plan_events = [e for e in sink.events if e.kind == "plan"]
        assert [e.stage for e in plan_events] == [
            "exchange-elision",
            "operator-fusion",
            "batch-coalescing",
            "plumbing-cut-through",
        ]
        rewrites = [e.detail[0] for e in plan_events]
        assert rewrites == [0, 1, 3, 0]


# ----------------------------------------------------------------------
# FusedVertex mechanics.
# ----------------------------------------------------------------------


class _Recorder:
    """A minimal harness standing in for the runtime."""

    total_workers = 1

    def __init__(self):
        self.sent = []
        self.notified = []
        self.charged = 0

    def send(self, vertex, port, records, timestamp):
        self.sent.append((port, list(records), timestamp))

    def request_notification(self, vertex, timestamp, capability=True):
        self.notified.append(timestamp)

    def charge(self, records):
        self.charged += len(records)


def t(epoch):
    return Timestamp(epoch, ())


class TestFusedVertex:
    def make(self):
        parts = [
            SelectVertex(lambda x: x * 2),
            WhereVertex(lambda x: x > 2),
            UnaryBufferingVertex(lambda rs: [sum(rs)]),
        ]
        fused = FusedVertex(parts, ("double", "big", "sum"))
        harness = _Recorder()
        fused._harness = harness
        return fused, harness

    def test_chain_routes_through_constituents(self):
        fused, harness = self.make()
        fused.on_recv(0, [1, 2, 3], t(0))
        # select/where ran synchronously; the buffering tail requested
        # one outer notification and emitted nothing yet.
        assert harness.sent == []
        assert harness.notified == [t(0)]
        # The runtime bills the head's three itself; where was handed
        # [2, 4, 6] and the tail [4, 6].
        assert harness.charged == 3 + 2
        fused.on_notify(t(0))
        assert harness.sent == [(0, [10], t(0))]  # 2*2 + 3*2

    def test_notifications_deduplicate(self):
        parts = [
            UnaryBufferingVertex(lambda rs: rs),
            UnaryBufferingVertex(lambda rs: [sum(rs)]),
        ]
        fused = FusedVertex(parts, ("a", "b"))
        harness = _Recorder()
        fused._harness = harness
        fused.on_recv(0, [1, 2], t(3))
        # Only the head buffers yet: one outer request.
        assert harness.notified == [t(3)]
        fused.on_notify(t(3))
        # The head's completion pushed records into the tail during
        # dispatch; the tail's fresh request surfaced as a second grant.
        assert harness.notified == [t(3), t(3)]
        fused.on_notify(t(3))
        assert harness.sent == [(0, [3], t(3))]

    def test_checkpoint_restore_roundtrip(self):
        fused, harness = self.make()
        fused.on_recv(0, [5, 6], t(1))
        snapshot = fused.checkpoint()
        fused.on_recv(0, [7], t(1))
        fused.on_recv(0, [9], t(2))
        fused.restore(snapshot)
        assert sorted(fused._pending) == [t(1)]
        fused.on_notify(t(1))
        assert harness.sent == [(0, [22], t(1))]  # 5*2 + 6*2, rollback held

    def test_spurious_notify_is_ignored(self):
        fused, _ = self.make()
        fused.on_notify(t(9))  # no pending entry: no-op

    def test_constituent_output_port_validated(self):
        fused, _ = self.make()
        with pytest.raises(ValueError):
            fused.parts[0].send_by(1, [1], t(0))


# ----------------------------------------------------------------------
# Idempotence, property-tested over random operator chains.
# ----------------------------------------------------------------------

OPS = ("select", "where", "select_many", "distinct", "count_by", "group_by")


def build_chain(comp, ops, loop_at):
    inp = comp.new_input("src")
    s = Stream.from_input(inp)

    def apply(stream, kind, salt):
        if kind == "select":
            return stream.select(lambda x, k=salt: x)
        if kind == "where":
            return stream.where(lambda x, k=salt: True)
        if kind == "select_many":
            return stream.select_many(lambda x: [x])
        if kind == "distinct":
            return stream.distinct()
        if kind == "count_by":
            return stream.count_by(lambda x: x)
        return stream.group_by(lambda x: x, lambda k, vs: vs)

    for position, kind in enumerate(ops):
        if position == loop_at:
            s = s.iterate(
                lambda body: body.select(lambda x: x - 1).where(lambda x: x > 0)
            )
        s = apply(s, kind, position)
    s.subscribe(lambda t_, r: None)


@given(
    ops=st.lists(st.sampled_from(OPS), min_size=1, max_size=6),
    loop_at=st.integers(min_value=-1, max_value=5),
    workers=st.sampled_from([1, 2, 8]),
)
@settings(max_examples=60, deadline=None)
def test_pass_pipeline_is_idempotent(ops, loop_at, workers):
    comp = Computation(optimize=False)
    build_chain(comp, ops, loop_at)
    first = compile_plan(comp.graph, total_workers=workers)
    assert len(first.results) == 4  # the whole default pipeline
    signature = plan_signature(comp.graph)
    second = compile_plan(comp.graph, total_workers=workers)
    assert second.rewrite_count == 0, second.explain()
    assert plan_signature(comp.graph) == signature
    assert first.graph is comp.graph


# ----------------------------------------------------------------------
# The optimizer is the default; only REPRO_COLUMNAR is still parsed.
# ----------------------------------------------------------------------


class TestDefaultPlan:
    @pytest.mark.parametrize("value,expected", [
        (None, False),
        ("", False),
        ("0", False),
        ("no", False),
        ("1", True),
        ("true", True),
        ("YES", True),
        (" on ", True),
    ])
    def test_parse_optimize_env(self, value, expected):
        assert parse_optimize_env(value) is expected

    @pytest.mark.parametrize("value", [None, "0", "1"])
    def test_repro_fusion_no_longer_changes_the_plan(self, monkeypatch, value):
        if value is None:
            monkeypatch.delenv("REPRO_FUSION", raising=False)
        else:
            monkeypatch.setenv("REPRO_FUSION", value)
        comp = Computation()
        wordcount(comp)
        comp.build()
        assert [result.name for result in comp.plan.results] == [
            "exchange-elision",
            "operator-fusion",
            "batch-coalescing",
            "plumbing-cut-through",
        ]
        assert comp.plan.fused_stages()
        oracle = Computation(optimize=False)
        wordcount(oracle)
        oracle.build()
        assert oracle.plan is None


# ----------------------------------------------------------------------
# Optimized reference-runtime execution still computes the right thing.
# ----------------------------------------------------------------------


def test_optimized_reference_run_matches_unoptimized():
    def run(optimize):
        comp = Computation(optimize=optimize)
        inp = comp.new_input("lines")
        out = {}
        (
            Stream.from_input(inp)
            .select(str.lower)
            .where(lambda line: line)
            .select_many(str.split)
            .count_by(lambda w: w)
            .subscribe(lambda ts, recs: out.setdefault(ts.epoch, Counter()).update(recs))
        )
        comp.build()
        inp.on_next(["To be OR not", "to BE"])
        inp.on_next(["the rest is silence"])
        inp.on_completed()
        comp.run()
        assert comp.drained()
        return out

    assert run(True) == run(False)
