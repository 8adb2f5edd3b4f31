"""The plan optimizer: passes, explain(), fused vertices, idempotence.

Covers the rewrite legality rules unit-by-unit (fusion barriers,
elision proofs, coalescing hints), the golden ``explain()`` report, the
``FusedVertex`` chain mechanics including the composite checkpoint, the
plumbing cut-through hints and their execution on both runtimes, and
— property-tested over random operator chains — idempotence of the
whole pass pipeline: compiling an already-compiled plan performs zero
rewrites and leaves the structural signature unchanged.
"""

import os
import subprocess
import sys
import traceback
import zlib
from collections import Counter
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro import Computation
from repro.algorithms import weakly_connected_components
from repro.algorithms.kexposure import k_exposure_incremental
from repro.core.graph import StageKind
from repro.core.timestamp import Timestamp
from repro.core.vertex import Vertex
from repro.lib import Collection, Stream
from repro.lib.operators import SelectVertex, UnaryBufferingVertex, WhereVertex
from repro.lib.stream import hash_partitioner
from repro.obs import TraceSink, collect_profile
from repro.opt import (
    FusedVertex,
    FusionPass,
    HashPartitioner,
    PlumbingCutThroughPass,
    compile_plan,
    partitioners_agree,
    plan_signature,
)
from repro.opt.fused import _CAPABILITY, _CLEANUP
from repro.opt.plan import RecordKey, stable_hash
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

    def test_routing_uses_the_stable_hash(self):
        partitioner = HashPartitioner(_key)
        assert partitioner(("x", 1)) == stable_hash("x") == 0x8CDC1683

    def test_collection_keys_compare_by_selector(self):
        # Collection wraps each key in a RecordKey: one selector, equal
        # partitioners, however many wrappers; same code is not enough.
        a, b = hash_partitioner(RecordKey(_key)), hash_partitioner(RecordKey(_key))
        assert a == b and hash(a) == hash(b)
        assert partitioners_agree(a, b)
        assert a != hash_partitioner(RecordKey(lambda record: record[0]))
        assert a != hash_partitioner(_key)
        assert a(((7, "x"), -1)) == hash_partitioner(_key)((7, "x"))


#: Keys as programs route by: scalars of every hashed kind and nested
#: tuples of them.
_ROUTED_KEYS = st.recursive(
    st.none()
    | st.booleans()
    | st.integers()
    | st.floats()
    | st.text(max_size=4)
    | st.binary(max_size=4),
    lambda inner: st.lists(inner, max_size=3).map(tuple),
    max_leaves=6,
)


@given(st.lists(_ROUTED_KEYS, max_size=12), st.integers(1, 9))
@example([-1, 2**61 - 1, -(2**70), True, 1.0, "a", b"a", None, (1, ("a",))], 7)
@settings(max_examples=200, deadline=None)
def test_batch_routing_is_the_stable_hash(keys, total):
    """The per-batch kernel puts every record where ``stable_hash(key) %
    total`` says, keeping send order within each destination."""
    records = [(key, position) for position, key in enumerate(keys)]
    diffs = [(record, -1) for record in records]
    for partitioner, batch in (
        (HashPartitioner(_key), records),
        (HashPartitioner(RecordKey(_key)), diffs),
    ):
        expected = {}
        for item, key in zip(batch, keys):
            expected.setdefault(stable_hash(key) % total, []).append(item)
        assert partitioner.route(batch, total) == expected


class TestStableHash:
    def test_str_and_bytes_are_their_crc32(self):
        assert stable_hash("naiad") == zlib.crc32(b"naiad") == 0x1285A15F
        assert stable_hash(b"naiad") == 0x1285A15F
        assert stable_hash("\u00e9") == zlib.crc32("\u00e9".encode()) == 0x0E048D3E

    def test_equal_keys_hash_equal(self):
        assert stable_hash((1, "a")) == stable_hash((1.0, "a")) == stable_hash((True, "a"))
        assert stable_hash((2**70, "a")) == stable_hash((float(2**70), "a"))
        assert stable_hash((0, ("a", 1), b"b")) == stable_hash((0.0, ("a", 1.0), b"b"))

    def test_salt_free_keys_keep_the_builtin_hash(self):
        for key in (7, -1, 2**70, 1.5, (3, -1), (1.5, 2**70, True), ()):
            assert stable_hash(key) == hash(key)

    def test_none_has_a_fixed_hash(self):
        # Builtin hash(None) is an address on Python 3.11.
        assert stable_hash(None) == zlib.crc32(b"None") == 0xDFA2AFF1
        assert stable_hash((None, "a")) == hash((0xDFA2AFF1, zlib.crc32(b"a")))


#: Run in a fresh interpreter per hash seed: a wordcount with a process
#: kill and a k-exposure run with one, whose exchanges route by str and
#: (int, str) keys.  Prints what placement moves: virtual time, delivery
#: counts, each failure's recovery mode and the outputs per epoch.
_DIGEST_PROGRAM = """
from repro.algorithms.kexposure import k_exposure_incremental
from repro.runtime import ClusterComputation
from repro.workloads import TweetGenerator, TweetStreamConfig
from tests.test_incremental import run_kexposure_epochs
from tests.test_recovery import make_ft, run_cluster

def digest(comp, out):
    print(comp.now, comp.delivered_messages, comp.delivered_notifications,
          [f["mode"] for f in comp.recovery.failures],
          sorted((e, sorted(dict(c).items())) for e, c in out.items()))

out, comp = run_cluster("wordcount", (3, 2), ft=make_ft("checkpoint"), kill=(1, 0.0003))
digest(comp, out)
gen = TweetGenerator(TweetStreamConfig(num_users=200, num_hashtags=20, seed=5))
follows = [[((gen.query(), gen.query()), +1) for _ in range(400)]] + [[]] * 7
tweets = [
    [((t.user, tag), +1) for t in gen.batch(30) for tag in t.hashtags or ("#none",)]
    for _ in range(8)
]
comp = ClusterComputation(8, 1, fault_tolerance=make_ft("checkpoint"))
out = run_kexposure_epochs(
    k_exposure_incremental, tweets, follows, comp, pace=5e-3, kill=(3, 0.02)
)
digest(comp, out)
"""


def test_runs_repeat_under_every_hash_seed():
    """Placement is part of the program: the interpreter's str hash salt
    must move no virtual time, delivery, recovery or output."""
    root = Path(__file__).resolve().parents[1]
    runs = []
    for seed in ("0", "1", "168"):
        env = dict(os.environ, PYTHONHASHSEED=seed)
        env["PYTHONPATH"] = os.pathsep.join([str(root / "src"), str(root)])
        runs.append(subprocess.Popen(
            [sys.executable, "-c", _DIGEST_PROGRAM], env=env, cwd=root,
            stdout=subprocess.PIPE, text=True,
        ))
    digests = [run.communicate(timeout=120)[0] for run in runs]
    assert [run.returncode for run in runs] == [0, 0, 0]
    assert digests[0].count("partial") == 2  # both kills engaged
    assert digests[1:] == digests[:1] * 2


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
        # The subscribe stage stays outside the chain: behind a pure map
        # there is no notification for it to share.
        assert names(graph) == ["src", "fuse(select+where+select_many)", "subscribe"]
        # Stage/connector indices are re-packed after the rewrite.
        assert [s.index for s in graph.stages] == list(range(len(graph.stages)))
        assert [c.index for c in graph.connectors] == list(
            range(len(graph.connectors))
        )

    @pytest.mark.parametrize("workers", [1, 4])
    def test_sink_fuses_behind_a_notifying_operator(self, workers):
        def build(comp):
            inp = comp.new_input("src")
            Stream.from_input(inp).count_by(lambda x: x).subscribe(lambda t, r: None)

        comp, graph = fresh_graph(build)
        plan = compile_plan(graph, total_workers=workers)
        assert names(graph) == ["src", "fuse(count_by+subscribe)"]
        (fused,) = plan.fused_stages()
        assert fused.num_outputs == 0 and fused.outputs == []

        # Behind a pure map the sink shares no notification: no fusion.
        def build(comp):
            inp = comp.new_input("src")
            Stream.from_input(inp).select(lambda x: x).subscribe(lambda t, r: None)

        comp, graph = fresh_graph(build)
        plan = compile_plan(graph, total_workers=workers)
        assert plan.fused_stages() == []
        assert names(graph) == ["src", "select", "subscribe"]

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
        # select alone is a chain of one: nothing fuses across the
        # exchange, and count_by's input edge keeps its partitioner.
        # The only chain starts behind it (the subscriber shares
        # count_by's grant).
        assert names(graph) == ["src", "select", "fuse(count_by+subscribe)"]
        (exchange,) = [c for c in graph.connectors if c.partitioner is not None]
        assert (exchange.src.name, exchange.dst.name) == (
            "select",
            "fuse(count_by+subscribe)",
        )

    @pytest.mark.parametrize("workers", [1, 4])
    def test_incremental_operator_fuses_with_its_subscriber(self, workers):
        def build(comp):
            inp = comp.new_input("src")
            Collection(Stream.from_input(inp)).count_by(lambda x: x).subscribe(
                lambda t, diffs: None
            )

        comp, graph = fresh_graph(build)
        plan = compile_plan(graph, total_workers=workers)
        assert names(graph) == [
            "src",
            "fuse(inc_count+inc_subscribe.consolidate+inc_subscribe)",
        ]
        (fused,) = plan.fused_stages()
        assert not fused.opspec.preserves_partitioning

    def test_incremental_exchange_is_a_barrier(self):
        def build(comp):
            inp = comp.new_input("src")
            (
                Collection(Stream.from_input(inp))
                .distinct()
                .count_by(lambda x: x % 3)
                .subscribe(lambda t, diffs: None)
            )

        comp, graph = fresh_graph(build)
        plan = compile_plan(graph, total_workers=4)
        # distinct emits new (record, diff) tuples: nothing proves them
        # partitioned by count's key, so its exchange stays and the
        # chain starts behind it.
        assert names(graph) == [
            "src",
            "inc_distinct",
            "fuse(inc_count+inc_subscribe.consolidate+inc_subscribe)",
        ]
        assert plan.elided_exchanges() == 0
        (into_count,) = graph.stages[1].outputs[0]
        assert into_count.partitioner is not None and into_count.coalesce

    @pytest.mark.parametrize("workers", [1, 4])
    def test_incremental_join_never_fuses(self, workers):
        def build(comp):
            left = Collection(Stream.from_input(comp.new_input("left")))
            right = Collection(Stream.from_input(comp.new_input("right")))
            left.join(right, lambda r: r, lambda r: r).subscribe(lambda t, diffs: None)

        comp, graph = fresh_graph(build)
        compile_plan(graph, total_workers=workers)
        assert names(graph) == [
            "left",
            "right",
            "inc_join",
            "fuse(inc_subscribe.consolidate+inc_subscribe)",
        ]
        join = graph.stages[2]
        assert [c.coalesce for c in join.inputs] == [True, True]

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
        # chain the elision unlocked (first+where+second pipeline, and
        # the subscriber behind the notifying second distinct).
        assert exchanges[0].dst.name == "fuse(first+where+second+subscribe)"

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

    def test_kexposure_counts_where_it_deduplicated(self):
        # Each distinct is placed by the next keyed operator's key: the
        # tweets by the join's left key, the exposures by the count's.
        def build(comp):
            k_exposure_incremental(
                Collection(Stream.from_input(comp.new_input("tweets"))),
                Collection(Stream.from_input(comp.new_input("follows"))),
            ).subscribe(lambda t, diffs: None)

        comp, graph = fresh_graph(build)
        plan = compile_plan(graph, total_workers=8)
        explain = plan.explain()
        assert plan.elided_exchanges() == 2, explain
        for edge in (
            "kexposure_inc.tweets -> kexposure_inc.join",
            "kexposure_inc.distinct -> kexposure_inc.count",
        ):
            assert "elided exchange (%s): producer already partitioned" % edge in explain
        (fused,) = plan.fused_stages()
        assert fused.opspec.constituents == (
            "kexposure_inc.distinct",
            "kexposure_inc.count",
            "inc_subscribe.consolidate",
            "inc_subscribe",
        )
        assert "kept exchange" not in explain

    def test_distinct_and_count_by_different_keys_keep_their_exchange(self):
        def build(comp):
            (
                Collection(Stream.from_input(comp.new_input("src")))
                .distinct(key=_key)
                .count_by(lambda record: record[1])
                .subscribe(lambda t, diffs: None)
            )

        comp, graph = fresh_graph(build)
        plan = compile_plan(graph, total_workers=4)
        assert plan.elided_exchanges() == 0
        (kept,) = [c for c in graph.connectors if c.src.name == "inc_distinct"]
        assert kept.partitioner is not None
        # The pass says why: the producer's placement is proved, and it
        # is not the consumer's.  A note, not a rewrite.
        assert plan.results[0].rewrites == []
        assert plan.results[0].notes == [
            "kept exchange (inc_distinct -> inc_count): producer partitioned "
            "by HashPartitioner(RecordKey(_key)), consumer needs "
            "HashPartitioner(RecordKey(<lambda>)), not provably equal"
        ]
        assert plan.results[0].notes[0] in plan.explain()

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
        assert by_dst["fuse(count_by+subscribe)"] is True

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
== pass operator-fusion: 1 rewrite ==
  fused [wcc.final -> subscribe] into one stage
== pass batch-coalescing: 7 rewrites ==
  coalesce hint on (edges -> wcc.arcs)
  coalesce hint on (wcc.arcs -> wcc.ingress)
  coalesce hint on (wcc.ingress -> wcc)
  coalesce hint on (wcc -> wcc.feedback)
  coalesce hint on (wcc.feedback -> wcc)
  coalesce hint on (wcc -> wcc.egress)
  coalesce hint on (wcc.egress -> fuse(wcc.final+subscribe))
== pass plumbing-cut-through: 3 rewrites ==
  cut-through hint on (wcc.arcs -> wcc.ingress)
  cut-through hint on (wcc -> wcc.feedback)
  cut-through hint on (wcc -> wcc.egress)
== physical plan ==
7 stages, 7 connectors
  [0] edges (input)
  [1] wcc.arcs (normal)
  [2] wcc.feedback (feedback)
  [3] wcc (normal)
  [4] wcc.ingress (ingress)
  [5] wcc.egress (egress)
  [6] fuse(wcc.final+subscribe) (normal) [fused: wcc.final, subscribe]
  (0) edges -> wcc.arcs {coalesce}
  (1) wcc.arcs -> wcc.ingress {coalesce, cut-through}
  (2) wcc.ingress -> wcc {exchange, coalesce}
  (3) wcc -> wcc.feedback {coalesce, cut-through}
  (4) wcc.feedback -> wcc {exchange, coalesce}
  (5) wcc -> wcc.egress {coalesce, cut-through}
  (6) wcc.egress -> fuse(wcc.final+subscribe) {exchange, coalesce}"""


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
        for view in comp.plane.views:
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
    # "inline" or "mp" (tests/test_parallel_backend.py runs the mp leg).
    return ClusterComputation(
        num_processes=2, workers_per_process=1, backend=kind, pool_workers=2
    )


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


class FailFastChecks:
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


@pytest.mark.parametrize("kind", ["reference", "inline"])
class TestFailFast(FailFastChecks):
    pass


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
== pass operator-fusion: 2 rewrites ==
  fused [select -> where -> select_many] into one stage
  fused [count_by -> subscribe] into one stage
== pass batch-coalescing: 2 rewrites ==
  coalesce hint on (lines -> fuse(select+where+select_many))
  coalesce hint on (fuse(select+where+select_many) -> fuse(count_by+subscribe))
== pass plumbing-cut-through: 0 rewrites ==
== physical plan ==
3 stages, 2 connectors
  [0] lines (input)
  [1] fuse(select+where+select_many) (normal) [fused: select, where, select_many]
  [2] fuse(count_by+subscribe) (normal) [fused: count_by, subscribe]
  (0) lines -> fuse(select+where+select_many) {coalesce}
  (1) fuse(select+where+select_many) -> fuse(count_by+subscribe) {exchange, coalesce}"""


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
        # elides — which then unlocks fusing count_by into the chain,
        # and the subscriber behind it.
        comp = Computation(optimize=True)
        wordcount(comp)
        comp.build()
        assert comp.plan is not None
        explain = comp.plan.explain()
        assert (
            "elided exchange (select_many -> count_by): single worker" in explain
        )
        assert (
            "fused [select -> where -> select_many -> count_by -> subscribe] "
            "into one stage"
            in explain
        )
        (fused,) = comp.plan.fused_stages()
        assert fused.opspec.constituents == (
            "select",
            "where",
            "select_many",
            "count_by",
            "subscribe",
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
        assert rewrites == [0, 2, 2, 0]


# ----------------------------------------------------------------------
# FusedVertex mechanics.
# ----------------------------------------------------------------------


class _Recorder:
    """A minimal harness standing in for the runtime."""

    total_workers = 1

    def __init__(self):
        self.sent = []
        self.notified = []
        self.capabilities = []
        self.charged = 0

    def send(self, vertex, port, records, timestamp):
        self.sent.append((port, list(records), timestamp))

    def request_notification(self, vertex, timestamp, capability=True):
        self.notified.append(timestamp)
        self.capabilities.append(capability)

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
        # dispatch; the tail's fresh request ran later in the same grant.
        assert harness.notified == [t(3)]
        assert harness.sent == [(0, [3], t(3))]
        assert fused._pending == {}

    def test_upstream_rerequest_defers_downstream_completion(self):
        class EmitTwice(Vertex):
            """Completes ``t`` in two rounds, re-requesting ``t`` from
            its first on_notify after it emitted."""

            def __init__(self):
                super().__init__()
                self.rounds = 2

            def on_recv(self, input_port, records, timestamp):
                self.notify_at(timestamp)

            def on_notify(self, timestamp):
                self.rounds -= 1
                self.send_by(0, [self.rounds], timestamp)
                if self.rounds:
                    self.notify_at(timestamp)

        parts = [
            EmitTwice(),
            UnaryBufferingVertex(lambda rs: [sorted(rs)]),
            UnaryBufferingVertex(lambda rs: rs),
        ]
        fused = FusedVertex(parts, ("twice", "b", "c"))
        harness = _Recorder()
        fused._harness = harness
        fused.on_recv(0, ["go"], t(1))
        fused.on_notify(t(1))
        # "b" asked before the head re-requested, but the head holds
        # ``t`` when b's turn comes: it waits for the next grant.
        assert harness.sent == []
        assert harness.notified == [t(1), t(1)]
        fused.on_notify(t(1))
        # No re-request this time: b completes, and c, first touched by
        # b's completion, completes in the same grant.
        assert harness.sent == [(0, [[0, 1]], t(1))]
        assert harness.notified == [t(1), t(1)]
        assert fused._pending == {}

    def test_outer_request_keeps_the_constituents_kind(self):
        class Purge(Vertex):
            """Asks a cleanup at each time it receives, and a capability
            too when a record is negative; forwards its input."""

            def on_recv(self, input_port, records, timestamp):
                self.notify_at(timestamp, capability=False)
                if any(r < 0 for r in records):
                    self.notify_at(timestamp)
                self.send_by(0, records, timestamp)

            def on_notify(self, timestamp):
                pass

        parts = [Purge(), SelectVertex(lambda x: x)]
        fused = FusedVertex(parts, ("purge", "map"))
        harness = _Recorder()
        fused._harness = harness
        fused.on_recv(0, [1], t(0))
        # Cleanups only: the outer request holds no capability.
        assert harness.capabilities == [False]
        fused.on_recv(0, [2], t(0))
        assert harness.capabilities == [False]
        # A cleanup and a capability asked in one callback: one outer
        # capability, settled when the callback ends.
        fused.on_recv(0, [-1], t(1))
        assert harness.notified[1:] == [t(1)] and harness.capabilities[1:] == [True]
        # A capability after a cleanup held at the same time: both are
        # held, the capability is delivered first and runs the chain.
        fused.on_recv(0, [-2], t(0))
        assert harness.notified[2:] == [t(0)] and harness.capabilities[2:] == [True]
        fused.on_notify(t(0))
        assert t(0) not in fused._pending
        assert fused._outer == {t(0): _CLEANUP, t(1): _CAPABILITY}
        fused.on_notify(t(0))  # the cleanup: nothing left to run
        fused.on_notify(t(1))
        assert fused._pending == {} and fused._outer == {}

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
# The optimizer is the default and record lists the only payload; no
# environment variable changes either.
# ----------------------------------------------------------------------


def _run_wcc_recording_payloads():
    """4x2 WCC with every vertex's ``on_recv`` wrapped to record the
    type of each payload it receives; returns the observables."""
    from repro.workloads import uniform_random_graph

    comp = ClusterComputation(num_processes=4, workers_per_process=2, backend="inline")
    out = []
    inp = wcc(comp, out)
    comp.build()
    payloads = []
    for vertex in comp.vertices.values():
        def recording(port, records, timestamp, on_recv=vertex.on_recv):
            payloads.append(type(records))
            on_recv(port, records, timestamp)

        vertex.on_recv = recording
    inp.on_next(uniform_random_graph(80, 160, seed=3))
    inp.on_completed()
    comp.run()
    assert comp.drained(), comp.debug_state()
    return comp.plan.explain(), sorted(out), comp.now, payloads


class TestDefaultPlan:
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

    @pytest.mark.parametrize("value", [None, "0", "1"])
    def test_repro_columnar_no_longer_changes_the_payloads(self, monkeypatch, value):
        monkeypatch.delenv("REPRO_COLUMNAR", raising=False)
        expected = _run_wcc_recording_payloads()
        if value is not None:
            monkeypatch.setenv("REPRO_COLUMNAR", value)
        explain, out, now, payloads = _run_wcc_recording_payloads()
        assert (explain, out, now) == expected[:3]
        assert payloads and set(payloads) == {list}


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


def test_fused_subscriber_completes_in_its_producers_grant():
    # On a cluster, count_by and its subscriber share one notification
    # per worker and epoch; the unfused plan needs a second grant.
    def run(optimize):
        comp = ClusterComputation(
            num_processes=2, workers_per_process=2, optimize=optimize
        )
        inp = comp.new_input()
        out = []
        (
            Stream.from_input(inp)
            .count_by(lambda x: x % 7)
            .subscribe(lambda ts, recs: out.append((ts.epoch, sorted(recs))))
        )
        comp.build()
        for epoch in range(3):
            inp.on_next(list(range(epoch, 40 + epoch)))
        inp.on_completed()
        comp.run()
        assert comp.drained()
        return sorted(out), comp.delivered_notifications

    fused, fused_grants = run(True)
    unfused, unfused_grants = run(False)
    assert fused == unfused
    assert fused_grants == 4 * 3
    assert unfused_grants == 2 * fused_grants


def test_incremental_chain_subscriber_adds_no_grant():
    # On a cluster, consolidate and the subscriber complete inside the
    # incremental count's grant: the chain pays one grant per operator.
    def run(optimize, subscribe=True):
        comp = ClusterComputation(
            num_processes=2, workers_per_process=2, optimize=optimize
        )
        inp = comp.new_input()
        out = []
        counts = Collection(Stream.from_input(inp)).distinct().count_by(
            lambda x: x % 5
        )
        if subscribe:
            counts.subscribe(lambda ts, diffs: out.append((ts.epoch, sorted(diffs))))
        comp.build()
        for epoch in range(4):
            inp.on_next(
                [(x, +1) for x in range(epoch, 30 + 2 * epoch)]
                + [(x, -1) for x in range(epoch)]
            )
        inp.on_completed()
        comp.run()
        assert comp.drained()
        return sorted(out), comp.delivered_notifications

    fused, grants = run(True)
    unfused, unfused_grants = run(False)
    assert fused and fused == unfused
    assert grants < unfused_grants
    _, bare_grants = run(True, subscribe=False)
    assert grants == bare_grants


# Operators whose outputs are their input records, unchanged, and the
# incremental distinct, whose output diffs carry its input diffs' records
# on the same worker under a partitioner that reads only the record: the
# only Collection stages that may claim preserves_partitioning.
_SUBSET_OPERATORS = {"filter", "concat", "distinct"}


# One builder per public Collection method, over two input collections.
_COLLECTION_OPERATORS = {
    "from_records": lambda a, b: Collection.from_records(a.stream),
    "map": lambda a, b: a.map(lambda x: x),
    "filter": lambda a, b: a.filter(lambda x: True),
    "flat_map": lambda a, b: a.flat_map(lambda x: [x]),
    "concat": lambda a, b: a.concat(b),
    "arrange_by": lambda a, b: a.arrange_by(lambda x: x),
    "negate": lambda a, b: a.negate(),
    "distinct": lambda a, b: a.distinct(),
    "count_by": lambda a, b: a.count_by(lambda x: x),
    "reduce_by": lambda a, b: a.reduce_by(lambda x: x, lambda k, recs: recs),
    "join": lambda a, b: a.join(b, lambda x: x, lambda x: x),
    "connected_components": lambda a, b: a.connected_components(),
    "subscribe": lambda a, b: a.subscribe(lambda t, diffs: None),
    "accumulate_into": lambda a, b: a.accumulate_into({}),
}


def test_every_collection_stage_carries_an_opspec():
    """A Collection method whose stages lack an OpSpec silently drops out
    of fusion and coalescing; one that claims preserves_partitioning
    for new (record, diff) tuples would license a wrong exchange
    elision."""
    public = {
        name for name in vars(Collection) if not name.startswith("_") and name != "stream"
    }
    assert set(_COLLECTION_OPERATORS) == public
    for name, build in _COLLECTION_OPERATORS.items():
        comp = Computation(optimize=False)
        a = Collection(Stream.from_input(comp.new_input("a")))
        b = Collection(Stream.from_input(comp.new_input("b")))
        before = len(comp.graph.stages)
        build(a, b)
        added = [
            stage
            for stage in comp.graph.stages[before:]
            if stage.kind is StageKind.NORMAL
        ]
        assert added, name
        for stage in added:
            assert stage.opspec is not None, (name, stage.name)
            preserving = stage.opspec.preserves_partitioning
            assert preserving == (name in _SUBSET_OPERATORS), (name, stage.name)
