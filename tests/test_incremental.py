"""Tests for incremental collections against batch oracles.

The core property (DESIGN.md invariant 6): accumulating an incremental
operator's output diffs over all epochs equals recomputing the operator
on the accumulated input.
"""

import copy
from collections import Counter

import networkx as nx
import pytest
from hypothesis import given, settings, strategies as st

from repro import Computation, Vertex
from repro.algorithms.kexposure import k_exposure_incremental
from repro.core.timestamp import Timestamp
from repro.lib import Collection, Stream, consolidate_diffs
from repro.lib.incremental import (
    IncrementalCountVertex,
    IncrementalDistinctVertex,
    IncrementalJoinVertex,
    IncrementalReduceVertex,
    UnionFindVertex,
    WindowedConnectedComponentsVertex,
)
from repro.obs import TraceSink
from repro.opt import FusedVertex
from repro.runtime import ClusterComputation, FaultTolerance
from repro.serve.arrangement import ArrangeVertex
from repro.workloads import TweetGenerator, TweetStreamConfig


def run_collection(build, diff_epochs, cluster=False):
    comp = (
        ClusterComputation(num_processes=2, workers_per_process=2)
        if cluster
        else Computation()
    )
    inp = comp.new_input()
    live = {}
    build(Collection(Stream.from_input(inp))).accumulate_into(live)
    comp.build()
    for diffs in diff_epochs:
        inp.on_next(diffs)
    inp.on_completed()
    comp.run()
    assert comp.drained()
    return live


def accumulate_input(diff_epochs):
    acc = Counter()
    for diffs in diff_epochs:
        for record, multiplicity in diffs:
            acc[record] += multiplicity
    return +acc


# Epochs of diffs over a small record space; deletions only retract
# records that exist (multiplicities stay non-negative) for operators
# with set semantics.
records = st.integers(min_value=0, max_value=6)


@st.composite
def diff_epoch_lists(draw, elements=records, epochs=None):
    """Epochs of diffs over ``elements``, ``epochs`` of them (1-4 when
    None), each retraction taking back a record that is present."""
    if epochs is None:
        epochs = draw(st.integers(1, 4))
    lists = []
    counts = Counter()
    for _ in range(epochs):
        diffs = []
        for _ in range(draw(st.integers(0, 6))):
            record = draw(elements)
            if counts[record] > 0 and draw(st.booleans()):
                diffs.append((record, -1))
                counts[record] -= 1
            else:
                diffs.append((record, +1))
                counts[record] += 1
        lists.append(diffs)
    return lists


class TestConsolidate:
    def test_cancellation(self):
        assert consolidate_diffs([(1, +1), (1, -1), (2, +1)]) == [(2, 1)]

    def test_sums(self):
        assert dict(consolidate_diffs([(1, 1), (1, 1)])) == {1: 2}


class TestIncrementalDistinct:
    @given(diff_epoch_lists())
    @settings(max_examples=25, deadline=None)
    def test_matches_batch_distinct(self, epochs):
        live = run_collection(lambda c: c.distinct(), epochs)
        expected = {record: 1 for record in accumulate_input(epochs)}
        assert live == expected

    def test_retraction_emits_negative(self):
        live = run_collection(
            lambda c: c.distinct(), [[(5, 1)], [(5, -1)]]
        )
        assert live == {}

    def test_duplicates_suppressed(self):
        live = run_collection(lambda c: c.distinct(), [[(5, 1), (5, 1)]])
        assert live == {5: 1}


class TestIncrementalCount:
    @given(diff_epoch_lists())
    @settings(max_examples=25, deadline=None)
    def test_matches_batch_count(self, epochs):
        live = run_collection(lambda c: c.count_by(lambda r: r % 2), epochs)
        acc = accumulate_input(epochs)
        expected = Counter()
        for record, m in acc.items():
            expected[record % 2] += m
        assert live == {(k, v): 1 for k, v in expected.items() if v > 0}

    def test_cluster_matches_reference(self):
        epochs = [[(1, 1), (2, 1)], [(1, 1), (2, -1)], [(3, 1)]]
        ref = run_collection(lambda c: c.count_by(lambda r: r), epochs)
        clu = run_collection(lambda c: c.count_by(lambda r: r), epochs, cluster=True)
        assert ref == clu


class TestIncrementalReduce:
    def test_group_sum_maintained(self):
        def build(c):
            return c.reduce_by(
                lambda r: r[0], lambda k, vs: [(k, sum(v for _, v in vs))]
            )

        live = run_collection(
            build,
            [
                [(("a", 1), 1), (("a", 2), 1)],
                [(("a", 1), -1), (("b", 5), 1)],
            ],
        )
        assert live == {("a", 2): 1, ("b", 5): 1}

    def test_group_vanishes_on_empty(self):
        def build(c):
            return c.reduce_by(lambda r: r[0], lambda k, vs: [(k, len(vs))])

        live = run_collection(build, [[(("a", 1), 1)], [(("a", 1), -1)]])
        assert live == {}


class TestIncrementalJoin:
    @given(diff_epoch_lists(), diff_epoch_lists())
    @settings(max_examples=20, deadline=None)
    def test_matches_batch_join(self, left_epochs, right_epochs):
        n = max(len(left_epochs), len(right_epochs))
        left_epochs += [[]] * (n - len(left_epochs))
        right_epochs += [[]] * (n - len(right_epochs))

        comp = Computation()
        a, b = comp.new_input(), comp.new_input()
        live = {}
        ca, cb = Collection(Stream.from_input(a)), Collection(Stream.from_input(b))
        ca.join(
            cb, lambda x: x % 3, lambda y: y % 3, lambda x, y: (x, y)
        ).accumulate_into(live)
        comp.build()
        for lhs, rhs in zip(left_epochs, right_epochs):
            a.on_next(lhs)
            b.on_next(rhs)
        a.on_completed()
        b.on_completed()
        comp.run()

        left_acc = accumulate_input(left_epochs)
        right_acc = accumulate_input(right_epochs)
        expected = Counter()
        for x, mx in left_acc.items():
            for y, my in right_acc.items():
                if x % 3 == y % 3:
                    expected[(x, y)] += mx * my
        assert live == +expected


class _Scatter(Vertex):
    """Sends each ``(epoch, diffs)`` record of its input at ``epoch``, in
    input order, so a downstream join sees epochs in any order."""

    notifies = False

    def on_recv(self, input_port, records, timestamp):
        for epoch, diffs in records:
            self.send_by(0, list(diffs), Timestamp(epoch))


@st.composite
def scattered_diffs(draw):
    """``(epochs, left, right)``: per side, ``(round, epoch, diffs)``
    batches, each released in input round ``round <= epoch``."""
    epochs = draw(st.integers(1, 4))
    diffs = st.lists(
        st.tuples(st.integers(0, 5), st.sampled_from([-2, -1, 1, 2])), max_size=4
    )

    def side():
        batches = draw(st.lists(st.tuples(st.integers(0, epochs - 1), diffs), max_size=6))
        return [(draw(st.integers(0, epoch)), epoch, d) for epoch, d in batches]

    return epochs, side(), side()


def run_scattered(build, epochs, left, right, cluster=False):
    """Run ``build(left, right)`` over the scattered batches; returns the
    consolidated output diffs per epoch and the multiset of ``(epoch,
    record)`` the built operator sent."""
    comp = (
        ClusterComputation(num_processes=2, workers_per_process=2)
        if cluster
        else Computation()
    )
    inputs, streams = [], []
    for _ in range(2):
        inp = comp.new_input()
        inputs.append(inp)
        streams.append(Collection(Stream.from_input(inp)._unary("scatter", _Scatter)))
    out, sent = {}, Counter()
    built = build(*streams)
    built.stream.inspect(lambda t, diffs: sent.update((t.epoch, d) for d in diffs))
    built.subscribe(
        lambda t, diffs: out.setdefault(t.epoch, Counter()).update(dict(diffs))
    )
    comp.build()

    def release(turn):
        for inp, batches in zip(inputs, (left, right)):
            inp.on_next([(epoch, d) for r, epoch, d in batches if r == turn])
            if turn == epochs - 1:
                inp.on_completed()

    for turn in range(epochs):
        if cluster:
            comp.sim.schedule_at(turn * 1e-4, lambda turn=turn: release(turn))
        else:
            release(turn)
            comp.run()
    comp.run()
    assert comp.drained()
    return out, sent


def run_scattered_join(epochs, left, right, cluster=False):
    """Join the scattered batches (see :func:`run_scattered`)."""
    return run_scattered(
        lambda a, b: a.join(b, lambda x: x % 3, lambda y: y % 3, lambda x, y: (x, y)),
        epochs,
        left,
        right,
        cluster,
    )


def run_scattered_distinct(epochs, left, right, cluster=False):
    """Distinct over both sides' scattered batches (see
    :func:`run_scattered`)."""
    return run_scattered(lambda a, b: a.concat(b).distinct(), epochs, left, right, cluster)


def batch_fed(epochs, left, right):
    """The scattered batches all released at once, latest epoch first,
    one merged batch per epoch and side in reverse order."""
    return [
        [
            (0, epoch, [d for _, t, ds in reversed(side) if t == epoch for d in ds])
            for epoch in reversed(range(epochs))
        ]
        for side in (left, right)
    ]


def build_kexposure(comp):
    """Build k-exposure over a small tweet stream and feed it every
    follower edge; returns the tweets input and eight epochs of tweets."""
    tweets_in, followers_in = comp.new_input(), comp.new_input()
    k_exposure_incremental(
        Collection(Stream.from_input(tweets_in)),
        Collection(Stream.from_input(followers_in)),
    ).subscribe(lambda t, diffs: None)
    comp.build()
    generator = TweetGenerator(TweetStreamConfig(num_users=100, num_hashtags=10, seed=3))
    followers_in.on_next([((generator.query(), generator.query()), +1) for _ in range(300)])
    followers_in.on_completed()
    epochs = [
        [
            ((tweet.user, tag), +1)
            for tweet in generator.batch(30)
            for tag in tweet.hashtags or ("#none",)
        ]
        for _ in range(8)
    ]
    return tweets_in, epochs


class TestEagerJoin:
    """The incremental join emits as its inputs arrive, each pair at the
    later of its two times."""

    @pytest.mark.parametrize("cluster", [False, True], ids=["reference", "cluster"])
    @given(scattered_diffs())
    @settings(max_examples=30, deadline=None, derandomize=True)
    def test_output_through_each_epoch_is_the_join_so_far(self, cluster, case):
        epochs, left, right = case
        out, _ = run_scattered_join(epochs, left, right, cluster)
        produced = Counter()
        for epoch in range(epochs):
            produced.update(out.get(epoch, {}))
            a, b = Counter(), Counter()
            for acc, batches in ((a, left), (b, right)):
                for _, t, diffs in batches:
                    if t <= epoch:
                        acc.update(dict(consolidate_diffs(diffs)))
            expected = Counter()
            for x, mx in a.items():
                for y, my in b.items():
                    if x % 3 == y % 3:
                        expected[(x, y)] += mx * my
            nonzero = {k: v for k, v in produced.items() if v}
            assert nonzero == {k: v for k, v in expected.items() if v}, epoch

    @given(scattered_diffs())
    @settings(max_examples=30, deadline=None, derandomize=True)
    def test_sent_records_do_not_depend_on_the_schedule(self, case):
        # A partial rollback's replay must regenerate exactly the records
        # the survivors hold.  The same diffs fed all at once, latest
        # epoch first and merged into one batch per epoch, take the
        # deferred path instead of the eager one: the join must send the
        # same records.
        epochs, left, right = case
        _, paced = run_scattered_join(epochs, left, right)
        _, fed = run_scattered_join(epochs, *batch_fed(epochs, left, right))
        assert paced == fed

    def test_batch_fed_run_holds_one_epoch_downstream(self):
        # Every epoch is queued before the first cleanup: the join defers
        # them, so distinct never holds more than one epoch, taken or
        # deferred.
        comp = Computation()
        tweets_in, epochs = build_kexposure(comp)
        for batch in epochs:
            tweets_in.on_next(batch)
        tweets_in.on_completed()
        # On one worker the exposure distinct heads a fused stage; the
        # tweet distinct before the join is a stage of its own.
        (distinct,) = [
            part
            for (stage, _), vertex in comp.vertices.items()
            for name, part in zip(
                getattr(vertex, "names", [stage.name]), getattr(vertex, "parts", [vertex])
            )
            if name == "kexposure_inc.distinct"
        ]
        held = 0
        while comp.step():
            held = max(held, len(distinct.open) + len(distinct.deferred))
        assert comp.drained()
        assert held == 1

    def test_paced_join_takes_no_grant(self, monkeypatch):
        # One epoch per interval on 4x1: each epoch's batches arrive after
        # the previous epoch's cleanup, so neither the join nor distinct
        # (whose input carries no retraction) holds a capability for a
        # correction, and each worker pays one grant per epoch, the fused
        # count's.  The exposure distinct is the head of that fused stage,
        # so its own requests are read off the constituent.  Placed by
        # hashtag, a worker's distinct may receive nothing at an epoch; it
        # then has no cleanup there, and defers its next batch under a
        # capability (the rule the join follows): the only capabilities
        # it takes.
        requests = []
        notify_at = IncrementalDistinctVertex.notify_at

        def record(vertex, timestamp, capability=True):
            requests.append((vertex, timestamp, capability, vertex.complete))
            notify_at(vertex, timestamp, capability)

        monkeypatch.setattr(IncrementalDistinctVertex, "notify_at", record)
        comp = ClusterComputation(num_processes=4, workers_per_process=1)
        sink = TraceSink()
        comp.attach_trace_sink(sink)
        tweets_in, epochs = build_kexposure(comp)
        for epoch, batch in enumerate(epochs):

            def inject(batch=batch, last=epoch == len(epochs) - 1):
                tweets_in.on_next(batch)
                if last:
                    tweets_in.on_completed()

            comp.sim.schedule_at(epoch * 5e-3, inject)
        comp.run()
        assert comp.drained()
        kinds = Counter(e.kind for e in sink.events if e.stage == "kexposure_inc.join")
        assert kinds["notification"] == 0 and kinds["cleanup"] > 0
        (fused,) = comp.plan.fused_stages()
        assert fused.opspec.constituents[0] == "kexposure_inc.distinct"
        heads = {
            id(vertex.parts[0]): worker
            for (stage, worker), vertex in comp.vertices.items()
            if stage is fused
        }
        fed = {
            (e.worker, e.timestamp[0])
            for e in sink.events
            if e.stage == fused.name and e.kind == "activation"
        }
        asked = Counter()
        for vertex, timestamp, capability, complete in requests:
            if id(vertex) not in heads:
                continue
            asked[capability] += 1
            if capability:
                epoch = timestamp.epoch
                assert complete is None or complete.epoch < epoch - 1
                assert (heads[id(vertex)], epoch - 1) not in fed
        assert asked[False] > 0
        grants = Counter(
            (e.worker, e.timestamp) for e in sink.events if e.kind == "notification"
        )
        assert max(grants.values()) == 1


class TestEagerDistinct:
    """The incremental distinct sends ``(x, +1)`` as ``x`` first arrives
    at a time and corrects at the notification, only after a retraction
    or a negative count."""

    @pytest.mark.parametrize("cluster", [False, True], ids=["reference", "cluster"])
    @given(scattered_diffs())
    @settings(max_examples=30, deadline=None, derandomize=True)
    def test_output_through_each_epoch_is_the_distinct_so_far(self, cluster, case):
        epochs, left, right = case
        out, _ = run_scattered_distinct(epochs, left, right, cluster)
        produced, counts = Counter(), Counter()
        for epoch in range(epochs):
            produced.update(out.get(epoch, {}))
            for _, t, diffs in left + right:
                if t == epoch:
                    counts.update(dict(consolidate_diffs(diffs)))
            nonzero = {k: v for k, v in produced.items() if v}
            assert nonzero == {x: 1 for x, m in counts.items() if m > 0}, epoch

    @given(scattered_diffs())
    @settings(max_examples=60, deadline=None, derandomize=True)
    def test_sent_records_do_not_depend_on_the_schedule(self, case):
        # As for the join: the diffs paced, and fed all at once latest
        # epoch first, take the eager and the deferred paths in different
        # orders.  Retractions and negative counts put corrections in the
        # multiset; distinct must send the same records either way.
        epochs, left, right = case
        _, paced = run_scattered_distinct(epochs, left, right)
        _, fed = run_scattered_distinct(epochs, *batch_fed(epochs, left, right))
        assert paced == fed

    @given(scattered_diffs())
    @settings(max_examples=30, deadline=None, derandomize=True)
    def test_placement_key_changes_no_output(self, case):
        # Equal records have equal keys, so distinct placed by any key
        # sees each record's every diff at one worker and sends what the
        # default placement sends.
        epochs, left, right = case
        default = run_scattered_distinct(epochs, left, right, cluster=True)
        keyed = run_scattered(
            lambda a, b: a.concat(b).distinct(key=lambda x: x % 2),
            epochs,
            left,
            right,
            cluster=True,
        )
        assert keyed == default

    def test_retraction_takes_the_capability(self):
        # A retraction at epoch 1 arrives eagerly: the +1 of a fresh
        # record goes at once, and the -1 correction needs a grant.
        comp = Computation()
        inp = comp.new_input()
        sent = []
        Collection(Stream.from_input(inp)).distinct().stream.inspect(
            lambda t, diffs: sent.append((t.epoch, list(diffs)))
        )
        comp.build()
        inp.on_next([("a", 1), ("b", 1)])
        comp.run()
        (distinct,) = [
            v for v in comp.vertices.values() if isinstance(v, IncrementalDistinctVertex)
        ]
        assert distinct.held == {} and distinct.open == {}
        inp.on_next([("c", 1), ("a", -1)])
        while len(sent) < 2:
            assert comp.step()
        assert sent == [(0, [("a", 1), ("b", 1)]), (1, [("c", 1)])]
        assert list(distinct.held) == [Timestamp(1)]
        inp.on_completed()
        comp.run()
        assert comp.drained()
        assert sent[2:] == [(1, [("a", -1)])]
        assert distinct.open == {} and distinct.held == {}


def _parity(record):
    return record % 2


class TestFusedDistinct:
    """A distinct fused with the operators after it keeps its requests'
    kind: the fused stage holds a capability only where a constituent
    asked for one."""

    def test_cleanups_stay_cleanups_behind_a_map(self):
        # distinct -> map fuse; the count after them is keyed apart.  Paced
        # epochs without retractions: the distinct only ever asks cleanups,
        # so the fused stage's trace shows cleanups only.
        def run(optimize):
            comp = ClusterComputation(
                num_processes=2, workers_per_process=1, optimize=optimize
            )
            sink = TraceSink()
            comp.attach_trace_sink(sink)
            inp = comp.new_input()
            out = {}
            (
                Collection(Stream.from_input(inp))
                .distinct()
                .map(lambda x: x // 3)
                .count_by(lambda x: x % 4)
                .subscribe(
                    lambda t, diffs: out.setdefault(t.epoch, Counter()).update(dict(diffs))
                )
            )
            comp.build()
            for epoch in range(5):

                def feed(epoch=epoch):
                    inp.on_next([(x, +1) for x in range(3 * epoch, 3 * epoch + 20)])
                    if epoch == 4:
                        inp.on_completed()

                comp.sim.schedule_at(epoch * 1e-3, feed)
            comp.run()
            assert comp.drained()
            return out, comp, sink

        fused_out, comp, sink = run(None)
        unfused_out, _, _ = run(False)
        assert fused_out and fused_out == unfused_out
        (fused,) = [
            stage
            for stage in comp.plan.fused_stages()
            if stage.opspec.constituents[0] == "inc_distinct"
        ]
        assert fused.opspec.constituents == ("inc_distinct", "inc_map")
        kinds = Counter(e.kind for e in sink.events if e.stage == fused.name)
        assert kinds["cleanup"] > 0 and kinds["notification"] == 0

    def test_retractions_through_fused_distinct_and_count(self, monkeypatch):
        # Placed by the count's key, the distinct fuses with the count.
        # At epoch 1 one input repeats present records (the distinct
        # asks a cleanup and emits nothing) and, later, the other
        # retracts some (a capability): both are held at one time.
        requests = []
        notify_at = FusedVertex.notify_at

        def record(vertex, timestamp, capability=True):
            requests.append((id(vertex), timestamp, capability))
            notify_at(vertex, timestamp, capability)

        monkeypatch.setattr(FusedVertex, "notify_at", record)

        def run(optimize):
            comp = ClusterComputation(
                num_processes=2, workers_per_process=1, optimize=optimize
            )
            a, b = comp.new_input(), comp.new_input()
            out = {}
            (
                Collection(Stream.from_input(a))
                .concat(Collection(Stream.from_input(b)))
                .distinct(key=_parity)
                .count_by(_parity)
                .subscribe(
                    lambda t, diffs: out.setdefault(t.epoch, Counter()).update(dict(diffs))
                )
            )
            comp.build()
            a.on_next([(x, +1) for x in range(6)])
            b.on_next([])

            def repeat():
                a.on_next([(x, +1) for x in range(6)])
                a.on_completed()

            def retract():
                b.on_next([(0, -2), (1, -2), (2, +1)])
                b.on_completed()

            comp.sim.schedule_at(1e-3, repeat)
            comp.sim.schedule_at(2e-3, retract)
            comp.run()
            assert comp.drained()
            return {e: {k: m for k, m in c.items() if m} for e, c in out.items()}, comp

        fused_out, comp = run(None)
        unfused_out, _ = run(False)
        assert fused_out == unfused_out
        assert fused_out[1] == {(0, 3): -1, (0, 2): +1, (1, 3): -1, (1, 2): +1}
        (fused,) = comp.plan.fused_stages()
        assert fused.opspec.constituents[:2] == ("inc_distinct", "inc_count")
        at_one = {
            (vertex, capability)
            for vertex, timestamp, capability in requests
            if timestamp.epoch == 1
        }
        both = {vertex for vertex, kind in at_one if (vertex, not kind) in at_one}
        assert len(both) == 2  # on each worker


def kexposure_without_pushdown(tweets, followers):
    """k-exposure as join -> distinct -> count, with no distinct on the
    tweets before the join: the oracle for the pushdown in
    :func:`k_exposure_incremental`."""
    return (
        tweets.join(
            followers,
            lambda tweet: tweet[0],
            lambda edge: edge[1],
            lambda tweet, edge: (edge[0], tweet[1]),
        )
        .distinct()
        .count_by(lambda pair: pair[1])
    )


def run_kexposure_epochs(build, tweet_epochs, follow_epochs, comp, pace=None, kill=None):
    """Run ``build(tweets, followers)`` on ``comp``, one epoch of each
    stream per input epoch (every ``pace`` seconds of virtual time on a
    cluster, all at once when None), killing process ``kill[0]`` at
    ``kill[1]`` when given; returns the consolidated output diffs per
    epoch."""
    tweets_in, followers_in = comp.new_input(), comp.new_input()
    out = {}

    def observe(timestamp, diffs):
        acc = out.setdefault(timestamp.epoch, Counter())
        for record, multiplicity in diffs:
            acc[record] += multiplicity

    build(
        Collection(Stream.from_input(tweets_in)),
        Collection(Stream.from_input(followers_in)),
    ).subscribe(observe)
    comp.build()
    if kill is not None:
        comp.kill_process(*kill)
    last = len(tweet_epochs) - 1

    def release(epoch):
        tweets_in.on_next(tweet_epochs[epoch])
        followers_in.on_next(follow_epochs[epoch])
        if epoch == last:
            tweets_in.on_completed()
            followers_in.on_completed()

    for epoch in range(last + 1):
        if pace is None:
            release(epoch)
        else:
            comp.sim.schedule_at(epoch * pace, lambda epoch=epoch: release(epoch))
    comp.run()
    assert comp.drained(), comp.debug_state()
    return {
        epoch: {record: m for record, m in acc.items() if m}
        for epoch, acc in out.items()
    }


@st.composite
def tweet_and_follow_epochs(draw):
    """Tweet and follow streams over a few users, with repeats and valid
    retractions, the same number of epochs each."""
    epochs = draw(st.integers(1, 4))
    users = st.integers(0, 3)
    tweets = draw(diff_epoch_lists(st.tuples(users, st.sampled_from("ab")), epochs))
    follows = draw(diff_epoch_lists(st.tuples(users, users), epochs))
    return tweets, follows


class TestKExposurePushdown:
    """k-exposure drops repeated tweets before the join; with valid
    retractions its output is the unpushed pipeline's."""

    @pytest.mark.parametrize("cluster", [False, True], ids=["reference", "cluster"])
    @given(tweet_and_follow_epochs())
    @settings(max_examples=30, deadline=None, derandomize=True)
    def test_output_is_the_unpushed_pipelines(self, cluster, case):
        tweets, follows = case

        def run(build):
            if cluster:
                comp = ClusterComputation(num_processes=2, workers_per_process=2)
                return run_kexposure_epochs(build, tweets, follows, comp, pace=1e-4)
            return run_kexposure_epochs(build, tweets, follows, Computation())

        expected = run(kexposure_without_pushdown)
        assert run(k_exposure_incremental) == expected
        if cluster:
            # The unrewritten plan, with every exchange and no fused
            # stage, recovering from a kill mid-stream.
            comp = ClusterComputation(
                num_processes=2,
                workers_per_process=2,
                optimize=False,
                fault_tolerance=FaultTolerance(
                    mode="checkpoint",
                    checkpoint_every=1,
                    state_bytes_per_worker=1 << 20,
                    disk_bandwidth=200e6,
                ),
            )
            killed = run_kexposure_epochs(
                k_exposure_incremental, tweets, follows, comp, pace=1e-4,
                kill=(1, 1.5e-4),
            )
            assert killed == expected
            assert len(comp.recovery.failures) == 1

    @pytest.mark.parametrize("cluster", [False, True], ids=["reference", "cluster"])
    def test_join_takes_each_repeated_tweet_once(self, cluster):
        # One tweet repeated within and across epochs reaches the join
        # once: the join emits one exposure per (tweet, follower) pair.
        comp = (
            ClusterComputation(num_processes=2, workers_per_process=2)
            if cluster
            else Computation()
        )
        tweets_in, followers_in = comp.new_input(), comp.new_input()
        k_exposure_incremental(
            Collection(Stream.from_input(tweets_in)),
            Collection(Stream.from_input(followers_in)),
        ).subscribe(lambda t, diffs: None)
        (join,) = [s for s in comp.graph.stages if s.name == "kexposure_inc.join"]
        joined = []
        Stream(comp, join, 0).inspect(lambda t, diffs: joined.extend(diffs))
        comp.build()
        followers_in.on_next([(("f1", "u"), +1), (("f2", "u"), +1), (("f3", "v"), +1)])
        followers_in.on_completed()
        for _ in range(4):
            tweets_in.on_next([(("u", "#a"), +1), (("u", "#a"), +1)])
        tweets_in.on_next([(("u", "#a"), +1), (("v", "#a"), +1)])
        tweets_in.on_completed()
        comp.run()
        assert comp.drained()
        assert Counter(joined) == {
            (("f1", "#a"), +1): 1,
            (("f2", "#a"), +1): 1,
            (("f3", "#a"), +1): 1,
        }


class TestLinearOperators:
    def test_map_carries_diffs(self):
        live = run_collection(
            lambda c: c.map(lambda r: r * 10), [[(1, 1), (2, -1)], [(2, 1)]]
        )
        assert live == {10: 1}

    def test_filter(self):
        live = run_collection(
            lambda c: c.filter(lambda r: r % 2 == 0), [[(1, 1), (2, 1)]]
        )
        assert live == {2: 1}

    def test_flat_map(self):
        live = run_collection(
            lambda c: c.flat_map(lambda r: [r, r + 100]), [[(1, 1)]]
        )
        assert live == {1: 1, 101: 1}

    def test_concat_and_negate(self):
        comp = Computation()
        a, b = comp.new_input(), comp.new_input()
        live = {}
        ca, cb = Collection(Stream.from_input(a)), Collection(Stream.from_input(b))
        ca.concat(cb.negate()).accumulate_into(live)
        comp.build()
        a.on_next([(1, 1), (2, 1)])
        b.on_next([(2, 1)])
        a.on_completed()
        b.on_completed()
        comp.run()
        assert live == {1: 1}


class TestUnionFind:
    @given(
        st.lists(
            st.tuples(st.integers(0, 10), st.integers(0, 10)),
            min_size=1,
            max_size=20,
        ),
        st.integers(1, 4),
    )
    @settings(max_examples=25, deadline=None)
    def test_matches_networkx_components(self, edges, num_epochs):
        chunks = [edges[i::num_epochs] for i in range(num_epochs)]
        live = run_collection(
            lambda c: c.connected_components(),
            [[(e, 1) for e in chunk] for chunk in chunks],
        )
        g = nx.Graph(edges)
        expected = {}
        for component in nx.connected_components(g):
            label = min(component)
            for node in component:
                expected[(node, label)] = 1
        assert live == expected

    def test_deletion_rejected(self):
        with pytest.raises(ValueError):
            run_collection(
                lambda c: c.connected_components(), [[((1, 2), -1)]]
            )

    def test_windowed_cc_matches_networkx_with_deletions(self):
        # Sliding window: edges enter and leave; the live labels must
        # always equal a batch recomputation over the surviving edges.
        window = [
            [((1, 2), 1), ((3, 4), 1)],
            [((2, 3), 1)],           # merge everything
            [((2, 3), -1)],          # split again
            [((1, 2), -1), ((5, 1), 1)],
        ]
        comp = Computation()
        inp = comp.new_input()
        live = {}
        Collection(Stream.from_input(inp)).connected_components(
            allow_deletions=True
        ).accumulate_into(live)
        comp.build()
        edges = Counter()
        for diffs in window:
            inp.on_next(diffs)
            comp.run()
            for edge, m in diffs:
                edges[edge] += m
            g = nx.Graph(list(+edges))
            expected = {}
            for component in nx.connected_components(g):
                label = min(component)
                for node in component:
                    expected[(node, label)] = 1
            assert live == expected, (diffs, live, expected)
        inp.on_completed()
        comp.run()
        assert comp.drained()

    @given(
        st.lists(
            st.tuples(st.integers(0, 8), st.integers(0, 8)), min_size=1, max_size=16
        ),
        st.integers(0, 100),
    )
    @settings(max_examples=20, deadline=None)
    def test_windowed_cc_random_add_remove(self, edge_pool, seed):
        import random

        rng = random.Random(seed)
        comp = Computation()
        inp = comp.new_input()
        live = {}
        Collection(Stream.from_input(inp)).connected_components(
            allow_deletions=True
        ).accumulate_into(live)
        comp.build()
        present = Counter()
        for _ in range(4):
            diffs = []
            for edge in edge_pool:
                if present[edge] and rng.random() < 0.4:
                    diffs.append((edge, -1))
                    present[edge] -= 1
                elif rng.random() < 0.5:
                    diffs.append((edge, 1))
                    present[edge] += 1
            inp.on_next(diffs)
        inp.on_completed()
        comp.run()
        assert comp.drained()
        g = nx.Graph(list(+present))
        expected = {}
        for component in nx.connected_components(g):
            label = min(component)
            for node in component:
                expected[(node, label)] = 1
        assert live == expected

    def test_windowed_cc_over_retraction_raises(self):
        with pytest.raises(ValueError):
            run_collection(
                lambda c: c.connected_components(allow_deletions=True),
                [[((1, 2), -1)]],
            )

    def test_incremental_merging_emits_relabels(self):
        comp = Computation()
        inp = comp.new_input()
        per_epoch = {}
        Collection(Stream.from_input(inp)).connected_components().subscribe(
            lambda t, diffs: per_epoch.setdefault(t.epoch, []).extend(diffs)
        )
        comp.build()
        inp.on_next([((5, 6), 1)])
        inp.on_next([((1, 5), 1)])
        inp.on_completed()
        comp.run()
        assert sorted(per_epoch[0]) == [((5, 5), 1), ((6, 5), 1)]
        # Epoch 1: node 1 appears, and 5/6 relabel from 5 to 1.
        assert dict(per_epoch[1]) == {
            (1, 1): 1,
            (5, 5): -1,
            (5, 1): 1,
            (6, 5): -1,
            (6, 1): 1,
        }


# ----------------------------------------------------------------------
# One vertex driven epoch by epoch, outside any runtime.
# ----------------------------------------------------------------------


class _Recorder:
    """A stand-in harness that records what the vertex sends."""

    def __init__(self):
        self.sent = []

    def send(self, vertex, output_port, records, timestamp):
        self.sent.append((timestamp.epoch, list(records)))

    def request_notification(self, vertex, timestamp, capability):
        pass

    @property
    def computation(self):
        # Stands in for the computation too (the publish hook below).
        return self

    def _arrangement_published(self, name, epoch):
        pass


def drive(vertex, epochs):
    """Feed ``epochs`` (per epoch, one diff list per input port) through
    ``on_recv``/``on_notify``; return each epoch's output, unsorted."""
    vertex._harness = _Recorder()
    for epoch, ports in enumerate(epochs):
        timestamp = Timestamp(epoch, ())
        for port, diffs in enumerate(ports):
            if diffs:
                vertex.on_recv(port, list(diffs), timestamp)
        vertex.on_notify(timestamp)
    out = [[] for _ in epochs]
    for epoch, records in vertex._harness.sent:
        out[epoch].extend(records)
    return out


def _join():
    return IncrementalJoinVertex(
        lambda lhs: lhs[0], lambda rhs: rhs[0], lambda lhs, rhs: (lhs[1], rhs[1])
    )


JOIN_EPOCHS = [
    (
        [(("a", 1), 1), (("b", 2), 1), (("a", 3), 1)],
        [(("a", "x"), 1), (("b", "y"), 1), (("c", "z"), 1)],
    ),
    ([(("a", 1), -1), (("c", 4), 1)], [(("b", "y"), -1), (("a", "w"), 1)]),
    (
        [(("a", 3), -1), (("c", 4), -1), (("b", 5), 1)],
        [(("a", "x"), -1), (("b", "v"), 1), (("c", "z"), -1)],
    ),
]
COUNT_EPOCHS = [
    ([(("u1", "t1"), 1), (("u2", "t1"), 1), (("u1", "t2"), 1)],),
    ([(("u2", "t1"), -1), (("u3", "t3"), 1), (("u1", "t1"), -1), (("u1", "t3"), 1)],),
    ([(("u1", "t2"), -1), (("u1", "t3"), -1), (("u3", "t3"), 1)],),
]
DISTINCT_EPOCHS = [
    ([("b", 1), ("a", 1), ("b", 1)],),
    ([("a", -1), ("c", 1), ("b", -1)],),
    ([("b", -1), ("a", 1), ("c", 1)],),
]
# Epoch 2 retracts (1, 5): a rebuild epoch.
WCC_EPOCHS = [
    ([((5, 6), 1), ((1, 5), 1), ((7, 8), 1), ((2, 3), 1)],),
    ([((3, 4), 1), ((8, 1), 1)],),
    ([((1, 5), -1), ((3, 4), 1), ((2, 7), 1)],),
    ([((9, 2), 1)],),
]

#: name -> (vertex factory, input epochs, exact per-epoch output).
ORDER_CASES = {
    # A set of {1, 8} iterates 8 first; the output must follow the
    # input, not the hash table.
    "reduce": (
        lambda: IncrementalReduceVertex(key=lambda r: r, reducer=lambda k, rs: [k]),
        [([(1, 1), (8, 1)],)],
        [[(1, 1), (8, 1)]],
    ),
    "count": (
        lambda: IncrementalCountVertex(lambda r: r[0]),
        COUNT_EPOCHS,
        [
            [(("u1", 2), 1), (("u2", 1), 1)],
            [(("u2", 1), -1), (("u3", 1), 1)],
            [(("u1", 2), -1), (("u3", 1), -1), (("u3", 2), 1)],
        ],
    ),
    # Eager: a fresh record's +1 as it arrives, then the notification's
    # corrections in first-touch order.
    "distinct": (
        IncrementalDistinctVertex,
        DISTINCT_EPOCHS,
        [[("b", 1), ("a", 1)], [("c", 1), ("a", -1)], [("a", 1), ("b", -1)]],
    ),
    # Eager, in arrival order: each diff's pairs as it arrives (dA, then
    # dB against A and dA), one record per pair, never consolidated.
    "join": (
        _join,
        JOIN_EPOCHS,
        [
            [((1, "x"), 1), ((3, "x"), 1), ((2, "y"), 1)],
            [
                ((1, "x"), -1),
                ((4, "z"), 1),
                ((2, "y"), -1),
                ((1, "w"), 1),
                ((3, "w"), 1),
                ((1, "w"), -1),
            ],
            [
                ((3, "x"), -1),
                ((3, "w"), -1),
                ((4, "z"), -1),
                ((3, "x"), -1),
                ((3, "x"), 1),
                ((2, "v"), 1),
                ((5, "v"), 1),
                ((4, "z"), -1),
                ((4, "z"), 1),
            ],
        ],
    ),
    # The retraction epoch retracts old labels, then asserts new ones.
    "windowed_cc": (
        WindowedConnectedComponentsVertex,
        WCC_EPOCHS,
        [
            [
                ((1, 1), 1),
                ((5, 1), 1),
                ((6, 1), 1),
                ((7, 7), 1),
                ((8, 7), 1),
                ((2, 2), 1),
                ((3, 2), 1),
            ],
            [((4, 2), 1), ((7, 7), -1), ((7, 1), 1), ((8, 7), -1), ((8, 1), 1)],
            [
                ((5, 1), -1),
                ((6, 1), -1),
                ((2, 2), -1),
                ((3, 2), -1),
                ((4, 2), -1),
                ((5, 5), 1),
                ((6, 5), 1),
                ((2, 1), 1),
                ((3, 1), 1),
                ((4, 1), 1),
            ],
            [((9, 1), 1)],
        ],
    ),
}


@pytest.mark.parametrize("case", sorted(ORDER_CASES))
def test_changed_groups_emitted_in_first_touch_order(case):
    factory, epochs, expected = ORDER_CASES[case]
    assert drive(factory(), epochs) == expected


#: name -> (vertex factory, input epochs) for the snapshot check.
SNAPSHOT_CASES = {
    "distinct": (IncrementalDistinctVertex, DISTINCT_EPOCHS),
    "count": (lambda: IncrementalCountVertex(lambda r: r[0]), COUNT_EPOCHS),
    "reduce": (
        lambda: IncrementalReduceVertex(lambda r: r[0], lambda k, rs: [(k, len(rs))]),
        COUNT_EPOCHS,
    ),
    "join": (_join, JOIN_EPOCHS),
    "union_find": (UnionFindVertex, WCC_EPOCHS[:2]),
    "windowed_cc": (WindowedConnectedComponentsVertex, WCC_EPOCHS),
    "arrange": (lambda: ArrangeVertex("arr", lambda r: r[0], retain=1), COUNT_EPOCHS),
}


@pytest.mark.parametrize("case", sorted(SNAPSHOT_CASES))
def test_checkpoint_never_falls_back_to_deepcopy(case, monkeypatch):
    # Incremental state is plain dicts and lists, which snapshot_copy
    # copies itself; deepcopy would cost every checkpoint a full walk.
    factory, epochs = SNAPSHOT_CASES[case]
    vertex = factory()
    drive(vertex, epochs)

    def refuse(obj, memo=None):
        raise AssertionError("snapshot fell back to deepcopy for %r" % (obj,))

    def plain(state):
        # The arrangement compares by its attributes.
        return {key: getattr(value, "__dict__", value) for key, value in state.items()}

    monkeypatch.setattr(copy, "deepcopy", refuse)
    state = vertex.checkpoint()
    vertex.restore(state)
    assert plain(vertex.checkpoint()) == plain(state)

