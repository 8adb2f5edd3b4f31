"""Integration tests for the simulated distributed runtime.

The two load-bearing invariants (DESIGN.md items 4 and 5):

- **Runtime equivalence**: any program produces the same per-epoch
  multiset of outputs on the reference runtime and on the cluster, for
  any process/worker count and protocol mode.
- **Notification safety, distributed**: per (stage, worker) vertex, no
  on_recv at t' <= t ever follows on_notify(t), even with packet loss,
  GC pauses and accumulators delaying progress updates arbitrarily.
"""

from collections import Counter

import pytest

from repro import Computation, Timestamp, Vertex
from repro.lib import Stream
from repro.runtime import (
    ClusterComputation,
    CostModel,
    FaultTolerance,
    SyntheticRecords,
)
from repro.sim import NetworkConfig

MODES = ["none", "local", "global", "local+global"]


def wordcount_program(comp):
    inp = comp.new_input("lines")
    out = []
    (
        Stream.from_input(inp)
        .select_many(str.split)
        .count_by(lambda w: w)
        .subscribe(lambda t, recs: out.extend((t.epoch, r) for r in recs))
    )
    return inp, out


WORDCOUNT_EPOCHS = [
    ["a b a c", "d d"],
    ["b b b"],
    [],
    ["a c d e f g"],
]


def iterate_program(comp):
    inp = comp.new_input()
    out = []
    (
        Stream.from_input(inp)
        .iterate(
            lambda s: s.select(lambda x: x - 1).where(lambda x: x > 0),
            partitioner=lambda x: x,
        )
        .subscribe(lambda t, recs: out.extend((t.epoch, r) for r in recs))
    )
    return inp, out


ITERATE_EPOCHS = [list(range(8)), [3, 3, 12]]


def run_reference(program, epochs):
    comp = Computation()
    inp, out = program(comp)
    comp.build()
    for epoch in epochs:
        inp.on_next(epoch)
    inp.on_completed()
    comp.run()
    assert comp.drained()
    return Counter(out)


def run_cluster(program, epochs, **kwargs):
    comp = ClusterComputation(**kwargs)
    inp, out = program(comp)
    comp.build()
    for epoch in epochs:
        inp.on_next(epoch)
    inp.on_completed()
    comp.run()
    assert comp.drained(), comp.debug_state()
    return Counter(out), comp


class TestRuntimeEquivalence:
    @pytest.mark.parametrize("mode", MODES)
    def test_wordcount_matches_reference(self, mode):
        expected = run_reference(wordcount_program, WORDCOUNT_EPOCHS)
        actual, _ = run_cluster(
            wordcount_program,
            WORDCOUNT_EPOCHS,
            num_processes=3,
            workers_per_process=2,
            progress_mode=mode,
        )
        assert actual == expected

    @pytest.mark.parametrize("mode", MODES)
    def test_iteration_matches_reference(self, mode):
        expected = run_reference(iterate_program, ITERATE_EPOCHS)
        actual, _ = run_cluster(
            iterate_program,
            ITERATE_EPOCHS,
            num_processes=2,
            workers_per_process=2,
            progress_mode=mode,
        )
        assert actual == expected

    @pytest.mark.parametrize("procs,workers", [(1, 1), (1, 4), (4, 1), (8, 2)])
    def test_any_cluster_shape(self, procs, workers):
        expected = run_reference(wordcount_program, WORDCOUNT_EPOCHS)
        actual, _ = run_cluster(
            wordcount_program,
            WORDCOUNT_EPOCHS,
            num_processes=procs,
            workers_per_process=workers,
        )
        assert actual == expected

    def test_equivalence_under_stragglers(self):
        expected = run_reference(iterate_program, ITERATE_EPOCHS)
        actual, _ = run_cluster(
            iterate_program,
            ITERATE_EPOCHS,
            num_processes=4,
            workers_per_process=2,
            network=NetworkConfig(
                packet_loss_probability=0.2,
                gc_interval=5e-4,
                gc_pause=1e-3,
                nagle_delay=0.0,
            ),
            seed=3,
        )
        assert actual == expected

    def test_equivalence_with_logging_and_checkpoints(self):
        expected = run_reference(wordcount_program, WORDCOUNT_EPOCHS)
        for mode in ["logging", "checkpoint"]:
            actual, _ = run_cluster(
                wordcount_program,
                WORDCOUNT_EPOCHS,
                num_processes=2,
                workers_per_process=2,
                fault_tolerance=FaultTolerance(mode=mode, checkpoint_every=2),
            )
            assert actual == expected


class RecordingVertex(Vertex):
    """Buffers per time and logs callback order for safety checking."""

    def __init__(self, log):
        super().__init__()
        self.log = log
        self.requested = set()

    def on_recv(self, port, records, t):
        self.log.append(("recv", self.stage.name, self.worker, t))
        if t not in self.requested:
            self.requested.add(t)
            self.notify_at(t)
        self.send_by(0, [r + 1 for r in records if r < 3], t)

    def on_notify(self, t):
        self.log.append(("notify", self.stage.name, self.worker, t))


def assert_distributed_notification_safety(log):
    notified = {}
    for kind, stage, worker, t in log:
        key = (stage, worker)
        if kind == "notify":
            notified.setdefault(key, []).append(t)
        else:
            for earlier in notified.get(key, ()):
                assert not (
                    t.depth == earlier.depth and t.less_equal(earlier)
                ), "on_recv(%r) after on_notify(%r) at %r" % (t, earlier, key)


class TestDistributedNotificationSafety:
    @pytest.mark.parametrize("mode", MODES)
    def test_chain_with_hostile_network(self, mode):
        comp = ClusterComputation(
            num_processes=3,
            workers_per_process=2,
            progress_mode=mode,
            network=NetworkConfig(
                packet_loss_probability=0.3,
                retransmit_timeout=5e-3,
                gc_interval=1e-3,
                gc_pause=2e-3,
            ),
            seed=11,
        )
        inp = comp.new_input()
        log = []
        s = Stream.from_input(inp)
        for i in range(3):
            stage = comp.graph.new_stage(
                "rec%d" % i,
                lambda stage, worker: RecordingVertex(log),
                1,
                1,
            )
            s.connect_to(stage, 0, partitioner=lambda r: r * 31 + 7)
            s = Stream(comp, stage, 0)
        comp.build()
        for epoch in range(4):
            inp.on_next(list(range(5)))
        inp.on_completed()
        comp.run()
        assert comp.drained(), comp.debug_state()
        assert_distributed_notification_safety(log)
        # Every (stage, worker) that received data was notified.
        recv_keys = {(s_, w) for k, s_, w, _ in log if k == "recv"}
        notify_keys = {(s_, w) for k, s_, w, _ in log if k == "notify"}
        assert recv_keys == notify_keys

    def test_loop_safety_under_loss(self):
        comp = ClusterComputation(
            num_processes=2,
            workers_per_process=2,
            progress_mode="local+global",
            network=NetworkConfig(packet_loss_probability=0.25, retransmit_timeout=2e-3),
            seed=5,
        )
        inp = comp.new_input()
        log = []

        def body(stream):
            stage = comp.graph.new_stage(
                "body-rec",
                lambda stage, worker: RecordingVertex(log),
                1,
                1,
                context=stream.context,
            )
            stream.connect_to(stage, 0, partitioner=lambda r: r)
            return Stream(comp, stage, 0).where(lambda x: x < 3)

        Stream.from_input(inp).iterate(body, partitioner=lambda x: x)
        comp.build()
        inp.on_next([0, 1, 2])
        inp.on_completed()
        comp.run()
        assert comp.drained(), comp.debug_state()
        assert_distributed_notification_safety(log)


class TestPartitioning:
    def test_keys_are_colocated(self):
        comp = ClusterComputation(num_processes=2, workers_per_process=2)
        inp = comp.new_input()
        owners = {}

        def reducer(key, values):
            return [(key, len(values))]

        seen_by_worker = []

        class Probe(RecordingVertex):
            def __init__(self):
                Vertex.__init__(self)
                self.seen = {}

            def on_recv(self, port, records, t):
                for key, _ in records:
                    seen_by_worker.append((key, self.worker))

        stream = Stream.from_input(inp).count_by(lambda r: r)
        stage = comp.graph.new_stage("probe", lambda s, w: Probe(), 1, 0)
        stream.connect_to(stage, 0)
        comp.build()
        inp.on_next([1, 2, 3, 4] * 5)
        inp.on_completed()
        comp.run()
        for key, worker in seen_by_worker:
            owners.setdefault(key, set()).add(worker)
        # count_by produced exactly one record per key (one owner each).
        assert all(len(ws) == 1 for ws in owners.values())

    def test_synthetic_records_routing(self):
        comp = ClusterComputation(num_processes=2, workers_per_process=2)
        inp = comp.new_input()
        received = []

        class Sink(Vertex):
            def on_recv(self, port, records, t):
                for r in records:
                    received.append((r.dest, self.worker))

        stage = comp.graph.new_stage("sink", lambda s, w: Sink(), 1, 0)
        Stream.from_input(inp).connect_to(stage, 0, partitioner=lambda b: b.dest)
        comp.build()
        inp.on_next([SyntheticRecords(1000, dest=d) for d in range(4)])
        inp.on_completed()
        comp.run()
        assert sorted(received) == [(0, 0), (1, 1), (2, 2), (3, 3)]


class TestVirtualTime:
    def test_time_advances_with_work(self):
        _, comp = run_cluster(
            wordcount_program,
            WORDCOUNT_EPOCHS,
            num_processes=2,
            workers_per_process=2,
        )
        assert comp.now > 0

    def test_more_data_takes_longer(self):
        small = [["a b"] * 2]
        large = [["a b"] * 500]
        _, comp_small = run_cluster(
            wordcount_program, small, num_processes=2, workers_per_process=2
        )
        _, comp_large = run_cluster(
            wordcount_program, large, num_processes=2, workers_per_process=2
        )
        assert comp_large.now > comp_small.now

    def test_progress_traffic_reduced_by_accumulation(self):
        results = {}
        for mode in ["none", "local"]:
            _, comp = run_cluster(
                iterate_program,
                [list(range(20))],
                num_processes=4,
                workers_per_process=2,
                progress_mode=mode,
            )
            results[mode] = comp.network.stats.bytes("progress")
        assert results["local"] < results["none"] / 2


def count_mod7_program(comp, completion=None):
    inp = comp.new_input()
    out = []

    def observe(t, recs):
        out.extend((t.epoch, r) for r in recs)
        if completion is not None:
            completion.setdefault(t.epoch, comp.now)

    Stream.from_input(inp).count_by(lambda x: x % 7).subscribe(observe)
    return inp, out


class TestFifoScheduling:
    """Workers take queued messages first-in first-out (section 3.2's
    default, and the only policy).  Feeding every epoch before the run
    starts leaves queues holding a mix of epochs."""

    EPOCHS = [list(range(i, i + 40)) for i in range(5)]

    def test_mixed_epoch_backlog_matches_reference(self):
        expected = run_reference(count_mod7_program, self.EPOCHS)
        actual, _ = run_cluster(
            count_mod7_program, self.EPOCHS, num_processes=2, workers_per_process=1
        )
        assert actual == expected

    def test_epochs_complete_in_order(self):
        completion = {}
        run_cluster(
            lambda comp: count_mod7_program(comp, completion),
            self.EPOCHS,
            num_processes=2,
            workers_per_process=1,
        )
        assert sorted(completion) == list(range(len(self.EPOCHS)))
        times = [completion[e] for e in sorted(completion)]
        assert times == sorted(times)


class TestReceiverSideCoalescing:
    def test_adjacent_deliveries_merge_into_one_list(self):
        # Four workers' shares fan in to worker 0 on a connector hinted
        # coalescible.  Worker 0 takes its own share first; while that
        # callback runs the other three queue up, and reach the next
        # callback as one record list holding every part, in queue order
        # (the same-process share, then the two remote ones).
        comp = ClusterComputation(
            num_processes=2,
            workers_per_process=2,
            optimize=False,
            cost_model=CostModel(per_record_cost=1e-4),
        )
        inp = comp.new_input()
        deliveries = []

        class Sink(Vertex):
            notifies = False

            def on_recv(self, port, records, t):
                deliveries.append(records)

        stage = comp.graph.new_stage("sink", lambda s, w: Sink(), 1, 0)
        spread = Stream.from_input(inp).select(lambda x: x)
        comp.connect(spread.stage, stage, partitioner=lambda r: 0).coalesce = True
        comp.build()
        records = list(range(40))
        inp.on_next(records)
        inp.on_completed()
        comp.run()
        assert comp.drained(), comp.debug_state()
        assert comp.coalesced_batches == 2
        assert deliveries == [
            records[0::4],
            records[1::4] + records[2::4] + records[3::4],
        ]
        assert all(type(part) is list for part in deliveries)

    @staticmethod
    def _interleaved(comp):
        # One callback leaves the worker's queue holding A@t, B@t, A@t,
        # A@t', where A is hinted coalescible and B is not.
        inp = comp.new_input()
        deliveries = []

        class Source(Vertex):
            notifies = False

            def on_recv(self, port, records, t):
                self.send_by(0, [1, 2], t)
                self.send_by(1, ["b"], t)
                self.send_by(0, [3], t)
                self.send_by(0, [4], Timestamp(t.epoch + 1))

        class Sink(Vertex):
            notifies = False

            def on_recv(self, port, records, t):
                deliveries.append((port, list(records), t.epoch))

        source = comp.graph.new_stage("source", lambda s, w: Source(), 1, 2)
        sink = comp.graph.new_stage("sink", lambda s, w: Sink(), 2, 0)
        comp.connect(inp.stage, source)
        comp.connect(source, sink, 0, 0).coalesce = True
        comp.connect(source, sink, 1, 1)
        comp.build()
        inp.on_next([0])
        inp.on_completed()
        comp.run()
        return deliveries

    @pytest.mark.parametrize("runtime", ["reference", "cluster"])
    def test_every_queued_entry_of_a_key_merges_in_queue_order(self, runtime):
        if runtime == "reference":
            comp = Computation(optimize=False)
        else:
            comp = ClusterComputation(num_processes=1, workers_per_process=1, optimize=False)
        deliveries = self._interleaved(comp)
        # Both A@t entries reach one callback, ahead of B@t; B and A@t'
        # each get their own.
        assert deliveries == [(0, [1, 2, 3], 0), (1, ["b"], 0), (0, [4], 1)]
        assert comp.coalesced_batches == 1
        assert comp.drained()
        views = comp.plane.views if runtime == "cluster" else [comp.progress]
        for view in views:
            assert all(count >= 0 for count in view.occurrence.values())
            assert not any(view.occurrence.values())
        assert not any(worker.queued_keys for worker in comp.workers)


class DoubleSendVertex(Vertex):
    """Sends its input in two halves to the same output connector from
    one callback — the shape whose per-message network accounting the
    sender-side merge fixes."""

    notifies = False

    def on_recv(self, input_port, records, timestamp):
        half = len(records) // 2
        self.send_by(0, records[:half], timestamp)
        self.send_by(0, records[half:], timestamp)


class PerRecordSendVertex(Vertex):
    """One send per record, with a notification request in between."""

    def on_recv(self, input_port, records, timestamp):
        for position, record in enumerate(records):
            self.send_by(0, [record], timestamp)
            if position == 0:
                self.notify_at(timestamp)


class TestSenderSideBatchAccounting:
    """A callback's repeat sends to one coalesced destination must be
    charged per-message wire overhead once, not per constituent send.

    The receiver merges queued same-(connector, timestamp)
    deliveries; before the sender-side merge, each constituent still
    paid its own ``per_message_bytes`` and occurrence round trip.  The
    plan below routes 8 records through a double-sending stage into a
    remote ``count_by`` (batchable, so the optimizer hints its input
    connector coalescible): unmerged that is 2 wire messages of 4
    records (2 * (4*8 + 64) = 192 bytes), merged exactly one
    (8*8 + 64 = 128 bytes).
    """

    RECORDS = list(range(8))

    def _run(self, optimize):
        comp = ClusterComputation(
            num_processes=2, workers_per_process=2, optimize=optimize
        )
        inp = comp.new_input()
        stage = comp.graph.new_stage(
            "double", lambda s, w: DoubleSendVertex(), 1, 1
        )
        # Pin the sender to worker 0 (process 0) and the counter to
        # worker 2 (process 1) so the merged batch crosses the network.
        Stream.from_input(inp).connect_to(stage, 0, partitioner=lambda r: 0)
        out = {}
        Stream(comp, stage, 0).count_by(lambda r: 2).subscribe(
            lambda t, recs: out.setdefault(t.epoch, sorted(recs))
        )
        comp.build()
        inp.on_next(self.RECORDS)
        inp.on_completed()
        comp.run()
        assert comp.drained(), comp.debug_state()
        return out, comp

    def test_coalesced_batch_charged_one_message(self):
        out, comp = self._run(optimize=True)
        assert out == {0: [(2, len(self.RECORDS))]}
        assert comp.sender_merged_dispatches == 1
        assert comp.network.stats.messages("data") == 1
        assert comp.network.stats.bytes("data") == 128

    def test_per_record_sends_merge_as_they_are_sent(self):
        # n sends merge into one dispatch carrying one occurrence, in
        # O(1) per send (a post-pass with a list.remove() per merge made
        # this quadratic): the +1 is the first send's, the later ones
        # are never recorded.
        records = list(range(300))
        comp = ClusterComputation(num_processes=1, workers_per_process=1)
        inp = comp.new_input()
        stage = comp.graph.new_stage("each", lambda s, w: PerRecordSendVertex(), 1, 1)
        Stream.from_input(inp).connect_to(stage, 0)
        out = []
        Stream(comp, stage, 0).count_by(lambda r: 0).subscribe(
            lambda t, recs: out.extend(recs)
        )
        comp.build()
        submitted = []
        submit = comp.plane.submit
        comp.plane.submit = lambda process, updates: (
            submitted.append(list(updates)),
            submit(process, updates),
        )
        inp.on_next(records)
        inp.on_completed()
        comp.run()
        assert comp.drained(), comp.debug_state()
        assert out == [(0, len(records))]
        assert comp.sender_merged_dispatches == len(records) - 1
        batch = next(
            u for u in submitted if any(p.location is stage and d > 0 for p, d in u)
        )
        assert [("each" if p.location is stage else "edge", d) for p, d in batch] == [
            ("edge", +1),  # the one merged dispatch
            ("each", +1),  # the notification request
            ("edge", -1),  # the consumed input message
        ]

    def test_unhinted_plan_still_pays_per_send(self):
        # Without the coalesce hint the two sends stay distinct wire
        # messages — the merge keys on the optimizer's hint, never on
        # guesswork about delivery semantics.
        out, comp = self._run(optimize=False)
        assert out == {0: [(2, len(self.RECORDS))]}
        assert comp.sender_merged_dispatches == 0
        assert comp.network.stats.messages("data") == 2
        assert comp.network.stats.bytes("data") == 192
