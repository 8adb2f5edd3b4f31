"""Tests for guarantee/capability-decoupled notifications (section 2.4).

``notify_at(t, capability=False)`` requests a "state purging"
notification: guaranteed not to fire before time ``t`` completes, but
holding no pointstamp — so it never delays other notifications and may
not produce events.
"""

import pytest

from repro import Computation, Timestamp, Vertex
from repro.core import TimestampViolation
from repro.lib import Stream
from repro.runtime import ClusterComputation


class PurgingVertex(Vertex):
    """Forwards eagerly; uses a capability-free notification to purge."""

    # The log is shared with the test; keep it out of checkpoints.
    _TRANSIENT_ATTRS = Vertex._TRANSIENT_ATTRS + ("log",)

    def __init__(self, log):
        super().__init__()
        self.log = log
        self.state = {}

    def on_recv(self, port, records, t):
        if t not in self.state:
            self.state[t] = 0
            self.notify_at(t, capability=False)
        self.state[t] += len(records)
        self.send_by(0, records, t)

    def on_notify(self, t):
        self.log.append(("purge", self.worker, t.epoch, self.state.pop(t)))


def build(cluster=False):
    comp = ClusterComputation(2, 2) if cluster else Computation()
    inp = comp.new_input()
    log = []
    stage = comp.graph.new_stage(
        "purging", lambda s, w: PurgingVertex(log), 1, 1
    )
    Stream.from_input(inp).connect_to(stage, 0)
    out = Stream(comp, stage, 0).collect()
    comp.build()
    return comp, inp, log, out


class TestReferenceRuntime:
    def test_purge_fires_after_epoch_completes(self):
        comp, inp, log, out = build()
        inp.on_next([1, 2, 3])
        comp.run()
        assert log == [("purge", 0, 0, 3)]

    def test_purge_does_not_block_downstream(self):
        # A capability-free notification holds no pointstamp: the
        # downstream subscriber's epoch completes regardless of whether
        # the purge has been delivered.
        comp, inp, log, out = build()
        inp.on_next([7])
        # Step until the downstream epoch completes: the purge is still
        # pending then, so it held nothing up.
        while not out:
            assert comp.step()
        assert [t.epoch for t, _ in out] == [0]
        assert log == []
        assert comp.debug_state().pending_notifications == 1

    def test_purge_callback_cannot_send(self):
        comp = Computation()
        inp = comp.new_input()
        log = []

        class BadPurge(PurgingVertex):
            def on_notify(self, t):
                self.send_by(0, ["oops"], t)

        stage = comp.graph.new_stage("bad", lambda s, w: BadPurge(log), 1, 1)
        Stream.from_input(inp).connect_to(stage, 0)
        Stream(comp, stage, 0).collect()
        comp.build()
        inp.on_next([1])
        with pytest.raises(TimestampViolation):
            comp.run()

    def test_purge_callback_cannot_request_notification(self):
        comp = Computation()
        inp = comp.new_input()
        log = []

        class BadPurge(PurgingVertex):
            def on_notify(self, t):
                self.notify_at(Timestamp(t.epoch + 1))

        stage = comp.graph.new_stage("bad", lambda s, w: BadPurge(log), 1, 1)
        Stream.from_input(inp).connect_to(stage, 0)
        Stream(comp, stage, 0).collect()
        comp.build()
        inp.on_next([1])
        with pytest.raises(TimestampViolation):
            comp.run()

    def test_ordering_guarantee_still_holds(self):
        # The purge for epoch e never fires before epoch e's messages.
        comp, inp, log, out = build()
        for e in range(4):
            inp.on_next([e])
        inp.on_completed()
        comp.run()
        assert [entry[2] for entry in log] == [0, 1, 2, 3]
        assert all(entry[3] == 1 for entry in log)

    def test_checkpoint_preserves_pending_cleanups(self):
        comp, inp, log, out = build()
        inp.on_next([1])
        snapshot = comp.checkpoint()
        assert snapshot["cleanups"]
        comp.restore(snapshot)
        comp.run()
        assert ("purge", 0, 0, 1) in log

    def test_stream_join_reclaims_with_a_cleanup(self):
        # Join emits in on_recv and only reclaims in on_notify, so its
        # request holds no pointstamp at the epoch it touched.
        comp = Computation()
        left, right = comp.new_input(), comp.new_input()
        out = (
            Stream.from_input(left)
            .join(Stream.from_input(right), lambda x: x, lambda y: y, lambda x, y: (x, y))
            .collect()
        )
        comp.build()
        left.on_next([1, 2])
        right.on_next([2, 3])
        (join,) = [v for v in comp.vertices.values() if v.stage.name == "join"]
        while not join.state:
            assert comp.step()
        assert Timestamp(0) in join.state
        assert not any(
            p.location is join.stage for p in comp.progress.active_pointstamps()
        )
        left.on_completed()
        right.on_completed()
        comp.run()
        assert comp.drained()
        assert [(t.epoch, recs) for t, recs in out] == [(0, [(2, 2)])]
        assert join.state == {}


class TestClusterRuntime:
    def test_purges_fire_on_every_worker(self):
        comp, inp, log, out = build(cluster=True)
        inp.on_next(list(range(8)))
        inp.on_completed()
        comp.run()
        assert comp.drained()
        # Every worker that received records purged exactly its share.
        assert sum(entry[3] for entry in log) == 8
        assert all(entry[2] == 0 for entry in log)

    def test_no_protocol_traffic_for_cleanups(self):
        # Compare progress bytes against the same vertex using a full
        # notification: the capability-free version must emit fewer
        # progress updates.
        def run(capability):
            comp = ClusterComputation(2, 2)
            inp = comp.new_input()

            class V(Vertex):
                def __init__(self):
                    super().__init__()
                    self.seen = set()

                def on_recv(self, port, records, t):
                    if t not in self.seen:
                        self.seen.add(t)
                        self.notify_at(t, capability=capability)
                    self.send_by(0, records, t)

            stage = comp.graph.new_stage("v", lambda s, w: V(), 1, 1)
            Stream.from_input(inp).connect_to(stage, 0)
            Stream(comp, stage, 0).collect()
            comp.build()
            for e in range(5):
                inp.on_next([e])
            inp.on_completed()
            comp.run()
            assert comp.drained()
            return comp.network.stats.bytes("progress")

        assert run(capability=False) < run(capability=True)


class TestOneWorkerRule:
    """Both runtimes run the same worker: same choice, same bookkeeping."""

    RUNTIMES = [Computation, lambda: ClusterComputation(1, 1)]

    class Cleaner(Vertex):
        """Requests a cleanup at ``t + 1``, then at ``t``; logs each."""

        _TRANSIENT_ATTRS = Vertex._TRANSIENT_ATTRS + ("log",)

        def __init__(self, name, log):
            super().__init__()
            self.name = name
            self.log = log

        def on_recv(self, port, records, t):
            self.notify_at(Timestamp(t.epoch + 1), capability=False)
            self.notify_at(t, capability=False)
            self.send_by(0, records, t)

        def on_notify(self, t):
            self.log.append("%s%d" % (self.name, t.epoch))

    def cleanup_order(self, make):
        comp = make()
        inp = comp.new_input()
        log = []
        a = comp.add_stage("a", lambda: self.Cleaner("a", log))
        b = comp.add_stage("b", lambda: self.Cleaner("b", log))
        Stream.from_input(inp).connect_to(a, 0)
        Stream(comp, a, 0).connect_to(b, 0)
        comp.build()
        inp.on_next([1])
        inp.on_next([2])
        inp.on_completed()
        comp.run()
        assert comp.drained()
        return log

    def test_cleanups_deliver_in_one_order(self):
        # The first unblocked cleanup goes first, on either runtime.
        orders = [self.cleanup_order(make) for make in self.RUNTIMES]
        assert orders == [["a0", "a1", "a1", "a2", "b0", "b1", "b1", "b2"]] * 2

    @pytest.mark.parametrize("make", RUNTIMES, ids=["reference", "cluster"])
    def test_pending_notifications_count_both_kinds(self, make):
        comp = make()
        inp = comp.new_input()

        class Later(Vertex):
            def on_recv(self, port, records, t):
                self.notify_at(Timestamp(5))
                self.notify_at(Timestamp(5), capability=False)

        comp.connect(inp.stage, comp.add_stage("later", Later))
        comp.build()
        inp.on_next([1])
        comp.run()
        assert comp.debug_state().pending_notifications == 2
