"""Unit tests for the distributed progress protocol pieces."""

import pytest

from repro.core import Pointstamp, Timestamp
from repro.core.graph import DataflowGraph, StageKind
from repro.core.progress import ProgressState
from repro.runtime.protocol import (
    PROTOCOL_MODES,
    UPDATE_WIRE_BYTES,
    ProgressView,
    _may_hold_update,
    net_updates,
    wire_size,
)


def ts(epoch, *counters):
    return Timestamp(epoch, tuple(counters))


def simple_graph():
    """in -> a -> b with stage/connector locations."""
    g = DataflowGraph()
    inp = g.new_stage("in", None, 0, 1, StageKind.INPUT)
    a = g.new_stage("a", lambda s, w: None, 1, 1)
    b = g.new_stage("b", lambda s, w: None, 1, 0)
    c1 = g.connect(inp, 0, a, 0)
    c2 = g.connect(a, 0, b, 0)
    g.freeze()
    return g, inp, a, b, c1, c2


class TestNetUpdates:
    def test_cancellation(self):
        p = Pointstamp(ts(0), "x")
        assert net_updates([(p, +1), (p, -1)]) == []

    def test_combination(self):
        p = Pointstamp(ts(0), "x")
        q = Pointstamp(ts(1), "x")
        out = net_updates([(p, +1), (q, -1), (p, +1)])
        assert (p, 2) in out and (q, -1) in out

    def test_positives_before_negatives(self):
        p = Pointstamp(ts(0), "x")
        q = Pointstamp(ts(1), "x")
        r = Pointstamp(ts(2), "x")
        out = net_updates([(q, -2), (p, +1), (r, +3)])
        deltas = [d for _, d in out]
        assert deltas == sorted(deltas, reverse=True)

    def test_wire_size(self):
        p = Pointstamp(ts(0), "x")
        assert wire_size([(p, 1), (p, -1)]) == 2 * UPDATE_WIRE_BYTES


class TestMayHold:
    def test_held_when_dominated_by_frontier(self):
        g, inp, a, b, c1, c2 = simple_graph()
        state = ProgressState(g.summaries)
        # An early message on c1 dominates a notification at b.
        state.update(Pointstamp(ts(0), c1), +1)
        p = Pointstamp(ts(0), b)
        assert _may_hold_update(state, p, +1, 0)
        assert _may_hold_update(state, p, -1, 0)

    def test_positive_vertex_surplus_held(self):
        g, inp, a, b, c1, c2 = simple_graph()
        state = ProgressState(g.summaries)
        p = Pointstamp(ts(0), b)
        state.update(p, +1)  # visible occurrence
        assert _may_hold_update(state, p, +1, 0)

    def test_negative_update_not_held_by_condition_b(self):
        # The liveness amendment: a decrement with no dominating frontier
        # element must flush even if the net is positive.
        g, inp, a, b, c1, c2 = simple_graph()
        state = ProgressState(g.summaries)
        p = Pointstamp(ts(0), b)
        state.update(p, +2)
        assert not _may_hold_update(state, p, -1, 0)

    def test_connector_updates_not_held_by_condition_b(self):
        g, inp, a, b, c1, c2 = simple_graph()
        state = ProgressState(g.summaries)
        p = Pointstamp(ts(0), c2)
        state.update(p, +1)
        assert not _may_hold_update(state, p, +1, 0)

    def test_in_flight_counts_toward_net(self):
        g, inp, a, b, c1, c2 = simple_graph()
        state = ProgressState(g.summaries)
        p = Pointstamp(ts(0), b)
        # Nothing visible locally, but our own +1 is in flight.
        assert _may_hold_update(state, p, +1, +1)
        assert not _may_hold_update(state, p, +1, -1)


class TestProgressView:
    def test_unblocked_active_frontier(self):
        g, inp, a, b, c1, c2 = simple_graph()
        view = ProgressView(g.summaries)
        p = Pointstamp(ts(0), a)
        view.apply([(p, +1)])
        assert view.unblocked(p)

    def test_unblocked_inactive_but_clear(self):
        g, inp, a, b, c1, c2 = simple_graph()
        view = ProgressView(g.summaries)
        # p itself is not visible (its +1 is buffered elsewhere), but
        # nothing else could produce work at or before it.
        assert view.unblocked(Pointstamp(ts(0), b))

    def test_blocked_by_upstream(self):
        g, inp, a, b, c1, c2 = simple_graph()
        view = ProgressView(g.summaries)
        view.apply([(Pointstamp(ts(0), c1), +1)])
        assert not view.unblocked(Pointstamp(ts(0), b))
        assert not view.unblocked(Pointstamp(ts(5), b))

    def test_same_pointstamp_does_not_block_itself(self):
        g, inp, a, b, c1, c2 = simple_graph()
        view = ProgressView(g.summaries)
        p = Pointstamp(ts(0), b)
        view.apply([(p, +2)])  # two workers requested the same time
        assert view.unblocked(p)

    def test_on_change_hook_fires(self):
        g, inp, a, b, c1, c2 = simple_graph()
        calls = []
        view = ProgressView(g.summaries, on_change=lambda: calls.append(1))
        view.apply([(Pointstamp(ts(0), a), +1)])
        assert calls == [1]

    def test_transient_negative_blocks(self):
        g, inp, a, b, c1, c2 = simple_graph()
        view = ProgressView(g.summaries)
        view.apply([(Pointstamp(ts(0), c2), -1)])
        assert not view.unblocked(Pointstamp(ts(0), b))
        view.apply([(Pointstamp(ts(0), c2), +1)])
        assert view.unblocked(Pointstamp(ts(0), b))


class TestModes:
    def test_mode_list(self):
        assert set(PROTOCOL_MODES) == {"none", "local", "global", "local+global"}

    def test_unknown_mode_rejected(self):
        from repro.runtime import ClusterComputation

        with pytest.raises(ValueError):
            comp = ClusterComputation(progress_mode="bogus")
            comp.new_input()
            comp.build()


class TestStandalonePlane:
    """The progress plane driven on its own: a simulator, a network and
    a frozen graph — no cluster, no workers, no vertices."""

    @staticmethod
    def one_loop_graph():
        from repro import Computation
        from repro.lib import Stream

        comp = Computation()
        inp = comp.new_input()
        Stream.from_input(inp).iterate(
            lambda body: body.select(lambda x: x - 1)
        ).subscribe(lambda t, records: None)
        comp.graph.freeze()
        return comp.graph

    @pytest.mark.parametrize("mode", PROTOCOL_MODES)
    def test_views_converge_under_every_mode(self, mode):
        from repro.runtime.protocol import ProgressPlane
        from repro.sim.des import Simulator
        from repro.sim.network import Network, NetworkConfig

        graph = self.one_loop_graph()
        inp = graph.stages[0]
        c = graph.connectors  # 0 in->ingress, 1 ingress->concat,
        # 2 feedback->concat, 3 concat->select, 4 select->feedback,
        # 5 select->egress, 6 egress->subscribe
        sim = Simulator(seed=0)
        plane = ProgressPlane(
            graph.summaries,
            lambda stage: False,  # nothing notifies: the loop is summarized
            sim,
            Network(sim, 3, NetworkConfig()),
            [0, 1, 2],
            mode,
            250e-6,
        )
        assert len(plane.summarized_scopes) == 1
        plane.apply_all([(Pointstamp(ts(0), inp), +1)])

        def callback(at, process, consumed, produced):
            """One vertex callback on ``process``: it takes ``consumed``
            off its queue and sends ``produced`` = [(connector, time,
            destination process)]."""
            connector, time = consumed

            def run():
                plane.note_dequeue(connector, time, process)
                updates = []
                for out, out_time, dst in produced:
                    updates.append((Pointstamp(out_time, out), +1))
                    plane.note_enqueue(out, out_time, dst)
                updates.append((Pointstamp(time, connector), -1))
                plane.submit(process, updates)

            sim.schedule_at(at, run)

        # Epoch 0 is released with one record, which enters the loop on
        # process 0, goes round once over processes 1 and 2, leaves
        # through the egress and dies in the second iteration.
        sim.schedule_at(
            0.0,
            lambda: plane.controller_broadcast(
                [
                    (Pointstamp(ts(0), c[0]), +1),
                    (Pointstamp(ts(1), inp), +1),
                    (Pointstamp(ts(0), inp), -1),
                ]
            ),
        )
        callback(1e-4, 0, (c[0], ts(0)), [(c[1], ts(0, 0), 1)])
        callback(2e-4, 1, (c[1], ts(0, 0)), [(c[3], ts(0, 0), 1)])
        callback(
            3e-4, 1, (c[3], ts(0, 0)), [(c[4], ts(0, 0), 2), (c[5], ts(0, 0), 2)]
        )
        callback(4e-4, 2, (c[5], ts(0, 0)), [(c[6], ts(0), 0)])
        callback(5e-4, 2, (c[4], ts(0, 0)), [(c[2], ts(0, 1), 0)])
        callback(6e-4, 0, (c[2], ts(0, 1)), [(c[3], ts(0, 1), 0)])
        callback(7e-4, 0, (c[3], ts(0, 1)), [])
        callback(8e-4, 0, (c[6], ts(0)), [])
        sim.run()

        # The input stays open, so exactly its next epoch is outstanding
        # — at every view, with nothing left withheld anywhere.
        open_epoch = Pointstamp(ts(1), inp)
        for process in range(3):
            state = plane.view(process).state
            assert state.occurrence == {open_epoch: 1}, (mode, process)
            assert state.frontier() == [open_epoch]
            assert not plane.withholding(process)
        assert plane.central is None or not plane.central.buffer
        assert not any(e.queued for e in plane.nodes + [plane.central] if e)
