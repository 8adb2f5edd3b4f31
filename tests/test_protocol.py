"""Unit tests for the distributed progress protocol pieces."""

from collections import Counter

import pytest
from hypothesis import example, given, settings, strategies as st

from repro.core import Pointstamp, Timestamp
from repro.core.graph import DataflowGraph, StageKind
from repro.core.progress import ProgressState
from repro.runtime.protocol import (
    PROTOCOL_MODES,
    UPDATE_WIRE_BYTES,
    _may_hold_update,
    net_updates,
    wire_size,
)


def ts(epoch, *counters):
    return Timestamp(epoch, tuple(counters))


def central_broadcasts(plane):
    """``(virtual time, updates)`` of every broadcast the central
    accumulator sends from now on, recorded as it sends them."""
    sent = []
    central = plane.central
    disseminate = central._disseminate

    def record(updates, covered):
        sent.append((plane.sim.now, list(updates)))
        disseminate(updates, covered)

    central._disseminate = record
    return sent


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


class TestProgressStateAsView:
    """A process's view is its ProgressState: batches arrive through
    ``apply`` and recovery resets the same object in place."""

    def test_unblocked_active_frontier(self):
        g, inp, a, b, c1, c2 = simple_graph()
        view = ProgressState(g.summaries)
        p = Pointstamp(ts(0), a)
        view.apply([(p, +1)])
        assert view.unblocked(p)

    def test_unblocked_inactive_but_clear(self):
        g, inp, a, b, c1, c2 = simple_graph()
        view = ProgressState(g.summaries)
        # p itself is not visible (its +1 is buffered elsewhere), but
        # nothing else could produce work at or before it.
        assert view.unblocked(Pointstamp(ts(0), b))

    def test_blocked_by_upstream(self):
        g, inp, a, b, c1, c2 = simple_graph()
        view = ProgressState(g.summaries)
        view.apply([(Pointstamp(ts(0), c1), +1)])
        assert not view.unblocked(Pointstamp(ts(0), b))
        assert not view.unblocked(Pointstamp(ts(5), b))

    def test_same_pointstamp_does_not_block_itself(self):
        g, inp, a, b, c1, c2 = simple_graph()
        view = ProgressState(g.summaries)
        p = Pointstamp(ts(0), b)
        view.apply([(p, +2)])  # two workers requested the same time
        assert view.unblocked(p)

    def test_on_change_hook_fires(self):
        g, inp, a, b, c1, c2 = simple_graph()
        calls = []
        view = ProgressState(g.summaries, on_change=lambda: calls.append(1))
        view.apply([(Pointstamp(ts(0), a), +1)])
        assert calls == [1]

    def test_on_change_fires_exactly_when_the_frontier_moved(self):
        # apply() settles once after its batch, so the version test
        # sees the batch's net effect on frontier membership.
        g, inp, a, b, c1, c2 = simple_graph()
        calls = []
        view = ProgressState(g.summaries, on_change=lambda: calls.append(1))
        pa = Pointstamp(ts(0), a)
        pb = Pointstamp(ts(0), b)
        batches = [
            [(pa, +1)],  # pa enters the frontier
            [(pa, +1)],  # count churn only
            [(pb, +1), (pb, -1)],  # cancels within the batch
            [(pb, +1)],  # active, but blocked by pa
            [(pa, -2)],  # pa leaves, pb enters
            [(pb, +1)],  # count churn only
        ]
        fired = []
        for batch in batches:
            before = set(view.frontier())
            count = len(calls)
            view.apply(batch)
            fired.append(len(calls) - count)
            moved = set(view.frontier()) != before
            assert fired[-1] == int(moved), batch
        assert fired == [1, 0, 0, 0, 1, 0]

    def test_transient_negative_blocks(self):
        g, inp, a, b, c1, c2 = simple_graph()
        view = ProgressState(g.summaries)
        view.apply([(Pointstamp(ts(0), c2), -1)])
        assert not view.unblocked(Pointstamp(ts(0), b))
        view.apply([(Pointstamp(ts(0), c2), +1)])
        assert view.unblocked(Pointstamp(ts(0), b))

    def test_reset_keeps_version_growing_and_drops_the_domination_memo(self):
        g, inp, a, b, c1, c2 = simple_graph()
        view = ProgressState(g.summaries)
        pb = Pointstamp(ts(0), b)
        view.apply([(Pointstamp(ts(0), c1), +1)])
        assert view.frontier_dominates(pb)  # memoised at this version
        before = view.version
        # Restored counts whose frontier does not cover pb at all.
        view.reset({Pointstamp(ts(0), c2): 0})
        assert view.version > before
        assert view.occurrence == {} and view.frontier() == []
        assert not view.frontier_dominates(pb)
        assert view.unblocked(pb)
        # And a restore whose frontier does cover it.
        middle = view.version
        view.reset({Pointstamp(ts(0), a): 1})
        assert view.version > middle
        assert view.frontier() == [Pointstamp(ts(0), a)]
        assert view.frontier_dominates(pb)

    def test_listeners_and_on_change_survive_a_reset(self):
        g, inp, a, b, c1, c2 = simple_graph()
        changes, batches = [], []
        view = ProgressState(g.summaries, on_change=lambda: changes.append(1))
        view.listeners.append(batches.append)
        view.apply([(Pointstamp(ts(0), c1), +1)])
        assert changes == [1] and len(batches) == 1
        restored = Pointstamp(ts(1), a)
        view.reset({restored: 2, Pointstamp(ts(0), c1): 0})
        # The restored batch reached both hooks, zero counts dropped.
        assert changes == [1, 1]
        assert batches[-1] == [(restored, 2)]
        assert view.occurrence == {restored: 2}
        view.apply([(restored, -2)])
        assert changes == [1, 1, 1] and len(batches) == 3


    def test_reference_restore_keeps_the_view_object(self):
        from repro import Computation
        from repro.lib import Stream

        comp = Computation()
        inp = comp.new_input()
        out = []
        Stream.from_input(inp).count_by(lambda x: x).subscribe(
            lambda t, recs: out.extend((t.epoch, r) for r in recs)
        )
        comp.build()
        state, worker = comp.progress, comp.workers[0]
        assert worker.view is state
        snapshot = comp.checkpoint()
        inp.on_next(["a", "b"])
        comp.run()
        before = state.version
        comp.restore(snapshot)
        assert comp.progress is state and worker.view is state
        assert state.version > before
        # The restored object drives the replayed run to completion.
        inp.on_next(["a", "a"])
        inp.on_completed()
        comp.run()
        assert comp.drained()
        assert (0, ("a", 2)) in out


class TestModes:
    def test_mode_list(self):
        assert set(PROTOCOL_MODES) == {"none", "local", "global", "local+global"}

    def test_unknown_mode_rejected(self):
        from repro.runtime import ClusterComputation

        with pytest.raises(ValueError):
            comp = ClusterComputation(progress_mode="bogus")
            comp.new_input()
            comp.build()


#: One event at process 1 of a standalone plane: ``point`` is
#: (location index, epoch, loop counter), resolved by the test.
_POINT = st.tuples(st.integers(0, 4), st.integers(0, 1), st.integers(0, 1))
_DELTA = st.sampled_from([-2, -1, 1, 2])
PLANE_OP = st.one_of(
    st.tuples(st.just("accumulate"), _POINT, _DELTA),
    st.tuples(st.just("apply"), _POINT, _DELTA),
    st.tuples(st.just("enqueue"), _POINT),
    st.tuples(st.just("dequeue"), _POINT),
    st.tuples(st.just("remember"), _POINT, _DELTA),
    st.tuples(st.just("forget"), st.integers(0, 3)),
    st.tuples(st.just("scan")),
)


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

    @staticmethod
    def plane_over(graph, mode, scoped=True):
        """A three-process plane over ``graph``.  When ``scoped``,
        nothing notifies, so its loop is summarized; otherwise every
        stage does, and no scope is."""
        from repro.runtime.protocol import ProgressPlane
        from repro.sim.des import Simulator
        from repro.sim.network import Network, NetworkConfig

        sim = Simulator(seed=0)
        plane = ProgressPlane(
            graph.summaries,
            lambda stage: not scoped,
            sim,
            Network(sim, 3, NetworkConfig()),
            [0, 1, 2],
            mode,
        )
        assert len(plane.summarized_scopes) == int(scoped)
        return sim, plane

    @pytest.mark.parametrize("mode", PROTOCOL_MODES)
    def test_views_converge_under_every_mode(self, mode):
        graph = self.one_loop_graph()
        inp = graph.stages[0]
        c = graph.connectors  # 0 in->ingress, 1 ingress->concat,
        # 2 feedback->concat, 3 concat->select, 4 select->feedback,
        # 5 select->egress, 6 egress->subscribe
        sim, plane = self.plane_over(graph, mode)
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
            state = plane.view(process)
            assert state.occurrence == {open_epoch: 1}, (mode, process)
            assert state.frontier() == [open_epoch]
            assert not plane.withholding(process)
        assert plane.central is None or not plane.central.buffer
        assert not any(e.queued for e in plane.nodes + [plane.central] if e)

    def test_queued_counts_share_the_projection_memo(self):
        graph = self.one_loop_graph()
        c = graph.connectors
        _, plane = self.plane_over(graph, "local+global")
        endpoints = (plane.nodes[1], plane.central)

        # note_enqueue first: project() hands back the memoized object.
        plane.note_enqueue(c[3], ts(0, 2), 1)
        [(projected, _)] = plane.project([(Pointstamp(ts(0, 2), c[3]), +1)])
        assert projected == Pointstamp(ts(0), projected.location)
        for endpoint in endpoints:
            [key] = endpoint.queued
            assert key is projected

        # project() first: note_enqueue keys queued with its object.
        [(projected, _)] = plane.project([(Pointstamp(ts(1, 0), c[4]), +1)])
        plane.note_enqueue(c[4], ts(1, 0), 1)
        for endpoint in endpoints:
            assert [k for k in endpoint.queued if k is projected] == [projected]

        plane.note_dequeue(c[3], ts(0, 2), 1)
        plane.note_dequeue(c[4], ts(1, 0), 1)
        for _ in range(3):
            plane.note_enqueue(c[3], ts(2, 1), 1)
        plane.note_dequeue(c[3], ts(2, 1), 1, count=2)
        plane.note_dequeue(c[3], ts(2, 1), 1)
        for endpoint in plane.nodes + [plane.central]:
            assert not endpoint.queued

    def test_unsummarized_connector_touches_nothing(self):
        graph = self.one_loop_graph()
        c = graph.connectors
        _, plane = self.plane_over(graph, "local+global")
        assert not plane.is_summarized(c[0]) and not plane.is_summarized(c[6])
        for connector, time in ((c[0], ts(0)), (c[6], ts(3))):
            plane.note_enqueue(connector, time, 0)
            plane.note_dequeue(connector, time, 0)
        assert not plane._proj_cache
        assert not any(e.queued for e in plane.nodes + [plane.central])

    def test_enqueue_makes_a_buffered_boundary_delta_holdable(self):
        graph = self.one_loop_graph()
        c = graph.connectors
        sim, plane = self.plane_over(graph, "local")
        node = plane.nodes[1]
        interior = Pointstamp(ts(0, 0), c[3])
        [(boundary, _)] = plane.project([(interior, +1)])
        plane.apply_all([(boundary, +2)])

        # A negative boundary delta with nothing queued fails every
        # hold clause: its flush is deferred to the plane's timer.
        plane.submit(1, [(interior, -1)])
        assert node.buffer == {boundary: -1}
        assert node._flush_scheduled

        # Interior work queued at that boundary before the timer fires
        # makes the delta holdable; the timer must see that.
        plane.note_enqueue(c[3], ts(0, 1), 1)
        assert node._scan_holds()
        sim.run()
        assert node.buffer == {boundary: -1}
        for process in range(3):
            assert plane.view(process).occurrence == {boundary: 2}

        # The last queued delivery leaves: the re-test flushes it.
        plane.note_dequeue(c[3], ts(0, 1), 1)
        sim.run()
        assert not node.buffer
        for process in range(3):
            assert plane.view(process).occurrence == {boundary: 1}

    @staticmethod
    def scope_free_plane(mode):
        """A three-process plane over ``in -> a -> b``: no loop, so no
        summarized scope and no deferred flush."""
        from repro.runtime.protocol import ProgressPlane
        from repro.sim.des import Simulator
        from repro.sim.network import Network, NetworkConfig

        g, inp, a, b, c1, c2 = simple_graph()
        sim = Simulator(seed=0)
        plane = ProgressPlane(
            g.summaries,
            lambda stage: True,
            sim,
            Network(sim, 3, NetworkConfig()),
            [0, 1, 2],
            mode,
        )
        assert not plane.summarized_scopes and plane.defer_flush is None
        return sim, plane, (inp, a, b, c1, c2)

    def test_central_withholds_a_message_decrement_while_the_net_stays_positive(self):
        sim, plane, (inp, a, b, c1, c2) = self.scope_free_plane("global")
        sent = central_broadcasts(plane)
        message = Pointstamp(ts(0), c1)
        plane.apply_all([(message, +2)])  # two records in flight on c1

        # The first retirement: one record is still in flight, so the
        # central holds the -1 and no view moves.
        plane.submit(1, [(message, -1)])
        sim.run()
        assert plane.central.buffer == {message: -1}
        assert sent == []
        for process in range(3):
            assert plane.view(process).occurrence == {message: 2}

        # The last one flushes both in one broadcast.
        plane.submit(2, [(message, -1)])
        sim.run()
        assert [updates for _, updates in sent] == [[(message, -2)]]
        assert not plane.central.buffer
        for process in range(3):
            assert plane.view(process).occurrence == {}

    def test_compensation_ends_a_central_hold(self):
        # A partial rollback retires a lost record's +1 straight into
        # the views; no delivery follows, so apply_all re-tests.
        sim, plane, (inp, a, b, c1, c2) = self.scope_free_plane("global")
        sent = central_broadcasts(plane)
        message = Pointstamp(ts(0), c1)
        plane.apply_all([(message, +2)])
        plane.submit(1, [(message, -1)])
        sim.run()
        assert plane.central.buffer == {message: -1}
        plane.apply_all([(message, -1)])
        assert [updates for _, updates in sent] == [[(message, -1)]]
        sim.run()
        for process in range(3):
            assert plane.view(process).occurrence == {}

    def test_central_forwards_a_vertex_decrement_at_once(self):
        sim, plane, (inp, a, b, c1, c2) = self.scope_free_plane("global")
        sent = central_broadcasts(plane)
        message = Pointstamp(ts(0), c1)
        # A vertex pointstamp that c1@0 cannot reach, nor it c1@0.
        request = Pointstamp(ts(1), inp)
        plane.apply_all([(message, +2), (request, +2)])
        plane.submit(1, [(message, -1)])
        sim.run()
        assert sent == []

        # A vertex decrement is not held with a positive net: it leaves
        # at once, and carries the withheld message decrement along.
        plane.submit(2, [(request, -1)])
        sim.run()
        [(_, broadcast)] = sent
        assert sorted(broadcast, key=repr) == sorted(
            [(request, -1), (message, -1)], key=repr
        )
        assert not plane.central.buffer
        for process in range(3):
            assert plane.view(process).occurrence == {message: 1, request: 1}

    def test_node_forwards_what_only_a_same_time_message_dominates(self):
        sim, plane, (inp, a, b, c1, c2) = self.scope_free_plane("local+global")
        node = plane.nodes[1]
        upstream = Pointstamp(ts(0), c1)
        downstream = Pointstamp(ts(0), c2)
        plane.apply_all([(upstream, +1)])

        # c1@0 dominates c2@0 at the same time: the node sends, and the
        # central (which sees the same frontier) holds it instead.
        plane.submit(1, [(downstream, +1)])
        assert not node.buffer
        sim.run()
        assert plane.central.buffer == {downstream: +1}

        # Dominated from an earlier time, the node keeps it.
        later = Pointstamp(ts(1), c2)
        plane.submit(1, [(later, +1)])
        assert node.buffer == {later: +1}

        # And one that an open input epoch dominates at the same time.
        plane.apply_all([(Pointstamp(ts(0), inp), +1)])
        plane.submit(1, [(upstream, +1)])
        assert node.buffer == {later: +1, upstream: +1}

    def test_a_summarized_scope_keeps_the_paper_rule_at_both_endpoints(self):
        """The same updates on the one-loop graph, summarized or not:
        only the plane without a summarized scope narrows the rules."""
        graph = self.one_loop_graph()
        c = graph.connectors
        entering = Pointstamp(ts(0), c[0])
        leaving = Pointstamp(ts(0), c[6])
        for scoped in (True, False):
            _, plane = self.plane_over(graph, "local+global", scoped)
            node, central = plane.nodes[1], plane.central
            plane.apply_all([(entering, +2)])  # two records on c[0]
            # Only a same-time message (c[0]@0) dominates leaving.
            plane.submit(1, [(leaving, +1)])
            # A message decrement whose net stays positive.
            central.accumulate([(entering, -1)], (2, 0))
            assert central.buffer == {entering: -1}
            if scoped:
                # The paper's rule: the node holds under (a), and the
                # central flushes (on the timer, as every scoped
                # endpoint does).
                assert node.buffer == {leaving: +1}
                assert not node._flush_scheduled
                assert not central._scan_holds() and central._flush_scheduled
            else:
                assert not node.buffer
                assert central._scan_holds() and not central._flush_scheduled

    @pytest.mark.parametrize("scoped", [True, False], ids=["summarized", "scope-free"])
    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(ops=st.lists(PLANE_OP, max_size=30))
    # An open input epoch dominates c4@(0,0) while it is buffered; once
    # it closes, only the same-time message c3@(0,0) does, and a "node"
    # verdict memoised before the frontier moved would still hold.
    @example(
        ops=[
            ("apply", (1, 0, 0), 1),
            ("apply", (3, 0, 0), 1),
            ("accumulate", (2, 0, 0), 1),
            ("apply", (3, 0, 0), -1),
        ]
    )
    def test_hold_scan_matches_a_fresh_verdict(self, scoped, ops):
        """Whatever changed since the last scan, each endpoint's
        incremental scan agrees with its own verdict evaluated from
        scratch: a process node of a summarized loop under ``local``,
        and both endpoint kinds of a scope-free ``local+global`` plane
        (the same loop, not summarized because a stage notifies)."""
        graph = self.one_loop_graph()
        inp = graph.stages[0]
        c = graph.connectors
        _, plane = self.plane_over(
            graph, "local" if scoped else "local+global", scoped
        )
        endpoints = [plane.nodes[1]] if scoped else [plane.nodes[1], plane.central]
        # Interior connectors (projected onto the loop's boundary when
        # it is summarized) and locations outside the loop.
        interior = (c[1], c[3], c[4])
        outer = (inp, c[0], c[6])

        def stamp(point):
            index, epoch, counter = point
            if index >= 3:
                return Pointstamp(ts(epoch), outer[index - 3 + counter])
            [(projected, _)] = plane.project(
                [(Pointstamp(ts(epoch, counter), interior[index]), +1)]
            )
            return projected

        seqs = {id(endpoint): [] for endpoint in endpoints}
        for op in ops + [("scan",)]:
            kind = op[0]
            if kind in ("enqueue", "dequeue"):
                index, epoch, counter = op[1]
                connector = interior[index % 3]
                note = plane.note_enqueue if kind == "enqueue" else plane.note_dequeue
                note(connector, ts(epoch, counter), 1)
                continue
            for endpoint in endpoints:
                mine = seqs[id(endpoint)]
                if kind == "accumulate":
                    endpoint.accumulate([(stamp(op[1]), op[2])])
                elif kind == "apply":
                    endpoint.view.apply([(stamp(op[1]), op[2])])
                elif kind == "remember":
                    mine.append(endpoint._remember_in_flight([(stamp(op[1]), op[2])]))
                elif kind == "forget":
                    if mine:
                        endpoint._forget_in_flight(mine.pop(op[1] % len(mine)))
                else:
                    fresh = ProgressState(graph.summaries)
                    fresh.update_many(endpoint.view.occurrence.items())
                    expected = all(
                        _may_hold_update(
                            fresh,
                            p,
                            d,
                            endpoint._in_flight_totals.get(p, 0),
                            endpoint.queued,
                            endpoint.hold_rule,
                        )
                        for p, d in endpoint.buffer.items()
                    )
                    assert endpoint._scan_holds() == expected, ops

    def test_fence_settles_pending_copies_once(self):
        from repro.runtime.protocol import ProgressPlane
        from repro.sim.des import Simulator
        from repro.sim.network import Network, NetworkConfig

        graph, inp, _, _, _, _ = simple_graph()
        sim = Simulator(seed=0)
        stale = []
        plane = ProgressPlane(
            graph.summaries,
            lambda stage: False,
            sim,
            Network(sim, 3, NetworkConfig()),
            [0, 1, 2],
            "none",
            on_stale=lambda src, dst: stale.append((src, dst)),
        )
        applied = []
        for process in range(3):
            plane.view(process).listeners.append(
                lambda updates, process=process: applied.append(process)
            )
        epoch = Pointstamp(ts(0), inp)

        # One broadcast from process 0 in flight to all three.
        plane.controller_broadcast([(epoch, +1)])
        assert plane.settle(1) == 1  # only the copy addressed to 1
        assert applied == [1]
        assert plane.settle(0) == 2  # what is left, in destination order
        assert applied == [1, 0, 2]
        for process in range(3):
            assert plane.view(process).occurrence == {epoch: 1}
        sim.run()
        # The network copies straggle in and are each dropped once.
        assert applied == [1, 0, 2]
        assert sorted(stale) == [(0, 0), (0, 1), (0, 2)]

        # A global rollback forgets every entry: nothing left to settle.
        plane.controller_broadcast([(epoch, -1)])
        plane.reset({epoch: 1})
        del applied[:]
        assert plane.settle(0) == 0
        assert applied == []


class TestCentralRounds:
    """The round structure of a scope-free pipeline on a cluster: the
    central accumulator nets each epoch's retirements of every stage
    into a few broadcasts rather than forwarding one per node flush."""

    EPOCH_INTERVAL = 5e-3

    def run_kexposure(self, comp, epochs, followers):
        from repro.algorithms.kexposure import k_exposure_incremental
        from repro.lib import Collection, Stream

        tweets_in, followers_in = comp.new_input(), comp.new_input()
        outputs = {}

        def observe(timestamp, diffs):
            # Consolidated per epoch: the eager operators send
            # unconsolidated diffs whose batching depends on the runtime.
            counts = outputs.setdefault(timestamp.epoch, Counter())
            for record, delta in diffs:
                counts[record] += delta
                if not counts[record]:
                    del counts[record]

        k_exposure_incremental(
            Collection(Stream.from_input(tweets_in)),
            Collection(Stream.from_input(followers_in)),
        ).subscribe(observe)
        comp.build()
        followers_in.on_next(followers)
        followers_in.on_completed()
        return tweets_in, outputs

    def test_join_distinct_count_takes_few_central_broadcasts_per_epoch(self):
        from repro import Computation
        from repro.runtime import ClusterComputation
        from repro.workloads import TweetGenerator, TweetStreamConfig

        generator = TweetGenerator(
            TweetStreamConfig(num_users=200, num_hashtags=20, seed=1)
        )
        followers = [
            ((generator.query(), generator.query()), +1) for _ in range(400)
        ]
        epochs = [
            [
                ((tweet.user, tag), +1)
                for tweet in generator.batch(30)
                for tag in tweet.hashtags or ("#none",)
            ]
            for _ in range(6)
        ]

        reference = Computation()
        tweets_in, expected = self.run_kexposure(reference, epochs, followers)
        for batch in epochs:
            tweets_in.on_next(batch)
        tweets_in.on_completed()
        reference.run()

        comp = ClusterComputation(
            num_processes=8, workers_per_process=1, progress_mode="local+global"
        )
        tweets_in, outputs = self.run_kexposure(comp, epochs, followers)
        assert comp.plane.central.hold_rule == "central"
        sent = central_broadcasts(comp.plane)

        def inject(epoch):
            tweets_in.on_next(epochs[epoch])
            if epoch == len(epochs) - 1:
                tweets_in.on_completed()

        for epoch in range(len(epochs)):
            comp.sim.schedule_at(
                epoch * self.EPOCH_INTERVAL, lambda e=epoch: inject(e)
            )
        comp.run()
        assert comp.drained()
        assert outputs == expected
        # The central holds message retirements until their time's last
        # one, and nodes stop holding behind same-time messages: 7-10
        # broadcasts per epoch, where forwarding nearly every node flush
        # took 21-23.
        broadcasts = Counter(int(now // self.EPOCH_INTERVAL) for now, _ in sent)
        per_epoch = [broadcasts[epoch] for epoch in range(len(epochs))]
        assert max(per_epoch) <= 12, per_epoch
