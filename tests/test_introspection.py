"""Tests for progress probes and DOT graph rendering."""


from repro import Computation
from repro.core.dot import to_dot
from repro.lib import Stream
from repro.runtime import ClusterComputation


def build_probed(comp):
    inp = comp.new_input()
    probe = (
        Stream.from_input(inp)
        .select_many(str.split)
        .count_by(lambda w: w)
        .probe()
    )
    comp.build()
    return inp, probe


class TestProbe:
    def test_tracks_epoch_completion(self):
        comp = Computation()
        inp, probe = build_probed(comp)
        assert not probe.done(0)          # epoch 0 still open at the input
        assert probe.first_incomplete() == 0
        inp.on_next(["a b"])
        assert not probe.done(0)          # messages still queued
        comp.run()
        assert probe.done(0)
        assert not probe.done(1)
        assert probe.first_incomplete() == 1
        inp.on_completed()
        comp.run()
        assert probe.done(10)
        assert probe.first_incomplete() is None

    def test_probe_on_cluster_is_conservative(self):
        comp = ClusterComputation(2, 2)
        inp, probe = build_probed(comp)
        inp.on_next(["x y z"])
        # Run event-by-event; the probe may lag but must never claim
        # completion while any view still sees epoch-0 work.
        claimed_done_at = None
        steps = 0
        while comp.sim.step():
            steps += 1
            if claimed_done_at is None and probe.done(0):
                claimed_done_at = steps
                # At claim time, no view may hold epoch-0 work.
                for view in comp.views:
                    for p in view.state.occurrence:
                        assert p.timestamp.epoch > 0
        assert claimed_done_at is not None

    def test_driver_loop_with_probe(self):
        # The idiomatic "feed and wait" driver: advance until the probe
        # confirms the previous epoch is fully processed.
        comp = Computation()
        inp, probe = build_probed(comp)
        for epoch in range(3):
            inp.on_next(["w%d" % epoch])
            comp.run()
            assert probe.done(epoch)
        inp.on_completed()
        comp.run()


class TestDotRendering:
    def build_loop_graph(self):
        # The assertions below describe the *unoptimized* graph shape
        # (test_opt covers the fused rendering).
        comp = Computation(optimize=False)
        inp = comp.new_input("edges")
        out = (
            Stream.from_input(inp)
            .iterate(lambda s: s.select(lambda x: x - 1).where(lambda x: x > 0))
            .count_by(lambda x: x)
        )
        out.subscribe(lambda t, r: None)
        comp.build()
        return comp

    def test_contains_every_stage_and_connector(self):
        comp = self.build_loop_graph()
        dot = to_dot(comp.graph)
        for stage in comp.graph.stages:
            assert "s%d " % stage.index in dot or "s%d [" % stage.index in dot
        assert dot.count("->") == len(comp.graph.connectors)

    def test_loop_context_becomes_cluster(self):
        dot = to_dot(self.build_loop_graph().graph)
        assert "subgraph cluster_" in dot
        assert "depth 1" in dot

    def test_valid_structure(self):
        dot = to_dot(self.build_loop_graph().graph, name="my graph")
        assert dot.startswith('digraph "my graph" {')
        assert dot.endswith("}")
        # Balanced braces.
        assert dot.count("{") == dot.count("}")

    def test_exchange_edges_marked(self):
        dot = to_dot(self.build_loop_graph().graph)
        assert "⇄" in dot  # the count_by exchange

    def test_system_stages_styled(self):
        dot = to_dot(self.build_loop_graph().graph)
        assert "rarrow" in dot      # ingress
        assert "larrow" in dot      # egress
        assert "invtriangle" in dot # feedback
