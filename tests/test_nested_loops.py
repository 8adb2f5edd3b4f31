"""Deeply nested loop contexts: summaries, frontiers and execution.

Section 2.1 allows arbitrary nesting; these tests drive three-deep
nesting through both runtimes and check the summary algebra directly.
"""

import pytest

from repro import Computation
from repro.core import PathSummary
from repro.lib import Stream
from repro.runtime import ClusterComputation


def triple_nested_program(comp):
    """x -> three nested decrement loops; innermost burns fastest."""
    inp = comp.new_input()
    out = []

    def inner(stream):
        return stream.select(lambda x: x - 1).where(lambda x: x > 0)

    def middle(stream):
        return inner(stream).iterate(inner).where(lambda x: x % 2 == 0)

    (
        Stream.from_input(inp)
        .iterate(middle)
        .subscribe(lambda t, recs: out.extend(recs))
    )
    return inp, out


class TestExecution:
    @pytest.mark.parametrize(
        "make",
        [Computation, lambda: ClusterComputation(2, 2, progress_mode="local+global")],
    )
    def test_three_deep_nesting_drains(self, make):
        comp = make()
        inp, out = triple_nested_program(comp)
        comp.build()
        inp.on_next([6])
        inp.on_completed()
        comp.run()
        assert comp.drained()
        assert out  # something emerged from the nest

    def test_reference_and_cluster_agree(self):
        results = []
        for make in (
            Computation,
            lambda: ClusterComputation(3, 2, progress_mode="none"),
        ):
            comp = make()
            inp, out = triple_nested_program(comp)
            comp.build()
            inp.on_next([5, 9])
            inp.on_completed()
            comp.run()
            assert comp.drained()
            results.append(sorted(out))
        assert results[0] == results[1]

    def test_timestamps_carry_all_counters(self):
        comp = Computation()
        inp = comp.new_input()
        depths = set()

        def body(stream):
            def inner_body(inner_stream):
                probed = inner_stream.inspect(
                    lambda t, recs: depths.add(t.depth)
                )
                return probed.select(lambda x: x - 1).where(lambda x: x > 0)

            return stream.iterate(inner_body).where(lambda x: x > 1)

        Stream.from_input(inp).iterate(body).subscribe(lambda t, recs: None)
        comp.build()
        inp.on_next([3])
        inp.on_completed()
        comp.run()
        assert depths == {2}  # two enclosing loop contexts


class TestNestedSummaries:
    def test_summary_through_two_ingresses(self):
        s = PathSummary.ingress(0).then(PathSummary.ingress(1))
        assert s == PathSummary(0, 0, (0, 0))

    def test_inner_feedback_then_egress_cancels(self):
        s = (
            PathSummary.ingress(1)
            .then(PathSummary.feedback(2))
            .then(PathSummary.egress(2))
        )
        assert s == PathSummary.identity(1)

    def test_outer_feedback_dominates_inner(self):
        # One trip around the outer loop vs one around the inner:
        # the inner trip (increment the *last* counter) is earlier.
        outer_trip = PathSummary(1, 1, (0,))  # c1+1, reset c2
        inner_trip = PathSummary(2, 1, ())    # c2+1
        assert inner_trip.less_equal(outer_trip)
        assert not outer_trip.less_equal(inner_trip)

    def test_graph_summaries_for_nested_program(self):
        comp = Computation()
        inp, out = triple_nested_program(comp)
        comp.build()
        table = comp.graph.summaries
        # Input reaches the subscriber with the identity summary.
        subscriber = next(
            s for s in comp.graph.stages if s.name.startswith("subscribe")
        )
        chain = table[(inp.stage, subscriber)]
        assert list(chain) == [PathSummary.identity(0)]
        # Same-scope destinations are reached at their own depth;
        # cross-scope destinations are reached through truncating
        # boundary summaries (at most the LCA depth — here the root).
        for stage in comp.graph.stages:
            key = (inp.stage, stage)
            if key in table:
                for summary in table[key]:
                    if stage.input_context is None:
                        assert summary.target_depth == stage.input_depth
                    else:
                        assert summary.target_depth <= stage.input_depth

    def test_hierarchy_never_under_approximates_flat(self):
        """Every flat could-result-in verdict is preserved by the
        hierarchical index (it may only add conservative positives)."""
        comp = Computation()
        inp, out = triple_nested_program(comp)
        comp.build()
        index = comp.graph.summaries
        flat = index.flat_table()
        locations = list(comp.graph.stages) + list(comp.graph.connectors)
        for l1 in locations:
            d1 = l1.input_depth if hasattr(l1, "input_depth") else l1.depth
            for l2 in locations:
                d2 = l2.input_depth if hasattr(l2, "input_depth") else l2.depth
                flat_chain = flat.get((l1, l2))
                if not flat_chain:
                    continue
                merged = index.get((l1, l2))
                assert merged is not None, (l1, l2)
                for c1 in [(0,) * d1, (1,) * d1, (0,) + (2,) * max(0, d1 - 1)]:
                    for c2 in [(0,) * d2, (1,) * d2, (3,) + (0,) * max(0, d2 - 1)]:
                        if any(
                            s.dominates_counters(c1, c2) for s in flat_chain
                        ):
                            assert any(
                                s.dominates_counters(c1, c2) for s in merged
                            ), (l1, l2, c1, c2)
