"""Scoped hierarchical progress tracking: equivalence, algebra, API.

Three suites back the scoped-progress redesign:

- **Bit-identity matrix.**  ``progress_tracking="scoped"`` (boundary
  projections only) and ``"flat"`` (the paper's every-pointstamp
  dissemination) must produce identical per-epoch output multisets
  across workloads x fault-tolerance modes x optimizer settings,
  including nested loops.
- **Boundary-summary algebra.**  Unit checks of the projection and the
  collapsed ``ScopeNode`` representation the protocol disseminates.
- **Eager builder validation.**  The scope-based builder API rejects
  malformed loops at construction time with typed errors.
"""

from collections import Counter

import pytest

from repro import Computation
from repro.core import (
    CrossScopeConnectError,
    FeedbackNotConnectedError,
    GraphValidationError,
    PathSummary,
    Timestamp,
    UnclosedScopeError,
)
from repro.algorithms.connectivity import wcc_oracle, weakly_connected_components
from repro.core.graph import StageKind
from repro.lib import Stream, pregel, final_states
from repro.obs import collect_profile
from repro.runtime import ClusterComputation, FaultTolerance
from repro.workloads.graphs import uniform_random_graph

EDGES_A = uniform_random_graph(40, 70, seed=3)
EDGES_B = uniform_random_graph(40, 55, seed=4)


# ----------------------------------------------------------------------
# Workload builders: each returns Counter((epoch, record)) — the
# progress-timing-immune equivalence convention.
# ----------------------------------------------------------------------


def run_wcc(comp, epochs=(EDGES_A, EDGES_B)):
    inp = comp.new_input()
    out = Counter()
    weakly_connected_components(Stream.from_input(inp)).subscribe(
        lambda t, recs: out.update((t.epoch, r) for r in recs)
    )
    comp.build()
    for edges in epochs:
        inp.on_next(edges)
    inp.on_completed()
    comp.run()
    assert comp.drained()
    return out


def run_nested(comp):
    """Three-deep nested iterate: inner counters must project away."""
    inp = comp.new_input()
    out = Counter()

    def inner(stream):
        return stream.select(lambda x: x - 1).where(lambda x: x > 0)

    def middle(stream):
        return inner(stream).iterate(inner).where(lambda x: x % 2 == 0)

    Stream.from_input(inp).iterate(middle).subscribe(
        lambda t, recs: out.update((t.epoch, r) for r in recs)
    )
    comp.build()
    inp.on_next([6, 11])
    inp.on_next([9])
    inp.on_completed()
    comp.run()
    assert comp.drained()
    return out


def run_pregel_cc(comp):
    def compute(ctx):
        best = min(ctx.messages) if ctx.messages else ctx.state
        if ctx.superstep == 0 or best < ctx.state:
            ctx.set_state(min(best, ctx.state))
            ctx.send_to_neighbors(ctx.state)
        ctx.vote_to_halt()

    adj = {}
    for u, v in EDGES_A:
        adj.setdefault(u, []).append(v)
        adj.setdefault(v, []).append(u)
    graph = [(n, n, nbrs) for n, nbrs in adj.items()]

    inp = comp.new_input()
    out = Counter()
    states = pregel(Stream.from_input(inp), compute, max_supersteps=60)
    final_states(states).subscribe(
        lambda t, recs: out.update((t.epoch, r) for r in recs)
    )
    comp.build()
    inp.on_next(graph)
    inp.on_completed()
    comp.run()
    assert comp.drained()
    return out


CASES = {"wcc": run_wcc, "nested": run_nested, "pregel": run_pregel_cc}


def run_case(case, **kwargs):
    kwargs.setdefault("num_processes", 3)
    kwargs.setdefault("workers_per_process", 2)
    kwargs.setdefault("progress_mode", "local+global")
    return CASES[case](ClusterComputation(**kwargs))


class TestScopedFlatBitIdentity:
    """DESIGN.md invariant: dissemination strategy never changes output."""

    @pytest.mark.parametrize("case", sorted(CASES))
    @pytest.mark.parametrize("ft_mode", ["none", "checkpoint", "logging"])
    def test_matrix_ft_modes(self, case, ft_mode):
        ft = FaultTolerance(mode=ft_mode)
        flat = run_case(case, progress_tracking="flat", fault_tolerance=ft)
        scoped = run_case(case, progress_tracking="scoped", fault_tolerance=ft)
        assert scoped == flat

    @pytest.mark.parametrize("case", sorted(CASES))
    @pytest.mark.parametrize("optimize", [False, True])
    def test_matrix_optimizer(self, case, optimize):
        flat = run_case(case, progress_tracking="flat", optimize=optimize)
        scoped = run_case(case, progress_tracking="scoped", optimize=optimize)
        assert scoped == flat

    @pytest.mark.parametrize("mode", ["none", "local", "global", "local+global"])
    def test_matrix_progress_modes(self, mode):
        flat = run_case("wcc", progress_mode=mode, progress_tracking="flat")
        scoped = run_case("wcc", progress_mode=mode, progress_tracking="scoped")
        assert scoped == flat

    def test_wcc_matches_oracle(self):
        oracle = wcc_oracle(EDGES_A)
        scoped = run_case("wcc", progress_tracking="scoped")
        assert {r for e, r in scoped if e == 0} == set(oracle.items())


class TestTrafficAndMemoization:
    """The point of the redesign: boundary summaries shrink the
    coordination traffic, and memoized hold verdicts actually hit."""

    def test_scoped_reduces_progress_traffic(self):
        stats = {}
        for tracking in ("flat", "scoped"):
            comp = ClusterComputation(
                num_processes=4,
                workers_per_process=2,
                progress_mode="local+global",
                progress_tracking=tracking,
            )
            run_wcc(comp)
            stats[tracking] = (
                comp.network.stats.messages("progress"),
                comp.network.stats.bytes("progress"),
            )
        assert stats["scoped"][0] < stats["flat"][0] / 2
        assert stats["scoped"][1] < stats["flat"][1] / 2

    def test_hold_memoization_hits(self):
        comp = ClusterComputation(
            num_processes=4,
            workers_per_process=2,
            progress_mode="local+global",
            progress_tracking="scoped",
        )
        run_wcc(comp)
        endpoints = [e for e in comp.plane.nodes + [comp.plane.central] if e]
        evals = sum(e.hold_evals for e in endpoints)
        hits = sum(e.hold_memo_hits for e in endpoints)
        assert evals > 0
        assert hits > 0  # the 0.0%-hit-rate regression stays fixed
        # The profile (and the spine's runtime.protocol.hold_* rows)
        # reads the same endpoints through the plane.
        profile = collect_profile(comp)
        assert (profile.hold_evals, profile.hold_memo_hits) == (evals, hits)

    def test_hold_scan_is_repeatable(self):
        """Two fresh builds of one program evaluate and reuse exactly as
        many hold verdicts: the dirty scan must not follow the address-
        derived hash order of pointstamps."""

        def counts():
            comp = ClusterComputation(
                num_processes=4, workers_per_process=2, progress_mode="local+global"
            )
            run_wcc(comp)
            endpoints = comp.plane.nodes + [comp.plane.central]
            return (
                sum(e.hold_evals for e in endpoints),
                sum(e.hold_memo_hits for e in endpoints),
            )

        assert counts() == counts()

    def test_wcc_scope_is_summarized(self):
        comp = ClusterComputation(2, 2, progress_tracking="scoped")
        inp = comp.new_input()
        weakly_connected_components(Stream.from_input(inp)).subscribe(
            lambda t, recs: None
        )
        comp.build()
        assert len(comp.plane.summarized_scopes) == 1
        # Interior locations project to the scope's boundary node.
        assert any(comp.plane.is_summarized(s) for s in comp.graph.stages)

    def test_notifying_scope_is_not_summarized(self):
        # Pregel's vertex requests notifications, so its loop must keep
        # full-precision dissemination (and still drain correctly).
        comp = ClusterComputation(2, 2, progress_tracking="scoped")
        run_pregel_cc(comp)
        assert comp.plane.summarized_scopes == ()


def wire_wcc(comp):
    inp = comp.new_input()
    weakly_connected_components(Stream.from_input(inp)).subscribe(
        lambda t, recs: None
    )


def wire_pregel(comp):
    def compute(ctx):
        ctx.vote_to_halt()

    inp = comp.new_input()
    states = pregel(Stream.from_input(inp), compute, max_supersteps=4)
    final_states(states).subscribe(lambda t, recs: None)


def wire_nest(notifying_outer):
    """A decrement loop named "inner" inside one named "outer"; the
    outer body notifies (``distinct``) or does not."""

    def wire(comp):
        def inner(stream):
            return stream.select(lambda x: x - 1).where(lambda x: x > 0)

        def outer(stream):
            if notifying_outer:
                stream = stream.distinct()
            return stream.iterate(inner, name="inner").where(lambda x: x % 2 == 0)

        inp = comp.new_input()
        Stream.from_input(inp).iterate(outer, name="outer").subscribe(
            lambda t, recs: None
        )

    return wire


class TestOneSummarizationRule:
    """The optimizer's plumbing cut-through and the progress plane's
    summarized scopes are one decision (repro.core.scope)."""

    @pytest.mark.parametrize(
        "wire, summarized",
        [
            (wire_wcc, ["wcc"]),
            (wire_pregel, []),
            (wire_nest(False), ["outer", "inner"]),
            (wire_nest(True), ["inner"]),
        ],
        ids=["wcc", "pregel", "quiet-in-quiet", "quiet-in-notifying"],
    )
    def test_cut_through_exactly_where_the_plane_summarizes(self, wire, summarized):
        comp = ClusterComputation(2, 2, progress_tracking="scoped")
        wire(comp)
        comp.build()
        plane = comp.plane
        # Every qualifying scope is listed, nested ones included.
        assert [scope.name for scope in plane.summarized_scopes] == summarized
        eligible = [
            c
            for c in comp.graph.connectors
            if c.partitioner is None
            and c.src.kind is not StageKind.INPUT
            and c.dst.kind
            in (StageKind.INGRESS, StageKind.EGRESS, StageKind.FEEDBACK)
        ]
        assert eligible
        for connector in eligible:
            assert connector.cut_through == (
                connector.dst.context in plane.summarized_scopes
            ), connector
        assert any(c.cut_through for c in eligible) == bool(summarized)


# (nodes, edges, seed, progress_mode): inputs on which a boundary
# pointstamp stayed withheld after the scope's last queued interior
# delivery was gone, because that count had no edge into the hold memo.
# Under "local+global" the run returned undrained with no output (the
# central accumulator's cluster-wide count is the one no later update
# touches); under "local" it emitted a label too many.  Needs 64x2, the
# unfused plan and scoped tracking to show.  The "local" input pins this
# one schedule only: "local" still emits an early label on other seeds
# (177, 306 of uniform_random_graph(300, 600), before and after), which
# is a hole in the hold rules themselves — see DESIGN.md, "The progress
# plane".
STALE_HOLD_INPUTS = [
    (300, 600, 85, "local+global"),
    (300, 600, 87, "local+global"),
    (500, 1000, 7000, "local+global"),
    (300, 600, 90, "local"),
]


class TestQueuedInteriorInvalidatesHolds:
    @pytest.mark.parametrize("nodes, edges, seed, mode", STALE_HOLD_INPUTS)
    def test_wcc_on_64x2_drains_with_reference_labels(self, nodes, edges, seed, mode):
        from repro.runtime import CostModel

        graph = uniform_random_graph(nodes, edges, seed=seed)
        expected = run_wcc(Computation(), [graph])
        comp = ClusterComputation(
            64,
            2,
            cost_model=CostModel(per_record_cost=2e-5, record_bytes=800),
            progress_mode=mode,
            optimize=False,
            backend="inline",
        )
        assert run_wcc(comp, [graph]) == expected  # and drained


class TestBoundarySummaryAlgebra:
    def _wcc_graph(self):
        comp = Computation()
        inp = comp.new_input()
        weakly_connected_components(Stream.from_input(inp)).subscribe(
            lambda t, recs: None
        )
        comp.build()
        return comp

    def test_scope_node_carries_parent_depth(self):
        comp = self._wcc_graph()
        index = comp.graph.summaries
        (scope,) = comp.graph.contexts
        node = index.scope_node(scope)
        assert node.depth == scope.depth - 1 == 0

    def test_projection_drops_inner_counters(self):
        comp = self._wcc_graph()
        (scope,) = comp.graph.contexts
        node = comp.graph.summaries.scope_node(scope)
        assert node.project(Timestamp(3, (17,))) == Timestamp(3, ())
        # Already at boundary depth: projection is the identity.
        assert node.project(Timestamp(3, ())) == Timestamp(3, ())

    def test_boundary_summary_is_identity_at_parent_depth(self):
        """Ingress -> interior -> egress composes to the identity at the
        parent's depth: entering, iterating and leaving never move the
        parent-level coordinates."""
        s = (
            PathSummary.ingress(0)
            .then(PathSummary.feedback(1))
            .then(PathSummary.feedback(1))
            .then(PathSummary.egress(1))
        )
        assert s == PathSummary.identity(0)

    def test_cross_scope_summaries_truncate(self):
        comp = self._wcc_graph()
        index = comp.graph.summaries
        (scope,) = comp.graph.contexts
        inner = [s for s in comp.graph.stages if s.input_context is scope]
        outer = [s for s in comp.graph.stages if s.input_context is None]
        crossing = 0
        for l1 in inner:
            for l2 in outer:
                chain = index.get((l1, l2))
                if chain is None:
                    continue
                crossing += 1
                for summary in chain:
                    assert summary.target_depth == 0
        assert crossing  # the egress path exists

    def test_projected_updates_are_idempotent(self):
        from repro.core.progress import Pointstamp

        comp = ClusterComputation(2, 2, progress_tracking="scoped")
        inp = comp.new_input()
        weakly_connected_components(Stream.from_input(inp)).subscribe(
            lambda t, recs: None
        )
        comp.build()
        plane = comp.plane
        location = next(s for s in comp.graph.stages if plane.is_summarized(s))
        node = comp.graph.summaries.scope_node(plane.summarized_scopes[0])
        once = plane.project([(Pointstamp(Timestamp(0, (2,)), location), 1)])
        assert once == [(Pointstamp(Timestamp(0, ()), node), 1)]
        assert plane.project(once) == once


class TestEagerValidation:
    def test_unfed_feedback_raises_at_scope_exit(self):
        comp = Computation()
        inp = comp.new_input()
        with pytest.raises(FeedbackNotConnectedError) as excinfo:
            with Stream.from_input(inp).scoped_loop(name="hole") as loop:
                loop.entered.select(lambda x: x)
        assert excinfo.value.scope_name == "hole"

    def test_body_exception_is_not_masked(self):
        comp = Computation()
        inp = comp.new_input()
        with pytest.raises(ZeroDivisionError):
            with Stream.from_input(inp).scoped_loop() as loop:
                1 // 0

    def test_unclosed_scope_rejected_at_build(self):
        comp = Computation()
        inp = comp.new_input()
        scope = Stream.from_input(inp).scoped_loop(name="dangling")
        scope.__enter__()
        scope.feed(scope.feedback.select(lambda x: x))
        with pytest.raises(UnclosedScopeError, match="dangling"):
            comp.build()

    def test_cross_scope_connect_rejected_eagerly(self):
        from repro.core import ForwardingVertex

        comp = Computation()
        inp = comp.new_input()
        with Stream.from_input(inp).scoped_loop() as loop:
            loop.feed(loop.entered)
            outside = comp.graph.new_stage(
                "sink", lambda s, w: ForwardingVertex(), 1, 1
            )
            # Escapes the scope without an egress stage: rejected at
            # connect time, not at freeze.
            with pytest.raises(CrossScopeConnectError):
                loop.feedback.connect_to(outside, 0)

    def test_leave_with_checks_context(self):
        comp = Computation()
        inp = comp.new_input()
        outside = Stream.from_input(inp)
        with pytest.raises(GraphValidationError):
            with outside.scoped_loop() as loop:
                loop.feed(loop.entered)
                loop.leave_with(outside)  # not a stream of this scope

    def test_double_feed_rejected(self):
        comp = Computation()
        inp = comp.new_input()
        with pytest.raises(GraphValidationError, match="already"):
            with Stream.from_input(inp).scoped_loop() as loop:
                loop.feed(loop.entered)
                loop.feed(loop.entered)
