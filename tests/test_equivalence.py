"""Property-based runtime equivalence on randomly generated programs.

DESIGN.md invariant 5, in its strongest form: hypothesis composes random
operator pipelines (including iteration) and random epoch inputs; the
per-epoch output multisets must be identical on the reference runtime
and on simulated clusters of random shapes and protocol modes — and
unaffected by packet loss or GC stragglers.
"""

from collections import Counter

import pytest
from hypothesis import given, settings, strategies as st

from repro import Computation
from repro.lib import Stream
from repro.runtime import ClusterComputation
from repro.sim import NetworkConfig

# ----------------------------------------------------------------------
# Random pipelines: each element appends one operator to the chain.
# ----------------------------------------------------------------------

OPERATORS = {
    "select": lambda s: s.select(lambda x: x * 3 + 1),
    "where": lambda s: s.where(lambda x: x % 2 == 1),
    "select_many": lambda s: s.select_many(lambda x: [x, x // 2]),
    "distinct": lambda s: s.distinct(),
    "count_by": lambda s: s.count_by(lambda x: x % 5),
    "sum_by": lambda s: s.aggregate_by(
        lambda x: x % 3, lambda x: x, lambda a, b: a + b
    ),
    "min_by": lambda s: s.min_by(lambda x: x % 3, lambda x: x),
    "top_k": lambda s: s.top_k(3, score=lambda x: x),
    "iterate": lambda s: s.iterate(
        lambda body: body.select(lambda x: x - 2).where(lambda x: x > 0),
        partitioner=lambda x: x if isinstance(x, int) else hash(x),
    ),
}

# Keyed outputs (tuples) change the record type; restrict what follows.
AFTER_TUPLES = {"distinct", "top_k"}
TUPLE_PRODUCERS = {"count_by", "sum_by", "min_by"}


@st.composite
def pipelines(draw):
    names = []
    tuples = False
    for _ in range(draw(st.integers(1, 4))):
        pool = sorted(AFTER_TUPLES) if tuples else sorted(OPERATORS)
        name = draw(st.sampled_from(pool))
        names.append(name)
        if name in TUPLE_PRODUCERS:
            tuples = True
    return names


def build_pipeline(names, stream):
    for name in names:
        stream = OPERATORS[name](stream)
    return stream


epoch_inputs = st.lists(
    st.lists(st.integers(min_value=0, max_value=30), max_size=12),
    min_size=1,
    max_size=3,
)


def run_program(comp, names, epochs):
    inp = comp.new_input()
    out = Counter()
    build_pipeline(names, Stream.from_input(inp)).subscribe(
        lambda t, recs: out.update((t.epoch, r) for r in recs)
    )
    comp.build()
    for records in epochs:
        inp.on_next(records)
    inp.on_completed()
    comp.run()
    assert comp.drained()
    return out


class TestRandomProgramEquivalence:
    @given(
        pipelines(),
        epoch_inputs,
        st.sampled_from([(1, 2), (2, 2), (3, 1), (2, 3)]),
        st.sampled_from(["none", "local", "global", "local+global"]),
        st.sampled_from(["scoped", "flat"]),
    )
    @settings(max_examples=25, deadline=None)
    def test_cluster_matches_reference(self, names, epochs, shape, mode, tracking):
        expected = run_program(Computation(), names, epochs)
        actual = run_program(
            ClusterComputation(
                num_processes=shape[0],
                workers_per_process=shape[1],
                progress_mode=mode,
                progress_tracking=tracking,
            ),
            names,
            epochs,
        )
        assert actual == expected, names

    # Derandomized: random draws found the scoped hold-rule hole
    # (ROADMAP item 1) in about 3 runs of 40, and a property that fails
    # by luck cannot gate.  Its two known falsifying inputs are pinned
    # below until the hole is closed.
    @given(pipelines(), epoch_inputs, st.integers(0, 1000))
    @settings(max_examples=15, deadline=None, derandomize=True)
    def test_stragglers_never_change_results(self, names, epochs, seed):
        assert_stragglers_do_not_change_results(names, epochs, seed)

    @pytest.mark.xfail(strict=True, reason="scoped hold-rule hole, ROADMAP item 1")
    @pytest.mark.parametrize(
        "names,epochs",
        [(["iterate", "select", "iterate"], [[6]]), (["iterate", "top_k"], [[5]])],
    )
    def test_stragglers_known_hold_rule_failures(self, names, epochs):
        assert_stragglers_do_not_change_results(names, epochs, seed=1)

    # A ratchet on the hole's deterministic sweep (ROADMAP item 2): for
    # both known programs and every protocol mode, the wrong-output
    # counts over seeds 0-39 may shrink, never grow.
    @pytest.mark.parametrize(
        "program,mode,bound",
        [
            (program, mode, bound)
            for program, bounds in (("A", (0, 32, 0, 27)), ("B", (2, 24, 5, 23)))
            for mode, bound in zip(("none", "local", "global", "local+global"), bounds)
        ],
    )
    def test_hold_rule_sweep_does_not_widen(self, program, mode, bound):
        names, epochs = HOLE_PROGRAMS[program]
        expected = run_program(Computation(), names, epochs)
        wrong = [
            seed
            for seed in range(40)
            if run_program(straggler_cluster(mode, seed), names, epochs) != expected
        ]
        assert len(wrong) <= bound, wrong


#: The two programs the scoped-progress hole is known to break.
HOLE_PROGRAMS = {
    "A": (["iterate", "select", "iterate"], [[6]]),
    "B": (["iterate", "top_k"], [[5]]),
}


def straggler_cluster(mode, seed):
    """3x2 workers on a network that drops a fifth of its packets and
    pauses for GC."""
    return ClusterComputation(
        num_processes=3,
        workers_per_process=2,
        progress_mode=mode,
        network=NetworkConfig(
            packet_loss_probability=0.2,
            retransmit_timeout=3e-3,
            gc_interval=1e-3,
            gc_pause=2e-3,
        ),
        seed=seed,
    )


def assert_stragglers_do_not_change_results(names, epochs, seed):
    expected = run_program(Computation(), names, epochs)
    actual = run_program(straggler_cluster("local+global", seed), names, epochs)
    assert actual == expected, names


class TestNewOperators:
    def test_union(self):
        comp = Computation()
        a, b = comp.new_input(), comp.new_input()
        got = Stream.from_input(a).union(Stream.from_input(b)).collect()
        comp.build()
        a.on_next([1, 2, 2])
        b.on_next([2, 3])
        a.on_completed()
        b.on_completed()
        comp.run()
        assert sorted(got[0][1]) == [1, 2, 3]

    def test_min_by_max_by(self):
        comp = Computation()
        inp = comp.new_input()
        lows = Stream.from_input(inp).min_by(lambda r: r[0], lambda r: r[1]).collect()
        comp.build()
        inp.on_next([("a", 5), ("a", 2), ("b", 9)])
        inp.on_completed()
        comp.run()
        assert sorted(lows[0][1]) == [("a", 2), ("b", 9)]

    def test_top_k(self):
        comp = Computation()
        inp = comp.new_input()
        got = Stream.from_input(inp).top_k(2, score=lambda x: x).collect()
        comp.build()
        inp.on_next([5, 1, 9, 7, 3])
        inp.on_completed()
        comp.run()
        assert sorted(got[0][1]) == [7, 9]

    def test_top_k_distributed_combiner(self):
        comp = ClusterComputation(2, 2)
        inp = comp.new_input()
        results = []
        Stream.from_input(inp).top_k(3, score=lambda x: x).subscribe(
            lambda t, recs: results.extend(recs)
        )
        comp.build()
        inp.on_next(list(range(40)))
        inp.on_completed()
        comp.run()
        assert sorted(results) == [37, 38, 39]
