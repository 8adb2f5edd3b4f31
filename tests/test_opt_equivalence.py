"""A/B equivalence of optimized and unoptimized plans.

The optimizer's contract is that fusion, exchange elision, batch
coalescing and plumbing cut-through are invisible in the outputs: for
every program in the recovery matrix, the default (fused) plan must
release exactly the same per-epoch output multisets as the unrewritten
``optimize=False`` plan, which survives only as this oracle — across
fault-tolerance modes, with mid-run process kills, and under the
multiprocessing backend (where the mp run of a fused plan must
additionally stay bit-identical to the inline run of the same plan).  Virtual time and DES event
counts legitimately differ between fused and unfused plans — that is
the point — so only outputs are compared across that boundary, and the
WCC test asserts the event count actually *drops*.
"""

import random
from collections import Counter

import pytest

from repro.algorithms import weakly_connected_components
from repro.lib import Stream
from repro.obs import TraceSink, event_counts, frontier_trace
from repro.parallel import fork_available
from repro.runtime import ClusterComputation, CostModel

from tests.test_recovery import (
    CASES,
    FT_MODES,
    SHAPES,
    baseline,
    collect_per_epoch,
    make_ft,
    run_cluster,
)

_unfused_outputs = {}


def unfused_outputs(case, shape):
    """The oracle: per-epoch outputs of the unrewritten plan."""
    key = (case, shape)
    if key not in _unfused_outputs:
        _unfused_outputs[key], _ = run_cluster(case, shape, optimize=False)
    return _unfused_outputs[key]


class TestFusedOutputsMatchUnfused:
    @pytest.mark.parametrize("case", sorted(CASES))
    @pytest.mark.parametrize("shape", SHAPES)
    def test_per_epoch_outputs_identical(self, case, shape):
        expected = unfused_outputs(case, shape)
        out, comp = run_cluster(case, shape, optimize=True)
        assert out == expected
        # The optimizer really did something to every one of these
        # programs (at minimum, coalescing hints).
        assert comp.plan is not None and comp.plan.rewrite_count > 0

    @pytest.mark.parametrize("case", sorted(CASES))
    @pytest.mark.parametrize("mode", FT_MODES)
    def test_kill_and_recover_with_fusion(self, case, mode):
        shape = (2, 2)
        expected = unfused_outputs(case, shape)
        _, duration = baseline(case, shape)  # the default plan is the fused one
        rng = random.Random(31 * FT_MODES.index(mode) + sorted(CASES).index(case))
        kill = (rng.randrange(shape[0]), duration * rng.uniform(0.2, 0.8))
        out, comp = run_cluster(
            case, shape, ft=make_ft(mode), kill=kill, optimize=True
        )
        assert out == expected
        assert len(comp.recovery.failures) == 1


# ----------------------------------------------------------------------
# Composite checkpoint/restore of a *stateful* fused chain under kill.
# ----------------------------------------------------------------------

STATEFUL_EPOCHS = [
    list(range(12)),
    [5, 5, 9, 30],
    [],
    [2, 4, 6, 8, 10, 12],
]


def run_stateful(shape=(2, 2), ft=None, kill=None, optimize=False, **kwargs):
    """select -> buffered -> where fuses into a chain whose middle
    constituent holds per-timestamp buffers and uses notifications, so a
    rollback must restore state *inside* the fused vertex."""
    comp = ClusterComputation(
        num_processes=shape[0],
        workers_per_process=shape[1],
        fault_tolerance=ft,
        optimize=optimize,
        **kwargs
    )
    inp = comp.new_input("nums")
    out = {}
    (
        Stream.from_input(inp)
        .select(lambda x: x + 1)
        .buffered(lambda rs: sorted(rs))
        .where(lambda x: x % 2 == 0)
        .count_by(lambda x: x % 3)
        .subscribe(collect_per_epoch(out))
    )
    comp.build()
    if optimize:
        constituents = [
            s.opspec.constituents for s in comp.plan.fused_stages()
        ]
        assert ("select", "buffered", "where") in constituents
    if kill is not None:
        comp.kill_process(kill[0], at=kill[1])
    for epoch in STATEFUL_EPOCHS:
        inp.on_next(epoch)
    inp.on_completed()
    comp.run()
    assert comp.drained(), comp.debug_state()
    return out, comp


class TestStatefulFusedChainRecovery:
    def test_outputs_match_unfused(self):
        expected, _ = run_stateful(optimize=False)
        out, _ = run_stateful(optimize=True)
        assert out == expected

    @pytest.mark.parametrize("mode", FT_MODES)
    @pytest.mark.parametrize("fraction", [0.3, 0.7])
    def test_kill_restores_fused_internal_state(self, mode, fraction):
        expected, _ = run_stateful(optimize=False)
        _, fused_comp = run_stateful(optimize=True)
        out, comp = run_stateful(
            ft=make_ft(mode),
            kill=(1, fused_comp.now * fraction),
            optimize=True,
        )
        assert out == expected
        assert len(comp.recovery.failures) == 1


# ----------------------------------------------------------------------
# mp backend x fusion: inline-fused and mp-fused stay bit-identical.
# ----------------------------------------------------------------------


def observe_fused(case, shape, backend, ft=None, kill=None):
    sink = TraceSink()
    out, comp = run_cluster(
        case,
        shape,
        ft=ft,
        kill=kill,
        backend=backend,
        pool_workers=2,
        trace=sink,
        optimize=True,
    )
    events = list(sink)
    counts = event_counts(events)
    counts.pop("pool", None)
    observables = {
        "virtual_time": comp.sim.now,
        "events_executed": comp.sim.events_executed,
        "outputs": out,
        "frontier": frontier_trace(events),
        "event_counts": counts,
    }
    offloaded = comp.pool.tasks_offloaded if backend == "mp" else None
    comp.close()
    return observables, offloaded


@pytest.mark.skipif(
    not fork_available(), reason="mp backend requires the fork start method"
)
class TestFusedMpBackend:
    @pytest.mark.parametrize("case", sorted(CASES))
    def test_fused_plans_are_backend_bit_identical(self, case):
        inline, _ = observe_fused(case, (2, 2), "inline")
        mp, offloaded = observe_fused(case, (2, 2), "mp")
        for key in inline:
            assert inline[key] == mp[key], (case, key)
        assert offloaded > 0  # fused stages offload like any NORMAL stage

    @pytest.mark.parametrize("mode", FT_MODES)
    def test_fused_kill_recovery_backend_bit_identical(self, mode):
        case, shape = "wordcount", (2, 2)
        _, duration = baseline(case, shape)  # the default plan is the fused one
        kill = (0, duration * 0.4)
        inline, _ = observe_fused(case, shape, "inline", ft=make_ft(mode), kill=kill)
        mp, _ = observe_fused(case, shape, "mp", ft=make_ft(mode), kill=kill)
        for key in inline:
            assert inline[key] == mp[key], (mode, key)


# ----------------------------------------------------------------------
# The optimizer pays off on the flagship workload: WCC on 64 computers.
# ----------------------------------------------------------------------


def run_wcc64(optimize, edges):
    comp = ClusterComputation(
        num_processes=64,
        workers_per_process=2,
        progress_mode="local+global",
        cost_model=CostModel(per_record_cost=2e-5, record_bytes=800),
        optimize=optimize,
    )
    out = []
    inp = comp.new_input()
    weakly_connected_components(Stream.from_input(inp)).subscribe(
        lambda t, recs: out.extend(recs)
    )
    comp.build()
    inp.on_next(edges)
    inp.on_completed()
    comp.run()
    assert comp.drained(), comp.debug_state()
    return sorted(out), comp


def test_fusion_reduces_wcc64_event_count():
    from repro.workloads import uniform_random_graph

    edges = uniform_random_graph(600, 1200, seed=2)
    labels, plain = run_wcc64(False, edges)
    fused_labels, fused = run_wcc64(True, edges)
    assert fused_labels == labels
    # Coalesced proposal fan-in plus the fused arcs stage must show up
    # as a real event-count reduction (the Fig 6 preset measures ~30%;
    # the smaller graph here still clears 10% comfortably).
    assert fused.sim.events_executed < 0.9 * plain.sim.events_executed
    assert fused.coalesced_batches > 0
    counts = Counter(r[1] for r in labels)
    assert sum(counts.values()) == len(labels)
