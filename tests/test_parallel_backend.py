"""The mp backend against the inline one: all of its coverage.

The mp backend (``repro.parallel``) maps pure record chains in a fork
pool and commits their results in DES order, so it must be
bit-identical to inline: same final virtual time, foreground event
count, frontier trace, trace event counts, progress traffic, failures,
rescales and per-epoch outputs — failure-free, across kills and live
rescaling, on a hostile network and through asynchronous cuts.  It must
offload exactly the pure maps, and fail fast with the user's own
exception.
"""

import faulthandler
import os
from collections import Counter

import pytest

from repro import Computation
from repro.algorithms.connectivity import wcc_oracle
from repro.lib import Stream
from repro.obs import TraceSink, event_counts, frontier_trace
from repro.parallel import fork_available
from repro.runtime import ClusterComputation
from repro.runtime.async_checkpoint import AsyncCheckpointManager
from repro.sim import NetworkConfig

from tests import test_scoped_progress
from tests.test_data_plane import EDGES, keyed_program, run_wcc
from tests.test_opt import FailFastChecks
from tests.test_recovery import CASES, FT_MODES, baseline, make_ft, run_cluster

pytestmark = pytest.mark.skipif(
    not fork_available(), reason="mp backend requires the fork start method"
)

POOL_WORKERS = 2


def observe(case, shape, backend, **kwargs):
    """Run one configuration and collect every equivalence observable."""
    sink = TraceSink()
    out, comp = run_cluster(
        case, shape, backend=backend, pool_workers=POOL_WORKERS, trace=sink, **kwargs
    )
    events = list(sink)
    observables = {
        "virtual_time": comp.sim.now,
        "events_executed": comp.sim.events_executed,
        "outputs": out,
        "frontier": frontier_trace(events),
        "event_counts": event_counts(events),
        "progress_messages": dict(comp.network.stats.messages_by_kind),
        "progress_bytes": dict(comp.network.stats.bytes_by_kind),
        "failures": [dict(failure) for failure in comp.recovery.failures],
        "rescales": list(comp.rescales),
    }
    offloaded = comp.pool.tasks_offloaded if comp.pool is not None else 0
    comp.close()
    return observables, offloaded


def assert_identical(case, shape, **kwargs):
    inline, _ = observe(case, shape, "inline", **kwargs)
    mp, offloaded = observe(case, shape, "mp", **kwargs)
    for key in inline:
        assert inline[key] == mp[key], (case, shape, key)
    return mp, offloaded


class TestBackendEquivalence:
    @pytest.mark.parametrize("case", sorted(CASES))
    @pytest.mark.parametrize("optimize", [None, False])
    def test_failure_free_runs_are_bit_identical(self, case, optimize):
        _, offloaded = assert_identical(case, (2, 2), optimize=optimize)
        # The pool did the work, except where no stage is a pure map:
        # random-b's default plan fuses its count_by into its one chain.
        assert (offloaded > 0) == ((case, optimize) != ("random-b", None))

    @pytest.mark.parametrize("case", ["wordcount", "random-b"])
    @pytest.mark.parametrize("mode", FT_MODES)
    def test_kill_under_restart_is_bit_identical(self, case, mode):
        _, duration = baseline(case, (2, 2))
        mp, _ = assert_identical(case, (2, 2), ft=make_ft(mode), kill=(0, duration * 0.4))
        assert len(mp["failures"]) == 1

    def test_kill_under_reassign_is_bit_identical(self):
        _, duration = baseline("wordcount", (3, 2))
        ft = make_ft("logging", policy="reassign")
        mp, _ = assert_identical("wordcount", (3, 2), ft=ft, kill=(1, duration * 0.5))
        assert len(mp["failures"]) == 1

    @pytest.mark.parametrize("op", ["add", "remove"])
    def test_live_rescale_is_bit_identical(self, op):
        _, duration = baseline("wordcount", (3, 2))
        ft = make_ft("checkpoint", policy="reassign")
        at = duration * 0.4
        rescale = [("add", at)] if op == "add" else [("remove", 2, at)]
        mp, _ = assert_identical("wordcount", (3, 2), ft=ft, rescale=rescale)
        assert [r["kind"] for r in mp["rescales"]] == [op]

    def test_hostile_network_is_bit_identical(self):
        network = NetworkConfig(packet_loss_probability=0.1, gc_interval=2e-3, gc_pause=1e-3)
        assert_identical("iterate", (2, 2), ft=make_ft("checkpoint"), network=network)

    def test_async_cut_with_offloaded_results_in_flight(self, monkeypatch):
        # Every worker cut of the mp run counts the queue entries that
        # carry a task: the cut captures their records, never the task.
        carried = []
        snapshot_worker = AsyncCheckpointManager.snapshot_worker

        def spy(manager, worker):
            carried.append(sum(entry[5] is not None for entry in worker.queue))
            snapshot_worker(manager, worker)

        monkeypatch.setattr(AsyncCheckpointManager, "snapshot_worker", spy)
        _, duration = baseline("wordcount", (2, 2))
        assert_identical(
            "wordcount", (2, 2), ft=make_ft("checkpoint"), kill=(1, duration * 0.6)
        )
        assert max(carried) > 0

    def test_scoped_and_flat_tracking_agree(self):
        outputs = []
        for tracking in ("flat", "scoped"):
            comp = ClusterComputation(
                3, 2, progress_mode="local+global", progress_tracking=tracking,
                backend="mp", pool_workers=POOL_WORKERS,
            )
            outputs.append(test_scoped_progress.run_nested(comp))
            assert comp.pool.tasks_offloaded > 0
            comp.close()
        assert outputs[0] == outputs[1]

    @pytest.mark.parametrize("optimize", [False, True])
    def test_wcc_matches_oracle_and_inline_virtual_time(self, optimize):
        out, now, info = run_wcc("mp", optimize)
        assert out == sorted(wcc_oracle(EDGES).items())
        assert now == run_wcc("inline", optimize)[1]
        assert info["offloaded"] > 0

    @pytest.mark.parametrize("optimize", [False, True])
    def test_count_aggregate_join_match_reference(self, optimize):
        comp = ClusterComputation(
            2, 2, backend="mp", pool_workers=POOL_WORKERS, optimize=optimize
        )
        try:
            assert keyed_program(comp) == keyed_program(Computation())
        finally:
            comp.close()

    def test_close_mid_run_finishes_inline(self):
        expected, _ = observe("wordcount", (2, 2), "inline")
        program, epochs = CASES["wordcount"]
        comp = ClusterComputation(2, 2, backend="mp", pool_workers=POOL_WORKERS)
        inp, out = program(comp)
        comp.build()
        for epoch in epochs:
            inp.on_next(epoch)
        inp.on_completed()
        comp.run(max_steps=20)
        assert any(entry[5] is not None for w in comp.workers for entry in w.queue)
        comp.close()
        comp.run()
        assert comp.drained()
        assert (out, comp.now) == (expected["outputs"], expected["virtual_time"])

    def test_full_pipes_with_more_children_than_cores(self):
        # Every delivery ships ~64 KB and gets ~128 KB back, all sent
        # before the first is read, so both directions of every pipe
        # fill; the run must still finish (or the timer kills it).
        faulthandler.dump_traceback_later(120, exit=True)
        try:
            results = []
            for backend in ("inline", "mp"):
                comp = ClusterComputation(
                    2, 2, backend=backend, pool_workers=(os.cpu_count() or 1) + 2
                )
                out = []
                inp = comp.new_input()
                Stream.from_input(inp).select(lambda s: s + s).subscribe(
                    lambda t, recs: out.extend((t.epoch, len(r)) for r in recs)
                )
                comp.build()
                for epoch in range(30):
                    inp.on_next(["%d" % epoch * (64 << 10)] * 4)
                inp.on_completed()
                comp.run()
                results.append((sorted(out), comp.now))
            assert comp.pool.tasks_offloaded == 120
            comp.close()
        finally:
            faulthandler.cancel_dump_traceback_later()
        assert results[0] == results[1]


def _burn(x):
    return x + sum(i * i for i in range(50)) % 2


class TestWhatIsOffloaded:
    def test_every_delivery_of_the_udf_chain_is_offloaded(self):
        # The spine's udf_chain shape: four selects fuse into one pure
        # chain; 20 epochs of 6 records make 120 deliveries, all inside
        # the window of two children.
        results = {}
        for backend in ("inline", "mp"):
            comp = ClusterComputation(
                8, 2, progress_mode="local+global", backend=backend,
                pool_workers=POOL_WORKERS,
            )
            out = []
            inp = comp.new_input()
            stream = Stream.from_input(inp)
            for _ in range(4):
                stream = stream.select(_burn)
            stream.subscribe(lambda t, recs: out.extend((t.epoch, r) for r in recs))
            comp.build()
            for epoch in range(20):
                inp.on_next(list(range(epoch * 6, epoch * 6 + 6)))
            inp.on_completed()
            comp.run()
            results[backend] = (sorted(out), comp.now, comp.sim.events_executed)
        (fused,) = comp.plan.fused_stages()
        assert comp.pool.offload == {(fused.index, worker) for worker in range(16)}
        assert comp.pool.tasks_offloaded == 120
        assert comp.pool.child_seconds > 0
        assert results["mp"] == results["inline"]
        comp.close()

    def test_count_by_and_driver_side_stages_are_never_offloaded(self):
        results = {}
        for backend in ("inline", "mp"):
            comp = ClusterComputation(2, 2, backend=backend, pool_workers=POOL_WORKERS)
            out, seen = Counter(), []
            inp = comp.new_input()
            (
                Stream.from_input(inp)
                .select(lambda x: x * 3, name="triple")
                .count_by(lambda x: x % 5)
                .inspect(lambda t, recs: seen.extend(recs))
                .select(lambda kv: (kv[0], -kv[1]), name="negate")
                .subscribe(lambda t, recs: out.update(recs))
            )
            comp.build()
            inp.on_next(list(range(40)))
            inp.on_completed()
            comp.run()
            results[backend] = (out, sorted(seen), comp.now)
        names = {stage.index: stage.name for stage in comp.graph.stages}
        assert {names[index] for index, _ in comp.pool.offload} == {"triple", "negate"}
        assert comp.pool.tasks_offloaded > 0
        assert results["mp"] == results["inline"]
        comp.close()


class TestChildErrorPropagation:
    def run_failing(self, function):
        comp = ClusterComputation(2, 2, backend="mp", pool_workers=POOL_WORKERS)
        inp = comp.new_input()
        Stream.from_input(inp).select(function).subscribe(lambda t, recs: None)
        comp.build()
        inp.on_next([7])
        inp.on_completed()
        try:
            comp.run()
        finally:
            comp.close()

    def test_failing_udf_surfaces_its_real_traceback(self):
        # A UDF crashing inside a pool child surfaces on the coordinator
        # as itself, with the child's own stack — the UDF's frame and its
        # actual line number — as its cause.
        def explode(x):
            raise ValueError("boom %d" % x)

        boom_line = explode.__code__.co_firstlineno + 1
        with pytest.raises(ValueError, match="boom 7") as info:
            self.run_failing(explode)
        assert isinstance(info.value.__cause__, RuntimeError)
        message = str(info.value.__cause__)
        assert "child traceback" in message and "boom 7" in message
        assert "in explode" in message and "test_parallel_backend.py" in message
        assert "line %d" % boom_line in message

    def test_an_exception_that_does_not_pickle_surfaces_as_the_child_stack(self):
        class LocalError(Exception):  # a local class does not pickle
            pass

        def explode(x):
            raise LocalError("local %d" % x)

        with pytest.raises(RuntimeError, match="child traceback") as info:
            self.run_failing(explode)
        assert "LocalError: local 7" in str(info.value)


@pytest.mark.parametrize("kind", ["mp"])
class TestFailFast(FailFastChecks):
    pass
