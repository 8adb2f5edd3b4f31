"""A/B equivalence of the inline and multiprocessing execution backends.

The mp backend moves vertex callback *bodies* into pool children; the
discrete-event coordinator still owns virtual time and the progress
protocol, so the two backends must be bit-identical: same final virtual
time, same foreground event count, same frontier trace, same progress
traffic, and the same per-epoch outputs — with and without failures and
recovery.  These tests run the same programs under both backends across
graphs and fault-tolerance modes and compare all of those observables.
"""

import pytest

from repro.obs import TraceSink, event_counts, frontier_trace, pool_timelines
from repro.parallel import fork_available
from repro.sim import NetworkConfig

from tests.test_recovery import CASES, FT_MODES, baseline, make_ft, run_cluster

pytestmark = pytest.mark.skipif(
    not fork_available(), reason="mp backend requires the fork start method"
)

POOL_WORKERS = 2


def observe(case, shape, backend, ft=None, kill=None, network=None):
    """Run one configuration and collect every equivalence observable."""
    sink = TraceSink()
    out, comp = run_cluster(
        case,
        shape,
        ft=ft,
        kill=kill,
        network=network,
        backend=backend,
        pool_workers=POOL_WORKERS,
        trace=sink,
    )
    events = list(sink)
    counts = event_counts(events)
    counts.pop("pool", None)  # mp-only bookkeeping, not schedule state
    observables = {
        "virtual_time": comp.sim.now,
        "events_executed": comp.sim.events_executed,
        "outputs": out,
        "frontier": frontier_trace(events),
        "event_counts": counts,
        "progress_messages": dict(comp.network.stats.messages_by_kind),
        "progress_bytes": dict(comp.network.stats.bytes_by_kind),
    }
    if backend == "mp":
        observables["pool_tasks"] = comp.pool.tasks_offloaded
    comp.close()
    return observables


def assert_identical(case, shape, ft=None, kill=None, network=None):
    a = observe(case, shape, "inline", ft=ft, kill=kill, network=network)
    b = observe(case, shape, "mp", ft=ft, kill=kill, network=network)
    offloaded = b.pop("pool_tasks")
    for key in a:
        assert a[key] == b[key], (case, shape, key)
    return offloaded


class TestBackendEquivalence:
    @pytest.mark.parametrize("case", sorted(CASES))
    def test_failure_free_runs_are_bit_identical(self, case):
        offloaded = assert_identical(case, (2, 2))
        assert offloaded > 0  # the pool actually did the work

    @pytest.mark.parametrize("case", ["wordcount", "random-b"])
    @pytest.mark.parametrize("mode", FT_MODES)
    def test_kill_and_recovery_are_bit_identical(self, case, mode):
        shape = (2, 2)
        _, duration = baseline(case, shape)
        assert_identical(
            case, shape, ft=make_ft(mode), kill=(0, duration * 0.4)
        )

    def test_reassign_recovery_is_bit_identical(self):
        shape = (3, 2)
        _, duration = baseline("wordcount", shape)
        assert_identical(
            "wordcount",
            shape,
            ft=make_ft("logging", policy="reassign"),
            kill=(1, duration * 0.5),
        )

    def test_hostile_network_is_bit_identical(self):
        network = NetworkConfig(
            packet_loss_probability=0.1, gc_interval=2e-3, gc_pause=1e-3
        )
        assert_identical(
            "iterate", (2, 2), ft=make_ft("checkpoint"), network=network
        )

    def test_pool_timelines_cover_the_offloaded_work(self):
        sink = TraceSink()
        out, comp = run_cluster(
            "wordcount",
            (2, 2),
            backend="mp",
            pool_workers=POOL_WORKERS,
            trace=sink,
        )
        lines = pool_timelines(list(sink))
        assert sum(line.tasks for line in lines.values()) == (
            comp.pool.tasks_offloaded
        )
        assert all(0 <= rank < POOL_WORKERS for rank in lines)
        comp.close()


class TestChildErrorPropagation:
    def test_failing_udf_surfaces_its_real_traceback(self):
        # A UDF crashing inside a pool child must surface on the
        # coordinator as itself, with the child's own stack — the UDF's
        # frame and its actual line number — as its cause, not just a
        # flattened "something failed in the pool".
        from repro.lib import Stream
        from repro.runtime import ClusterComputation

        def explode(x):
            raise ValueError("boom %d" % x)

        boom_line = explode.__code__.co_firstlineno + 1
        comp = ClusterComputation(
            num_processes=2,
            workers_per_process=2,
            backend="mp",
            pool_workers=POOL_WORKERS,
        )
        inp = comp.new_input()
        Stream.from_input(inp).select(explode).subscribe(lambda t, recs: None)
        comp.build()
        inp.on_next([7])
        inp.on_completed()
        with pytest.raises(ValueError, match="boom 7") as info:
            comp.run()
        assert isinstance(info.value.__cause__, RuntimeError)
        message = str(info.value.__cause__)
        assert "ValueError" in message
        assert "boom 7" in message
        assert "child traceback" in message
        assert "in explode" in message
        assert "test_parallel_backend.py" in message
        assert "line %d" % boom_line in message
        comp.close()
