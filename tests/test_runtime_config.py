"""Tests for cluster runtime configuration knobs."""

import pytest

from repro.lib import Stream
from repro.runtime import (
    ClusterComputation,
    CostModel,
    FaultTolerance,
    SyntheticRecords,
    batch_bytes,
    record_count,
)


def run_wordcount(**kwargs):
    comp = ClusterComputation(num_processes=2, workers_per_process=2, **kwargs)
    inp = comp.new_input()
    out = []
    (
        Stream.from_input(inp)
        .select_many(str.split)
        .count_by(lambda w: w)
        .subscribe(lambda t, recs: out.extend(recs))
    )
    comp.build()
    inp.on_next(["a b c d" * 20] * 10)
    inp.on_completed()
    comp.run()
    assert comp.drained()
    return comp, out


class TestCostModel:
    def test_higher_per_record_cost_slows_execution(self):
        fast, _ = run_wordcount(cost_model=CostModel(per_record_cost=100e-9))
        slow, _ = run_wordcount(cost_model=CostModel(per_record_cost=10e-6))
        assert slow.now > fast.now

    def test_stage_cost_override(self):
        comp = ClusterComputation(2, 1)
        inp = comp.new_input()
        stream = Stream.from_input(inp).select(lambda x: x)
        stream.subscribe(lambda t, r: None)
        target = stream.stage
        comp.set_stage_cost(target, 1e-3)
        assert comp.stage_record_cost(target) == 1e-3
        other = comp.graph.stages[0]
        assert comp.stage_record_cost(other) == comp.cost_model.per_record_cost

    def test_synthetic_record_accounting(self):
        records = [SyntheticRecords(1000, 8), "plain", SyntheticRecords(5, 100)]
        assert record_count(records) == 1006
        assert batch_bytes(records, default_record_bytes=16) == 8000 + 16 + 500

    def test_wire_bytes_attribute_respected(self):
        class Payload:
            wire_bytes = 4096

        assert batch_bytes([Payload()], default_record_bytes=8) == 4096


class TestRemovedSwitches:
    @pytest.mark.parametrize(
        "switch,value",
        [("columnar", True), ("scheduling", "fifo"), ("progress_batch_interval", 0.0)],
    )
    def test_constructor_rejects_removed_switch(self, switch, value):
        # Record lists are the only payload, FIFO the only worker policy
        # and the progress batch interval a protocol constant: none is a
        # constructor choice any more.
        with pytest.raises(TypeError):
            ClusterComputation(**{switch: value})


class TestBackendValidation:
    """``backend``/``pool_workers`` fail at construction, not at run()."""

    @pytest.mark.parametrize("backend", ["inline", "mp"])
    @pytest.mark.parametrize("workers", [0, -3, 1.5, "2"])
    def test_rejects_a_pool_size_that_is_not_a_positive_int(self, backend, workers):
        with pytest.raises(ValueError, match="pool_workers"):
            ClusterComputation(backend=backend, pool_workers=workers)

    def test_rejects_an_unknown_backend(self):
        with pytest.raises(ValueError, match="backend"):
            ClusterComputation(backend="threads")

    def test_rejects_mp_without_fork(self, monkeypatch):
        import multiprocessing

        monkeypatch.setattr(multiprocessing, "get_all_start_methods", lambda: ["spawn"])
        with pytest.raises(ValueError, match="fork"):
            ClusterComputation(backend="mp")

    @pytest.mark.parametrize("backend", ["inline", "mp"])
    def test_accepts_a_positive_pool_size(self, backend):
        comp = ClusterComputation(backend=backend, pool_workers=1)
        assert (comp.backend, comp.pool_workers, comp.pool) == (backend, 1, None)

    @pytest.mark.parametrize("name", ["REPRO_BACKEND", "REPRO_POOL_WORKERS"])
    def test_environment_selects_nothing(self, monkeypatch, name):
        monkeypatch.setenv(name, "mp" if name == "REPRO_BACKEND" else "0")
        comp = ClusterComputation()
        assert (comp.backend, comp.pool_workers) == ("inline", None)


class TestFaultTolerancePolicies:
    def test_logging_slows_execution(self):
        plain, out_a = run_wordcount()
        logged, out_b = run_wordcount(
            fault_tolerance=FaultTolerance(
                mode="logging", disk_bandwidth=10e6, log_bytes_per_batch=4096
            )
        )
        assert logged.now > plain.now
        assert sorted(out_a) == sorted(out_b)

    def test_checkpoint_pause_injected(self):
        plain, _ = run_wordcount()
        checked, _ = run_wordcount(
            fault_tolerance=FaultTolerance(
                mode="checkpoint",
                checkpoint_every=1,
                state_bytes_per_worker=10 << 20,
                disk_bandwidth=100e6,
            )
        )
        # The single input epoch forces one ~100 ms checkpoint pause.
        assert checked.now > plain.now + 0.09

    def test_cluster_checkpoint_api_matches_reference_runtime(self):
        # checkpoint() -> snapshot dict and restore(snapshot) -> None,
        # the same signatures as repro.core.Computation.
        comp, out = run_wordcount()
        snapshot = comp.checkpoint()
        for key in ("vertices", "occurrence", "pending", "epochs"):
            assert key in snapshot
        before = sorted(out)
        comp.restore(snapshot)
        comp.run()
        # The snapshot covered the fully drained run: nothing replays,
        # no output is duplicated, and the cluster drains again.
        assert comp.drained()
        assert sorted(out) == before


class TestDeterminism:
    def test_same_seed_same_virtual_time(self):
        a, _ = run_wordcount(seed=5)
        b, _ = run_wordcount(seed=5)
        assert a.now == b.now
        assert (
            a.network.stats.bytes_by_kind == b.network.stats.bytes_by_kind
        )

    def test_debug_state_mentions_pending_work(self):
        comp = ClusterComputation(2, 1)
        inp = comp.new_input()
        Stream.from_input(inp).count_by(lambda x: x).subscribe(lambda t, r: None)
        comp.build()
        inp.on_next([1, 2, 3])
        comp.run(max_steps=3)  # stop midway
        text = comp.debug_state()
        assert "t=" in text
        inp.on_completed()
        comp.run()
        assert comp.drained()
