"""The record-list data plane across routing, plans and kills.

Channel payloads are record lists and nothing else.  ``route`` is the
one partitioning function behind every send; these tests pin its
bucketing, then run the plans the data plane carries most — WCC
(select_many -> min-label loop -> aggregate) and a
count_by/aggregate_by/join plan — across plan shapes
(unoptimized/default) and mid-run process kills, against the WCC
oracle, the reference runtime and the unfailed run.  The mp backend's
runs of the same plans live in tests/test_parallel_backend.py.
"""

import random
from collections import Counter

import pytest

from repro import Computation
from repro.algorithms import weakly_connected_components
from repro.algorithms.connectivity import wcc_oracle
from repro.lib import Stream
from repro.runtime import ClusterComputation
from repro.core.worker import route
from repro.workloads import uniform_random_graph

from tests.test_recovery import make_ft


class _Connector:
    """The one attribute ``route`` reads from a connector."""

    def __init__(self, partitioner):
        self.partitioner = partitioner


class TestRoute:
    @pytest.mark.parametrize("total", [1, 2, 5])
    def test_exchange_buckets_by_partitioner_in_send_order(self, total):
        rng = random.Random(7)
        records = [
            (rng.randrange(-50, 2**62), rng.randrange(100)) for _ in range(200)
        ]
        connector = _Connector(lambda rec: hash(rec[0]))
        shares = dict(route(connector, records, total, local_index=0))
        expected = {}
        for rec in records:
            expected.setdefault(hash(rec[0]) % total, []).append(rec)
        assert shares == expected
        assert all(type(share) is list for share in shares.values())

    def test_pipeline_keeps_the_batch_on_the_local_worker(self):
        records = [3, 1, 2]
        shares = list(route(_Connector(None), records, 4, local_index=2))
        assert shares == [(2, records)]


EDGES = uniform_random_graph(200, 400, seed=13)

def run_wcc(backend="inline", optimize=True, ft=None, kill=None):
    comp = ClusterComputation(
        num_processes=2,
        workers_per_process=2,
        backend=backend,
        pool_workers=2,
        optimize=optimize,
        fault_tolerance=ft,
    )
    out = []
    inp = comp.new_input()
    weakly_connected_components(Stream.from_input(inp)).subscribe(
        lambda t, recs: out.extend(recs)
    )
    comp.build()
    if kill is not None:
        comp.kill_process(kill[0], at=kill[1])
    inp.on_next(EDGES)
    inp.on_completed()
    comp.run()
    assert comp.drained(), comp.debug_state()
    info = {
        "failures": len(comp.recovery.failures),
        "offloaded": comp.pool.tasks_offloaded if comp.pool is not None else 0,
    }
    result = (sorted(out), comp.now, info)
    comp.close()
    return result


class TestWccAcrossPlansAndKills:
    @pytest.mark.parametrize("optimize", [False, True])
    def test_outputs_match_oracle(self, optimize):
        out, _, _ = run_wcc(optimize=optimize)
        assert out == sorted(wcc_oracle(EDGES).items())

    @pytest.mark.parametrize("fraction", [0.3, 0.7])
    @pytest.mark.parametrize("optimize", [False, True])
    @pytest.mark.parametrize("policy", ["restart", "reassign"])
    def test_kill_recovery_matches_unfailed_run(self, policy, optimize, fraction):
        expected, duration, _ = run_wcc(optimize=optimize)
        out, _, info = run_wcc(
            optimize=optimize,
            ft=make_ft("checkpoint", policy),
            kill=(1, duration * fraction),
        )
        assert out == expected
        assert info["failures"] == 1


def keyed_program(comp):
    inp = comp.new_input()
    out = {}
    pairs = Stream.from_input(inp).select(lambda x: (x % 11, x))
    counted = pairs.count_by(lambda r: r[0])
    folded = pairs.aggregate_by(lambda r: r[0], lambda r: r[1], max)
    joined = counted.join(
        folded,
        lambda r: r[0],
        lambda r: r[0],
        lambda l, r: (l[0], l[1], r[1]),
    )
    joined.subscribe(lambda t, recs: out.setdefault(t.epoch, Counter()).update(recs))
    comp.build()
    inp.on_next(list(range(64)))
    inp.on_next([7, 7, 7, 2**62, 5])
    inp.on_completed()
    comp.run()
    assert comp.drained()
    return out


class TestKeyedOperatorsAcrossPlans:
    @pytest.mark.parametrize("optimize", [False, True])
    def test_count_aggregate_join_match_reference(self, optimize):
        expected = keyed_program(Computation())
        assert set(expected) == {0, 1}
        comp = ClusterComputation(num_processes=2, workers_per_process=2, optimize=optimize)
        assert keyed_program(comp) == expected
