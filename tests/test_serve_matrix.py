"""The serving matrix: session scale x SLO class x plan.

Sweeps the serving layer across {16, 100} concurrent sessions,
{fresh, stale} SLO classes and {unfused, fused} plans, asserting the invariants that must hold in
every configuration: fresh answers bit-identical to the plain-Python
oracle, stale answers within their measured-staleness bound, and the
arrangement footprint identical across session counts (O(state), not
O(sessions x state)).

Like the chaos matrix, these runs are heavier than the unit suite and
run in CI's marker step::

    PYTHONPATH=src python -m pytest -q -m "chaos or detection or serve_matrix"
"""

import pytest

from repro.algorithms import hashtag_component_app
from repro.lib.stream import Stream
from repro.runtime import ClusterComputation
from tests.test_serve import fig8_workload, serve_run

SESSIONS = (16, 100)
SLOS = ("fresh", "stale")
PLANS = ("unfused", "fused")

MATRIX = [(slo, plan) for slo in SLOS for plan in PLANS]

_oracles = {}


def queryvertex_oracle(tweet_epochs, query_epochs, sessions):
    """Fresh answers from the pre-serving design (one QueryVertex fed
    the same queries), cached per session count."""
    if sessions not in _oracles:
        comp = ClusterComputation(2, 2)
        ti, qi = comp.new_input(), comp.new_input()
        responses = []
        hashtag_component_app(
            Stream.from_input(ti),
            Stream.from_input(qi),
            lambda t, recs: responses.extend(recs),
            fresh=True,
        )
        comp.build()
        for tweets, queries in zip(tweet_epochs, query_epochs):
            ti.on_next(tweets)
            qi.on_next(queries)
            comp.run()
        ti.on_completed()
        qi.on_completed()
        comp.run()
        _oracles[sessions] = sorted(responses)
    return _oracles[sessions]


@pytest.mark.serve_matrix
@pytest.mark.parametrize("slo,plan", MATRIX)
def test_serving_matrix(slo, plan):
    kwargs = {}
    if plan == "fused":
        kwargs["optimize"] = True
    tweet_epochs, _ = fig8_workload(epochs=6, sessions=0)
    footprints = {}
    for sessions in SESSIONS:
        _, query_epochs = fig8_workload(epochs=6, sessions=sessions)
        comp = ClusterComputation(2, 2, **kwargs)
        manager, arrangements = serve_run(
            comp, tweet_epochs, query_epochs, slo=slo, bound=3
        )
        assert len(manager.answers) == 6 * sessions
        if slo == "fresh":
            answers = sorted((a.query_id, a.user, a.value) for a in manager.answers)
            assert answers == queryvertex_oracle(tweet_epochs, query_epochs, sessions)
            assert all(a.staleness == 0 for a in manager.answers)
        else:
            assert all(a.staleness <= 3 for a in manager.answers)
            assert all(a.state_epoch >= -1 for a in manager.answers)
        footprints[sessions] = manager.arrangement_entries()
    # O(state), not O(sessions x state): 16 and 100 sessions over the
    # same tweet stream leave the arrangement footprint identical.
    assert footprints[SESSIONS[0]] == footprints[SESSIONS[1]], footprints
