"""The chaos matrix: kill injection across every runtime configuration.

Sweeps {fused, unfused} plans under asynchronous checkpoints, killing
a process at three schedule points in each configuration, and asserts
the one invariant that must hold everywhere: the per-epoch output
multisets are bit-identical to a failure-free run.  This is the
composition test — the marker protocol, partial rollback, composite
fused checkpoints and exactly-once journal replay all have to agree.
The mp backend's share of it lives in tests/test_parallel_backend.py.

These runs are deliberately heavier than the unit suite, so they are
marked ``chaos`` and run in CI's marker step with the other sweeps::

    PYTHONPATH=src python -m pytest -q -m "chaos or detection or serve_matrix"

Fault schedules (kill/rescale points) are drawn from one seeded RNG so
a CI failure is reproducible locally: every assertion echoes the seed,
and ``REPRO_CHAOS_SEED=<n>`` replays that exact schedule.
"""

import os
import random

import pytest

from tests.test_recovery import baseline, make_ft, run_cluster

#: One seed governs every drawn fault schedule in this module (export
#: ``REPRO_CHAOS_SEED`` to replay a failure's schedule exactly).
CHAOS_SEED = int(os.environ.get("REPRO_CHAOS_SEED", "0"))


def chaos_rng(*scope):
    """An independent RNG per case, derived from the module seed plus
    the case's identity.  String-seeded so the stream depends only on
    ``(CHAOS_SEED, scope)`` — never on draw order elsewhere, interpreter
    hash randomization, or which subset of the matrix runs."""
    return random.Random(
        "chaos:%d:%s" % (CHAOS_SEED, ":".join(str(part) for part in scope))
    )


def kill_points(rng, n=3):
    """Early / mid / late kill fractions, jittered within their bands
    so repeated CI runs with different seeds sweep the schedule space.
    """
    bands = ((0.15, 0.35), (0.4, 0.6), (0.65, 0.85))
    return [rng.uniform(lo, hi) for lo, hi in bands[:n]]

PLANS = ("unfused", "fused")


def _ids(config):
    return "-".join(config)


def kill_matrix(case, plan, rng):
    expected, duration = baseline(case, (2, 2))
    kwargs = {}
    if plan == "fused":
        kwargs["optimize"] = True
    for frac in kill_points(rng):
        out, comp = run_cluster(
            case,
            (2, 2),
            ft=make_ft("checkpoint"),
            kill=(1, duration * frac),
            **kwargs
        )
        scenario = (case, plan, frac, "seed=%d" % CHAOS_SEED)
        assert out == expected, scenario
        assert len(comp.recovery.failures) == 1, scenario
        # Recovery must not silently degrade: the single kill is handled
        # without a whole-cluster rollback.
        assert comp.recovery.failures[0]["mode"] in ("partial", "skip"), scenario


@pytest.mark.chaos
@pytest.mark.parametrize("plan", PLANS)
def test_kill_matrix_outputs_bit_identical(plan):
    kill_matrix("wordcount", plan, chaos_rng("kill", plan))


@pytest.mark.chaos
@pytest.mark.parametrize("plan", PLANS)
def test_kill_matrix_incremental_join_bit_identical(plan):
    # The eager join replays through partial rollback: its sends must
    # match what the survivors already hold, record for record.
    kill_matrix("incremental-join", plan, chaos_rng("kill", "incremental-join", plan))


@pytest.mark.chaos
@pytest.mark.parametrize("plan", PLANS)
def test_kill_matrix_incremental_bit_identical(plan):
    # Distinct and count over retractions: distinct's eager +1s and its
    # notification's corrections replay through partial rollback too.
    kill_matrix("incremental", plan, chaos_rng("kill", "incremental", plan))


#: Planned membership changes injected at the same schedule points as
#: the kills: grow by one process, drain one out, or both in sequence.
RESCALE_EVENTS = ("add", "remove", "add-remove")

RESCALE_MATRIX = [(event, plan) for event in RESCALE_EVENTS for plan in PLANS]


def _rescale_ops(event, duration, frac):
    at = duration * frac
    if event == "add":
        return [("add", at)]
    if event == "remove":
        return [("remove", 2, at)]
    # Grow, then drain a founding member shortly after: the remove's
    # cut must cope with the add's migration replay still in the past.
    return [("add", at), ("remove", 1, duration * (frac + 0.1))]


@pytest.mark.chaos
@pytest.mark.parametrize("event,plan", RESCALE_MATRIX, ids=_ids)
def test_rescale_matrix_outputs_bit_identical(event, plan):
    expected, duration = baseline("wordcount", (3, 2))
    kwargs = {}
    if plan == "fused":
        kwargs["optimize"] = True
    rng = chaos_rng("rescale", event, plan)
    for frac in kill_points(rng):
        out, comp = run_cluster(
            "wordcount",
            (3, 2),
            ft=make_ft("checkpoint", policy="reassign"),
            rescale=_rescale_ops(event, duration, frac),
            **kwargs
        )
        scenario = (event, plan, frac, "seed=%d" % CHAOS_SEED)
        assert out == expected, scenario
        kinds = [r["kind"] for r in comp.rescales]
        assert kinds == event.split("-"), (kinds,) + scenario
        # Planned changes are not failures: nothing may escalate to a
        # whole-cluster rollback.
        assert not comp.recovery.failures, scenario


def _serving_run(ft, kill=None, rescale=None, shape=(2, 2)):
    """The Figure 8 serving workload with mixed-SLO open sessions."""
    from repro.runtime import ClusterComputation
    from tests.test_serve import fig8_workload, serve_run

    tweet_epochs, query_epochs = fig8_workload(epochs=8, sessions=20)
    fresh_half = [q[:10] for q in query_epochs]
    stale_half = [q[10:] for q in query_epochs]
    comp = ClusterComputation(shape[0], shape[1], fault_tolerance=ft)
    manager, _ = serve_run(
        comp,
        tweet_epochs,
        [f + s for f, s in zip(fresh_half, stale_half)],
        slo="mixed",
        bound=3,
        kill=kill,
        rescale=rescale,
    )
    fresh = sorted(
        (a.query_id, a.user, a.value)
        for a in manager.answers
        if a.slo == "fresh"
    )
    stale = [a for a in manager.answers if a.slo == "stale"]
    return fresh, stale, comp


@pytest.mark.chaos
def test_kill_matrix_serving_case():
    # Open query sessions across a mid-run kill: fresh answers are
    # bit-identical to the failure-free run, stale answers never exceed
    # their measured-staleness bound.
    base_fresh, base_stale, comp0 = _serving_run(make_ft("checkpoint"))
    duration = comp0.sim.now
    rng = chaos_rng("serving")
    for frac in kill_points(rng, n=2):
        scenario = (frac, "seed=%d" % CHAOS_SEED)
        fresh, stale, comp = _serving_run(
            make_ft("checkpoint"), kill=(1, duration * frac)
        )
        assert len(comp.recovery.failures) == 1, scenario
        assert fresh == base_fresh, scenario
        assert len(stale) == len(base_stale), scenario
        assert all(answer.staleness <= 3 for answer in stale), scenario


@pytest.mark.chaos
def test_rescale_matrix_serving_case():
    # Live membership changes with open sessions: same invariants, and
    # planned changes never escalate to a failure.
    def ft():
        return make_ft("checkpoint", policy="reassign")

    base_fresh, base_stale, comp0 = _serving_run(ft(), shape=(3, 2))
    duration = comp0.sim.now
    for ops in (
        [("add", duration * 0.4)],
        [("remove", 2, duration * 0.4)],
        [("add", duration * 0.3), ("remove", 1, duration * 0.6)],
    ):
        fresh, stale, comp = _serving_run(ft(), rescale=ops, shape=(3, 2))
        assert fresh == base_fresh, ops
        assert all(answer.staleness <= 3 for answer in stale), ops
        assert not comp.recovery.failures, ops
        assert len(comp.rescales) == len(ops)


@pytest.mark.chaos
def test_kill_matrix_iteration_case():
    # The loop case exercises in-flight feedback-channel messages in
    # the cut; one kill point keeps the leg bounded.
    expected, duration = baseline("iterate", (4, 1))
    frac = chaos_rng("iterate").uniform(0.3, 0.7)
    out, comp = run_cluster(
        "iterate", (4, 1), ft=make_ft("checkpoint"), kill=(2, duration * frac)
    )
    scenario = (frac, "seed=%d" % CHAOS_SEED)
    assert out == expected, scenario
    assert len(comp.recovery.failures) == 1, scenario
