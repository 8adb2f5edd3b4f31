"""Elastic autoscaling under a diurnal load curve.

The Figure 1 application — incremental connected components over tweet
mentions, queried interactively for the top hashtag in a user's
component — fed by a tweet stream whose rate follows a day: a quiet
morning, a midday peak an order of magnitude taller, a quiet evening.
A metrics-driven :class:`repro.runtime.Autoscaler` watches per-host
utilization from the live trace stream and rescales the running
cluster: it grows by a process when the peak saturates the workers and
drains one back out when the load falls away — all while the query
stream keeps answering.

Membership changes ride the async-cut migration path (only the moving
workers' state ships; the survivors keep their live state), so the
autoscaler is invisible in the outputs: every query is answered
exactly as a fixed-shape run answers it.

Run:  python examples/diurnal_autoscale.py
"""

from repro.algorithms import hashtag_component_app
from repro.lib import Stream
from repro.obs import TraceSink, membership_timeline
from repro.runtime import (
    AutoscalePolicy,
    Autoscaler,
    ClusterComputation,
    FaultTolerance,
)
from repro.workloads import TweetGenerator, TweetStreamConfig

#: Tweets per epoch over one simulated day: quiet -> peak -> quiet.
DIURNAL_CURVE = [5, 8, 120, 180, 180, 180, 120, 8, 5, 5, 8, 5]

#: Grow when a host sustains more than 1.2 busy workers, shrink when
#: the fleet idles below half a worker per host.
POLICY = AutoscalePolicy(
    interval=5e-5,
    high_utilization=1.2,
    low_utilization=0.5,
    sustain=3,
    cooldown=5e-3,
    min_processes=2,
    max_processes=4,
)


def make_stream():
    """The day's tweet batches, each with one component query."""
    generator = TweetGenerator(
        TweetStreamConfig(num_users=150, num_hashtags=12, seed=8)
    )
    epochs = []
    for epoch, rate in enumerate(DIURNAL_CURVE):
        batch = generator.batch(rate)
        queries = [(generator.query(), "q%d" % epoch)]
        epochs.append((batch, queries))
    return epochs


def run(autoscale=True):
    """The diurnal day, with or without the autoscaler.

    Returns ``(responses, comp, scaler)`` where ``responses`` maps each
    query epoch to its sorted answers and ``scaler`` is None for the
    fixed-shape run.
    """
    comp = ClusterComputation(
        num_processes=2,
        workers_per_process=2,
        fault_tolerance=FaultTolerance(
            mode="checkpoint",
            checkpoint_every=2,
            recovery="reassign",
            restart_delay=0.02,
        ),
    )
    tweets_in = comp.new_input("tweets")
    queries_in = comp.new_input("queries")
    responses = {}
    hashtag_component_app(
        Stream.from_input(tweets_in),
        Stream.from_input(queries_in),
        lambda t, batch: responses.setdefault(t.epoch, []).extend(batch),
        fresh=True,
    )
    comp.build()
    scaler = None
    if autoscale:
        sink = TraceSink()
        comp.attach_trace_sink(sink)
        scaler = Autoscaler(comp, sink, POLICY).start()
    for batch, queries in make_stream():
        tweets_in.on_next(batch)
        queries_in.on_next(queries)
    tweets_in.on_completed()
    queries_in.on_completed()
    comp.run()
    assert comp.drained(), comp.debug_state().text
    return {epoch: sorted(batch) for epoch, batch in responses.items()}, comp, scaler


def main():
    print("== fixed shape (2 processes x 2 workers) ==")
    expected, fixed, _ = run(autoscale=False)
    print(
        "  %d epochs answered, virtual duration %.6f s"
        % (len(expected), fixed.now)
    )

    print()
    print("== same day with the autoscaler on ==")
    responses, comp, scaler = run(autoscale=True)
    for decision in scaler.decisions:
        if decision["kind"] == "add":
            print(
                "  t=%.6f s: utilization %.2f over %d hosts -> grow"
                % (decision["at"], decision["utilization"], decision["hosts"])
            )
        else:
            print(
                "  t=%.6f s: utilization %.2f over %d hosts -> drain "
                "process %d" % (
                    decision["at"],
                    decision["utilization"],
                    decision["hosts"],
                    decision["process"],
                )
            )
    for change in membership_timeline(comp._trace.events):
        print(
            "  membership generation %d: %s process %d, %d live hosts, "
            "workers %r migrated, blip %.6f s"
            % (
                change.generation,
                change.kind,
                change.process,
                change.live_count,
                change.moved_workers,
                change.blip,
            )
        )
    print("  final live processes: %r" % (comp.live_processes,))

    assert responses == expected, "autoscaling changed a query answer!"
    print()
    print(
        "the cluster grew for the peak and drained back down for the "
        "evening, and every query was answered identically to the "
        "fixed-shape run."
    )


if __name__ == "__main__":
    main()
