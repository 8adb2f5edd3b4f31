"""Mid-query failure recovery for the Figure 1 interactive app.

The paper's flagship application — streaming connected components over
user mentions joined with trending hashtags, queried interactively —
running on the simulated cluster with *asynchronous* checkpoints
(``FaultTolerance(mode="checkpoint")``).  A process is killed
while a query's epoch is still in flight: the marker-based cut lets the
runtime restore only the lost process's vertices and replay their
journal suffix while the survivors keep streaming, and the query is
still answered exactly — the same response batches, epoch by epoch, as
a run with no failure.

Run:  python examples/interactive_recover.py
"""

from repro.algorithms import hashtag_component_app
from repro.lib import Stream
from repro.runtime import ClusterComputation, FaultTolerance
from repro.workloads import TweetGenerator, TweetStreamConfig

EPOCHS = 6
TWEETS_PER_EPOCH = 60


def make_stream():
    generator = TweetGenerator(
        TweetStreamConfig(num_users=200, num_hashtags=15, seed=8)
    )
    epochs = []
    for epoch in range(EPOCHS):
        batch = generator.batch(TWEETS_PER_EPOCH)
        queries = [(generator.query(), "q%d" % epoch)]
        epochs.append((batch, queries))
    return epochs


def run(kill=None, crash=None, supervise=None):
    """The Figure 1 app under async checkpointing; optionally kill.

    ``kill`` is the oracle failure (the cluster is told immediately);
    ``crash`` is a *silent* failure that only a ``supervise``-attached
    heartbeat detector can notice (see ``repro.runtime.supervisor``).

    Returns ``(responses, comp)`` where ``responses`` maps each query
    epoch to the sorted ``(query_id, user, hashtag)`` answers.
    """
    comp = ClusterComputation(
        num_processes=4,
        workers_per_process=1,
        fault_tolerance=FaultTolerance(
            mode="checkpoint",
            checkpoint_every=2,
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
    if supervise is not None:
        comp.attach_supervisor(None if supervise is True else supervise)
    if kill is not None:
        process, at = kill
        comp.kill_process(process, at=at)
    if crash is not None:
        process, at = crash
        comp.crash_process(process, at=at)
    for batch, queries in make_stream():
        tweets_in.on_next(batch)
        queries_in.on_next(queries)
    tweets_in.on_completed()
    queries_in.on_completed()
    comp.run()
    assert comp.drained(), comp.debug_state()
    # Answers may arrive as several batches whose arrival order depends
    # on the schedule; the *set* of answers per epoch is the invariant.
    return {epoch: sorted(batch) for epoch, batch in responses.items()}, comp


def main():
    print("== failure-free run ==")
    expected, clean = run()
    for epoch in sorted(expected):
        for query_id, user, hashtag in expected[epoch]:
            print(
                "  [epoch %d] %s: user %s's component is talking about %s"
                % (epoch, query_id, user, hashtag or "(nothing yet)")
            )
    duration = clean.now
    print("  virtual duration: %.6f s" % duration)

    kill_at = duration * 0.5  # queries still in flight
    print()
    print("== same run, killing process 2 at t=%.6f s ==" % kill_at)
    responses, comp = run(kill=(2, kill_at))
    failure = comp.recovery.failures[0]
    print(
        "  failure: process %d at t=%.6f s; recovery mode=%s; "
        "restored from the cut at t=%.6f s; ready at t=%.6f s"
        % (
            failure["process"],
            failure["at"],
            failure["mode"],
            failure["restored_from"],
            failure["ready"],
        )
    )
    assert responses == expected, "recovery changed a query answer!"
    print()
    print(
        "every query answered identically to the failure-free run "
        "(mid-query recovery is invisible)."
    )


if __name__ == "__main__":
    main()
