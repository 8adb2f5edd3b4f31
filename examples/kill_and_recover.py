"""Failure injection and recovery on the simulated cluster (section 3.4).

Runs a keyed word-count on a 4-computer cluster with periodic
checkpointing, kills one process mid-epoch at a chosen virtual time,
and lets the :class:`RecoveryManager` roll the survivors back to the
last checkpoint and replay the input journal.  The per-epoch outputs
are compared against a failure-free run of the same program: they must
match exactly — released epochs are never re-released (exactly-once)
and replayed epochs come out identical.

The plan optimizer is on by default, so the
``select -> where -> select_many`` prefix executes as one fused
super-vertex whose composite ``checkpoint()``/``restore()`` is
exercised by the rollback — the explain() inspector shows what fused.

Run:  python examples/kill_and_recover.py
"""

from collections import Counter

from repro.lib import Stream
from repro.runtime import ClusterComputation, FaultTolerance

EPOCHS = [
    ["the quick brown fox", "jumps over the lazy dog"],
    ["the dog barks"],
    ["quick quick slow"],
    ["fox and dog and fox"],
]


def build(comp):
    """Word count with a fusable clean-up prefix; per-epoch outputs."""
    lines = comp.new_input("lines")
    out = {}
    (
        Stream.from_input(lines)
        .select(str.lower)
        .where(lambda line: line.strip() != "")
        .select_many(str.split)
        .count_by(lambda word: word)
        .subscribe(lambda t, recs: out.setdefault(t.epoch, Counter()).update(recs))
    )
    return lines, out


def run(kill_process=None, kill_at=None, verbose=False):
    comp = ClusterComputation(
        num_processes=4,
        workers_per_process=2,
        fault_tolerance=FaultTolerance(
            mode="checkpoint",
            checkpoint_every=2,
            restart_delay=0.02,
        ),
    )
    lines, out = build(comp)
    comp.build()
    if verbose:
        print(comp.plan.explain())
        print()
    if kill_process is not None:
        comp.kill_process(kill_process, at=kill_at)
    for epoch in EPOCHS:
        lines.on_next(epoch)
    lines.on_completed()
    comp.run()
    assert comp.drained(), comp.debug_state()
    return out, comp


def main():
    print("== failure-free run (fused plan shown below) ==")
    expected, baseline = run(verbose=True)
    for epoch in sorted(expected):
        print("  epoch %d -> %s" % (epoch, sorted(expected[epoch].items())))
    duration = baseline.now
    print("  virtual duration: %.6f s" % duration)

    kill_at = duration * 0.6
    print()
    print("== same run, killing process 2 at t=%.6f s ==" % kill_at)
    out, comp = run(kill_process=2, kill_at=kill_at)
    failure = comp.recovery.failures[0]
    print(
        "  failure: process %d at %.6f s; rolled back to checkpoint "
        "taken at %.6f s; replayed %d journal entries; ready at %.6f s"
        % (
            failure["process"],
            failure["at"],
            failure["restored_from"],
            failure["replayed_entries"],
            failure["ready"],
        )
    )
    for epoch in sorted(out):
        print("  epoch %d -> %s" % (epoch, sorted(out[epoch].items())))

    assert out == expected, "recovery changed the outputs!"
    print()
    print("per-epoch outputs identical to the failure-free run: exactly-once.")


if __name__ == "__main__":
    main()
