"""The paper's stop-the-world checkpoint (section 3.4), driven from
outside a cluster: Figure 7c's comparison line for the runtime's
asynchronous marker cuts.

Naiad's cycle pauses the workers, drains message queues and progress
buffers until every process agrees on the occurrence counts, snapshots
every stateful vertex, writes the snapshot durably, then resumes.  This
module reproduces it without any runtime support: it holds the
producer's input batches back every ``every`` epochs, tries
``recovery.settle()`` (quiescent, flush the protocol accumulators,
still quiescent) at each simulator event, and commits the snapshot with
``recovery.complete_checkpoint`` — the two calls an explicit
``ClusterComputation.checkpoint()`` makes under ``mode="none"``.  The
write stalls every worker; the held batches are released when the
snapshot is taken.

Usage::

    comp = ClusterComputation(..., fault_tolerance=FaultTolerance(
        mode="none", state_bytes_per_worker=3 << 20))
    handle = comp.new_input()
    ...  # build the dataflow on Stream.from_input(handle)
    tweets = BarrierCheckpoints(comp, every=10).hold(handle)
    comp.build()
    tweets.on_next(batch)  # exactly as on the input handle

A kill during a drain does not abandon it: the snapshot is taken once
recovery has replayed and the cluster is quiescent again.
"""

from __future__ import annotations

from typing import Any, List, Optional, Tuple


class BarrierCheckpoints:
    """Periodic stop-the-world checkpoints over a ``mode="none"`` cluster."""

    def __init__(self, comp, every: int) -> None:
        if comp.fault_tolerance.mode != "none":
            raise ValueError(
                "BarrierCheckpoints drives a FaultTolerance(mode='none') "
                "cluster; mode=%r takes its own asynchronous cuts"
                % (comp.fault_tolerance.mode,)
            )
        if every < 1:
            raise ValueError("every must be >= 1 (got %r)" % (every,))
        self.comp = comp
        self.every = every
        #: Input epochs released into the cluster (the trigger counter).
        self.released = 0
        #: Producer calls deferred by the active barrier, in order:
        #: (handle, records), with records None for a close.
        self.held: List[Tuple[Any, Optional[List[Any]]]] = []
        #: Virtual time the active barrier started draining, else None.
        self.draining_since: Optional[float] = None

    def hold(self, handle) -> "HeldInput":
        """Route ``handle``'s producer calls through the barrier."""
        return HeldInput(self, handle)

    def _submit(self, handle, records: Optional[List[Any]]) -> None:
        if self.draining_since is not None:
            self.held.append((handle, records))
            return
        if records is None:
            handle.on_completed()
            return
        handle.on_next(records)
        self.released += 1
        if self.released % self.every == 0:
            self.draining_since = self.comp.sim.now
            self.comp.sim.schedule_at(self.comp.sim.now, self._probe)

    def _probe(self) -> None:
        comp = self.comp
        if comp.recovery.settle():
            self._commit()
            return
        upcoming = comp.sim.next_event_time
        if upcoming is None:
            raise RuntimeError(
                "checkpoint barrier cannot reach quiescence; cluster state:\n"
                + comp.debug_state().text
            )
        comp.sim.schedule_at(max(upcoming, comp.sim.now), self._probe)

    def _commit(self) -> None:
        drain = self.comp.sim.now - self.draining_since
        self.comp.recovery.complete_checkpoint(drain=drain)
        self.draining_since = None
        # Resume: release what the barrier held until the next one starts.
        while self.held and self.draining_since is None:
            self._submit(*self.held.pop(0))


class HeldInput:
    """An input handle whose calls pass a barrier, checked when made."""

    def __init__(self, barrier: BarrierCheckpoints, handle) -> None:
        self._barrier = barrier
        self._handle = handle
        self.next_epoch, self.closed = handle.next_epoch, handle.closed

    def on_next(self, records: Optional[List[Any]] = None) -> int:
        if self.closed:
            raise RuntimeError("input %r is closed" % self._handle.stage.name)
        self._barrier.comp._check_built()
        self._barrier._submit(self._handle, list(records or ()))
        self.next_epoch += 1
        return self.next_epoch - 1

    def on_completed(self) -> None:
        if not self.closed:
            self._barrier.comp._check_built()
            self._barrier._submit(self._handle, None)
            self.closed = True
