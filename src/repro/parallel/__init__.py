"""The ``mp`` backend: an ordered map over pure record chains.

A delivery whose destination is a *pure record map* (``select``,
``where``, ``select_many``, or a fused chain of only those) is submitted
to a fork pool when it is enqueued, unless the window of tasks in flight
is full.  ``Worker.run_one`` takes the result in DES order instead of
calling ``on_recv``, as PaPy's ``NuMap`` orders results.  All other work
and all state stay on the coordinator; a task belongs to its queue entry
and is dropped with it.  See DESIGN.md ("Parallel execution").
"""

import multiprocessing
import pickle
import threading
import traceback
import weakref
from collections import deque
from queue import SimpleQueue
from time import perf_counter
from types import SimpleNamespace

from ..lib.operators import SelectManyVertex, SelectVertex, WhereVertex
from ..opt.fused import FusedVertex
from ..runtime.synthetic import record_count

#: Pool size when the constructor does not say.
DEFAULT_POOL_WORKERS = 4
#: Tasks in flight per child before deliveries run inline instead.
WINDOW_PER_CHILD = 1024


def fork_available() -> bool:
    """The pool forks (user functions are closures and do not pickle)."""
    return "fork" in multiprocessing.get_all_start_methods()


def _read(conn, tasks: SimpleQueue) -> None:
    # Drains the task pipe while the child computes: no pipe deadlock.
    try:
        while True:
            tasks.put(conn.recv())
    except (EOFError, OSError):
        tasks.put(None)


def _child_main(vertices, total_workers: int, conn) -> None:
    tasks = SimpleQueue()
    threading.Thread(target=_read, args=(conn, tasks), daemon=True).start()
    # Keeps a map's one send and counts what a fused chain hands on.
    out = [None, 0]
    harness = SimpleNamespace(
        send=lambda vertex, port, records, timestamp: out.__setitem__(0, records),
        charge=lambda records: out.__setitem__(1, out[1] + record_count(records)),
        total_workers=total_workers,
    )
    for key, port, records, timestamp in iter(tasks.get, None):
        vertices[key]._harness = harness
        out[:] = None, 0
        started = perf_counter()
        try:
            vertices[key].on_recv(port, records, timestamp)
            reply = (*out, None)
        except Exception as exc:
            try:  # the coordinator re-raises it, if it pickles
                pickled = pickle.dumps(exc)
            except Exception:
                pickled = None
            reply = (None, 0, (traceback.format_exc(), pickled))
        try:
            conn.send(reply + (perf_counter() - started,))
        except Exception:  # an output that does not pickle
            conn.send((None, 0, (traceback.format_exc(), None), 0.0))


def _shutdown(children) -> None:
    for conn, process, _ in children:
        process.terminate()
        process.join()
        conn.close()


class OrderedMap:
    """The fork pool behind ``ClusterComputation(backend="mp")``.  Its
    counters: ``tasks_offloaded``, and ``child_seconds`` spent on them."""

    def __init__(self, cluster, size: int):
        vertices = {}
        for (stage, worker), vertex in cluster.vertices.items():
            parts = vertex.parts if type(vertex) is FusedVertex else (vertex,)
            if all(type(p) in (SelectVertex, WhereVertex, SelectManyVertex) for p in parts):
                vertices[(stage.index, worker)] = vertex
        self.offload = frozenset(vertices)
        self.size = size
        self.tasks_offloaded, self.child_seconds = 0, 0.0
        ctx = multiprocessing.get_context("fork")
        #: (conn, process, tasks sent and not yet read, oldest first).
        self._children = []
        for _ in range(size):
            conn, child_conn = ctx.Pipe()
            args = (vertices, cluster.total_workers, child_conn)
            process = ctx.Process(target=_child_main, args=args, daemon=True)
            process.start()
            child_conn.close()
            self._children.append((conn, process, deque()))
        self._finalizer = weakref.finalize(self, _shutdown, self._children)

    def submit(self, worker: int, connector, records, timestamp):
        """Start one delivery's map in a child; returns its task, or None
        when the destination is not a pure map or the window is full."""
        key = (connector.dst.index, worker)
        window = WINDOW_PER_CHILD * self.size
        if key not in self.offload or sum(len(c[2]) for c in self._children) >= window:
            return None
        child = min(self._children, key=lambda c: len(c[2]))
        try:
            child[0].send((key, connector.dst_port, records, timestamp))
        except Exception:  # records that do not pickle run inline
            return None
        task = [child, None]  # [child, reply]
        child[2].append(task)
        self.tasks_offloaded += 1
        return task

    def results(self, tasks):
        """The tasks' sends concatenated (None if none sent) and the records
        their chains handed on; a callback's exception re-raises as itself."""
        output, handed = None, 0
        for task in tasks:
            conn, _, outstanding = task[0]
            while task[1] is None:
                head = outstanding.popleft()
                head[1] = conn.recv()
                self.child_seconds += head[1][3]
            sent, charged, failure, _ = task[1]
            if failure is not None:
                cause = RuntimeError("pool child failed; child traceback:\n" + failure[0])
                try:
                    original = pickle.loads(failure[1])
                except Exception:  # unpicklable, or rejects its own args
                    raise cause from None
                raise original from cause
            handed += charged
            if sent is not None:
                output = sent if output is None else output + sent
        return output, handed

    def close(self) -> None:
        self._finalizer()
