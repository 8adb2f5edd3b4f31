"""Timely dataflow core: timestamps, graphs, progress tracking, scheduler.

This package implements the computational model of sections 2 and 4.3 of
the paper: :class:`Timestamp` and :class:`Pointstamp`, path summaries and
the could-result-in relation, the structured dataflow graph with loop
contexts, the vertex programming model, and a single-threaded scheduler
(:class:`Computation`) that delivers notifications exactly when they are
in the frontier of active pointstamps.
"""

from .computation import Computation, InputHandle
from .dot import to_dot
from .runtime_api import RuntimeDebugState, TimelyRuntime
from .graph import (
    Connector,
    CrossScopeConnectError,
    DataflowGraph,
    FeedbackNotConnectedError,
    GraphValidationError,
    LoopContext,
    Stage,
    StageKind,
    UnclosedScopeError,
)
from .pathsummary import Antichain, PathSummary, minimal_summaries
from .pointstamp import could_result_in
from .progress import Pointstamp, ProgressState
from .timestamp import Timestamp, ZERO
from .vertex import ForwardingVertex, Vertex
from .worker import TimestampViolation

__all__ = [
    "Antichain",
    "Computation",
    "Connector",
    "CrossScopeConnectError",
    "DataflowGraph",
    "FeedbackNotConnectedError",
    "ForwardingVertex",
    "GraphValidationError",
    "UnclosedScopeError",
    "InputHandle",
    "LoopContext",
    "PathSummary",
    "Pointstamp",
    "ProgressState",
    "RuntimeDebugState",
    "Stage",
    "StageKind",
    "TimelyRuntime",
    "Timestamp",
    "TimestampViolation",
    "Vertex",
    "ZERO",
    "could_result_in",
    "minimal_summaries",
    "to_dot",
]
