"""repro.opt — the dataflow plan optimizer.

Sits between program construction (:mod:`repro.lib.stream` builders
annotate stages with :class:`~repro.opt.plan.OpSpec`) and execution
(:class:`repro.core.Computation` / :class:`repro.runtime.cluster.
ClusterComputation` call :func:`compile_plan` before freezing the graph;
``optimize=False`` is the unrewritten oracle the equivalence tests use).

See DESIGN.md ("The plan optimizer") for the fusion legality rules and
the elision proof obligations.
"""

from .fused import FusedVertex
from .plan import (
    HashPartitioner,
    LogicalPlan,
    OpSpec,
    PhysicalPlan,
    partitioners_agree,
    plan_signature,
)
from .passes import (
    BatchingHintPass,
    ExchangeElisionPass,
    FusionPass,
    PlumbingCutThroughPass,
    compile_plan,
    default_passes,
)

__all__ = [
    "BatchingHintPass",
    "ExchangeElisionPass",
    "FusedVertex",
    "FusionPass",
    "HashPartitioner",
    "LogicalPlan",
    "OpSpec",
    "PhysicalPlan",
    "PlumbingCutThroughPass",
    "compile_plan",
    "default_passes",
    "partitioners_agree",
    "plan_signature",
]
