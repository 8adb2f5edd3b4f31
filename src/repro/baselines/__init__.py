"""Comparison systems from the paper's evaluation (section 6).

Each baseline really executes its algorithm (results are verified
against the same oracles as the Naiad implementations) while charging
virtual time from a documented cost model.  See DESIGN.md's
substitution table.
"""

from .barrier import BarrierCheckpoints
from .batch import DRYADLINQ, PDW, SHS, BatchCosts, BatchIterativeEngine
from .kineograph import KineographCosts, KineographEngine
from .powergraph import GasCosts, PowerGraphEngine
from .vw_allreduce import (
    VwCosts,
    naiad_iteration_time,
    speedup_curve,
    vw_iteration_time,
)

__all__ = [
    "BarrierCheckpoints",
    "BatchCosts",
    "BatchIterativeEngine",
    "DRYADLINQ",
    "GasCosts",
    "KineographCosts",
    "KineographEngine",
    "PDW",
    "PowerGraphEngine",
    "SHS",
    "VwCosts",
    "naiad_iteration_time",
    "speedup_curve",
    "vw_iteration_time",
]
