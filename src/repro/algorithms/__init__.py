"""Applications from the paper's evaluation (sections 5 and 6).

Every algorithm runs unchanged on the reference runtime
(:class:`repro.core.Computation`) and the simulated cluster
(:class:`repro.runtime.ClusterComputation`); each module also ships a
plain-Python oracle used by the tests.
"""

import importlib

from .connectivity import (
    MinLabelVertex,
    label_propagation,
    wcc_oracle,
    weakly_connected_components,
)
from .hashtag_components import (
    QueryVertex,
    app_oracle,
    component_top_resolver,
    hashtag_component_app,
    hashtag_component_arrangements,
    top_hashtags_by_component,
)
from .kexposure import k_exposure
from .pagerank import (
    PageRankVertex,
    pagerank_edge,
    pagerank_oracle,
    pagerank_pregel,
    pagerank_vertex,
)
from .scc import scc_oracle, strongly_connected_components
from .shortest_paths import (
    MultiSourceBfsVertex,
    approximate_shortest_paths,
    asp_oracle,
)
from .wordcount import wordcount, wordcount_with_combiner

__all__ = [
    "MinLabelVertex",
    "MultiSourceBfsVertex",
    "PageRankVertex",
    "QueryVertex",
    "TrainVertex",
    "app_oracle",
    "approximate_shortest_paths",
    "asp_oracle",
    "component_top_resolver",
    "hashtag_component_app",
    "hashtag_component_arrangements",
    "k_exposure",
    "label_propagation",
    "local_gradient",
    "logistic_oracle",
    "logistic_regression",
    "make_dataset",
    "pagerank_edge",
    "pagerank_oracle",
    "pagerank_pregel",
    "pagerank_vertex",
    "scc_oracle",
    "strongly_connected_components",
    "top_hashtags_by_component",
    "wcc_oracle",
    "weakly_connected_components",
    "wordcount",
    "wordcount_with_combiner",
]

#: Exports loaded on first use: :mod:`.logistic` imports numpy, which
#: nothing else on the spine needs.
_LAZY = {
    name: "logistic"
    for name in (
        "TrainVertex",
        "local_gradient",
        "logistic_oracle",
        "logistic_regression",
        "make_dataset",
    )
}


def __getattr__(name):
    module = _LAZY.get(name)
    if module is None:
        raise AttributeError("module %r has no attribute %r" % (__name__, name))
    value = getattr(importlib.import_module("." + module, __name__), name)
    globals()[name] = value
    return value
