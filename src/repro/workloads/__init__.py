"""Synthetic workloads: corpora and query traces.

Substitutes for the paper's Wikipedia dump and the Wikipedia/Lucene query
traces (see DESIGN.md for the substitution argument).
"""

from repro.workloads.corpus import (
    CorpusConfig,
    SyntheticCorpus,
    term_token,
)
from repro.workloads.io import load_trace, save_trace
from repro.workloads.traces import (
    TraceConfig,
    build_query_pool,
    generate_trace,
    training_queries,
)

__all__ = [
    "CorpusConfig",
    "SyntheticCorpus",
    "term_token",
    "TraceConfig",
    "build_query_pool",
    "generate_trace",
    "training_queries",
    "save_trace",
    "load_trace",
]
