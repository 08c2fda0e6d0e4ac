"""repro — a reproduction of Cottage (HPCA 2022).

Cottage: Coordinated Time Budget Assignment for Latency, Quality and Power
Optimization in Web Search (Zhou, Bhuyan, Ramakrishnan).

The package is a complete, self-contained distributed-search stack:

* :mod:`repro.text`, :mod:`repro.index`, :mod:`repro.scoring`,
  :mod:`repro.retrieval` — a from-scratch inverted-index search engine
  (BM25, MaxScore/WAND dynamic pruning, sharding, CSI).
* :mod:`repro.nn`, :mod:`repro.predictors` — numpy neural networks and the
  paper's per-ISN quality/latency predictors (Tables I & II).
* :mod:`repro.cluster` — a discrete-event cluster simulator with DVFS and
  a calibrated package power model.
* :mod:`repro.core` — Algorithm 1 and the Cottage policy (+ ablations).
* :mod:`repro.policies` — exhaustive, aggregation, Rank-S and Taily
  baselines.
* :mod:`repro.workloads`, :mod:`repro.metrics`, :mod:`repro.experiments` —
  synthetic Wikipedia/Lucene-style workloads, evaluation metrics, and one
  harness per paper figure/table.

Quickstart::

    from repro.experiments import Testbed, Scale
    testbed = Testbed.build(Scale.small())
    summaries = testbed.compare_policies(testbed.wikipedia_trace)
"""

# First, before any module that loads numpy: pins BLAS to one thread.
from repro import host  # noqa: F401
from repro.cluster import Decision, QueryRecord, SearchCluster
from repro.core import (
    BudgetDecision,
    BudgetInput,
    CottageISNPolicy,
    CottagePolicy,
    CottageWithoutMLPolicy,
    determine_time_budget,
)
from repro.index import Document, IndexBuilder, IndexShard, build_shards, partition
from repro.metrics import GroundTruth, PolicySummary, comparison_table, summarize_run
from repro.policies import (
    AggregationPolicy,
    ExhaustivePolicy,
    RankSPolicy,
    TailyPolicy,
)
from repro.predictors import PredictorBank
from repro.retrieval import DistributedSearcher, Query, QueryTrace
from repro.workloads import CorpusConfig, SyntheticCorpus, TraceConfig, generate_trace

__version__ = "1.0.0"

__all__ = [
    "__version__",
    "Document",
    "IndexBuilder",
    "IndexShard",
    "build_shards",
    "partition",
    "Query",
    "QueryTrace",
    "DistributedSearcher",
    "SearchCluster",
    "Decision",
    "QueryRecord",
    "BudgetInput",
    "BudgetDecision",
    "determine_time_budget",
    "CottagePolicy",
    "CottageWithoutMLPolicy",
    "CottageISNPolicy",
    "ExhaustivePolicy",
    "AggregationPolicy",
    "RankSPolicy",
    "TailyPolicy",
    "PredictorBank",
    "GroundTruth",
    "PolicySummary",
    "summarize_run",
    "comparison_table",
    "CorpusConfig",
    "SyntheticCorpus",
    "TraceConfig",
    "generate_trace",
]
