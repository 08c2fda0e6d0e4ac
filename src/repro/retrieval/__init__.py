"""Query evaluation: exhaustive and MaxScore top-k retrieval.

Both strategies share the same deterministic tie-break (descending score,
ascending doc id), so they return identical hit lists and differ only in
cost — the property the test suite checks exhaustively.  Each exists
twice: MaxScore as a cursor-based scalar reference (``maxscore_search``)
and the vectorized arena kernel ``STRATEGIES`` runs
(``maxscore_search_kernel``), bit-identical to it in hits, scores, tie
order and ``CostStats`` counters; exhaustive as the vectorized
``exhaustive_search`` and its cursor-based reference
``exhaustive_search_daat``.  The references are importable here and
called directly by the tests; they are not registered in ``STRATEGIES``.
"""

from repro.retrieval.executor import SerialExecutor
from repro.retrieval.exhaustive import exhaustive_search, exhaustive_search_daat
from repro.retrieval.kernels import (
    DEFAULT_CHUNK,
    KernelStats,
    maxscore_search_kernel,
)
from repro.retrieval.maxscore import maxscore_search
from repro.retrieval.query import Query, QueryTrace
from repro.retrieval.result import CostStats, SearchResult, merge_results
from repro.retrieval.searcher import (
    STRATEGIES,
    DistributedSearcher,
    SearcherCacheStats,
    ShardSearcher,
)
from repro.retrieval.topk import TopKCollector

__all__ = [
    "Query",
    "QueryTrace",
    "TopKCollector",
    "SearchResult",
    "CostStats",
    "merge_results",
    "exhaustive_search",
    "exhaustive_search_daat",
    "maxscore_search",
    "maxscore_search_kernel",
    "KernelStats",
    "DEFAULT_CHUNK",
    "ShardSearcher",
    "SearcherCacheStats",
    "DistributedSearcher",
    "STRATEGIES",
    "SerialExecutor",
]
