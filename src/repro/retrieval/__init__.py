"""Query evaluation: exhaustive, MaxScore and WAND top-k retrieval.

All evaluators share the same deterministic tie-break (descending score,
ascending doc id), so the strategies return identical hit lists and
differ only in cost — the property the test suite checks exhaustively.
Each pruning strategy exists twice: a cursor-based scalar reference
(``*_search``, importable here and called directly by the tests, not
registered in ``STRATEGIES``) and a vectorized arena kernel
(``*_search_kernel``, what ``STRATEGIES`` runs) that is bit-identical to
it in hits, scores, tie order and ``CostStats`` counters.
"""

from repro.retrieval.block_max_wand import block_max_wand_search
from repro.retrieval.conjunctive import conjunctive_search
from repro.retrieval.executor import SerialExecutor
from repro.retrieval.exhaustive import exhaustive_search, exhaustive_search_daat
from repro.retrieval.kernels import (
    DEFAULT_CHUNK,
    KernelStats,
    block_max_wand_search_kernel,
    conjunctive_search_kernel,
    maxscore_search_kernel,
    wand_search_kernel,
)
from repro.retrieval.maxscore import maxscore_search
from repro.retrieval.query import Query, QueryTrace
from repro.retrieval.result import CostStats, SearchResult, merge_results
from repro.retrieval.searcher import (
    KERNEL_STRATEGIES,
    STRATEGIES,
    DistributedSearcher,
    SearcherCacheStats,
    ShardSearcher,
)
from repro.retrieval.topk import TopKCollector
from repro.retrieval.wand import wand_search

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
    "wand_search",
    "block_max_wand_search",
    "conjunctive_search",
    "maxscore_search_kernel",
    "wand_search_kernel",
    "block_max_wand_search_kernel",
    "conjunctive_search_kernel",
    "KernelStats",
    "KERNEL_STRATEGIES",
    "DEFAULT_CHUNK",
    "ShardSearcher",
    "SearcherCacheStats",
    "DistributedSearcher",
    "STRATEGIES",
    "SerialExecutor",
]
