"""Using the substrate as a plain search engine over English text.

The reproduction's index/retrieval layers are a complete BM25 engine; this
example indexes a small hand-written document collection across two shards
and answers keyword queries with each evaluation strategy, showing that
dynamic pruning returns identical results with less work.

    python examples/search_engine.py "distributed search latency"
"""

import os
import sys

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

from repro.index import Document, build_shards, partition_round_robin
from repro.retrieval import DistributedSearcher, Query
from repro.text import StandardAnalyzer

ARTICLES = [
    ("Distributed search engines", "Distributed web search engines partition the "
     "document index across many serving nodes and aggregate ranked results."),
    ("Tail latency", "The slowest index serving node determines a query's tail "
     "latency, so stragglers dominate user-perceived response time."),
    ("Dynamic pruning", "MaxScore skips documents whose score upper bounds "
     "cannot reach the current top-k threshold, saving query latency."),
    ("DVFS power management", "Dynamic voltage and frequency scaling trades "
     "processor power for speed; boosting frequency accelerates slow queries."),
    ("Selective search", "Selective search ranks index shards by expected "
     "relevance and searches only the most promising ones."),
    ("BM25 ranking", "BM25 scores a document by term frequency saturation and "
     "inverse document frequency with length normalization."),
    ("Query latency prediction", "Service time correlates with posting list "
     "length, but pruning makes simple linear predictors inaccurate."),
    ("Energy efficiency", "Data centers keep search node utilization low to "
     "meet latency targets, wasting energy at light load."),
    ("Neural predictors", "Small neural networks over index statistics can "
     "predict a query's latency and each shard's quality contribution."),
    ("Time budgets", "A per-query time budget tells every serving node when "
     "the aggregator will stop waiting for its results."),
]


def main() -> None:
    query_text = " ".join(sys.argv[1:]) or "search latency prediction"
    analyzer = StandardAnalyzer()
    docs = [
        Document(doc_id=i, title=title, text=body)
        for i, (title, body) in enumerate(ARTICLES)
    ]
    shards = build_shards(partition_round_robin(docs, 2), analyzer=analyzer)

    query = Query.from_text(query_text, analyzer)
    print(f"query: {query_text!r}  -> terms {list(query.terms)}")

    for strategy in ("exhaustive", "maxscore"):
        searcher = DistributedSearcher(shards, k=3, strategy=strategy)
        result = searcher.search(query)
        print(f"\n[{strategy}] evaluated {result.cost.docs_evaluated} docs, "
              f"scored {result.cost.postings_scored} postings")
        for rank, (doc_id, score) in enumerate(result.hits, start=1):
            print(f"  {rank}. ({score:5.2f}) {ARTICLES[doc_id][0]}")


if __name__ == "__main__":
    main()
