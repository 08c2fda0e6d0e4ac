"""Exhaustive disjunctive evaluation.

Scores every document containing at least one query term.  This is the
paper's baseline policy and also the source of all quality ground truth
(an ISN's "quality" is how many of its documents reach the exhaustive
global top-K).  Two implementations are provided: a vectorized one (fast
path, used everywhere) and a cursor-based reference used by property tests
to cross-check the DAAT machinery.
"""

from __future__ import annotations

import numpy as np

from repro.index.postings import END_OF_LIST, PostingCursor
from repro.index.shard import IndexShard
from repro.retrieval.result import CostStats, SearchResult
from repro.retrieval.topk import TopKCollector


def exhaustive_search(shard: IndexShard, terms: list[str], k: int) -> SearchResult:
    """Vectorized full evaluation of a disjunctive query on one shard."""
    if k < 1:
        raise ValueError("k must be positive")
    doc_arrays = []
    score_arrays = []
    n_postings = 0
    for term in terms:
        run = shard.arena.run(term)
        if run is None:
            continue
        doc_arrays.append(run.doc_ids)
        score_arrays.append(np.asarray(run.scores))
        n_postings += run.size
    if not doc_arrays:
        return SearchResult(hits=[], cost=CostStats(n_terms=len(terms)))

    all_docs = np.concatenate(doc_arrays)
    all_scores = np.concatenate(score_arrays)
    unique_docs, inverse = np.unique(all_docs, return_inverse=True)
    totals = np.zeros(unique_docs.size, dtype=np.float64)
    np.add.at(totals, inverse, all_scores)

    top = min(k, unique_docs.size)
    # argsort on (-score, doc_id): lexsort keys are (secondary, primary).
    order = np.lexsort((unique_docs, -totals))[:top]
    hits = [(int(unique_docs[i]), float(totals[i])) for i in order]
    cost = CostStats(
        docs_evaluated=int(unique_docs.size),
        postings_scored=n_postings,
        postings_skipped=0,
        n_terms=len(terms),
    )
    return SearchResult(hits=hits, cost=cost)


def exhaustive_search_daat(shard: IndexShard, terms: list[str], k: int) -> SearchResult:
    """Cursor-based reference implementation (slow, for cross-checking)."""
    if k < 1:
        raise ValueError("k must be positive")
    cursors = []
    for term in terms:
        run = shard.arena.run(term)
        if run is None:
            continue
        run.widen()  # posting by posting: one pass beats boxing narrow values
        cursor = PostingCursor(run.doc_ids)
        cursor.scores = np.asarray(run.scores)  # float64 since widen()
        cursors.append(cursor)
    collector = TopKCollector(k)
    cost = CostStats(n_terms=len(terms))
    while True:
        current = min((c.doc() for c in cursors), default=END_OF_LIST)
        if current == END_OF_LIST:
            break
        score = 0.0
        for cursor in cursors:
            if cursor.doc() == current:
                score += cursor.score()
                cost.postings_scored += 1
                cursor.next()
        cost.docs_evaluated += 1
        collector.offer(current, score)
    return SearchResult(hits=collector.results(), cost=cost)
