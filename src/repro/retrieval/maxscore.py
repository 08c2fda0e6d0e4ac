"""MaxScore dynamic pruning (Turtle & Flood, 1995), DAAT variant.

MaxScore splits the query's posting lists into *essential* lists — those
whose combined score upper bounds can still beat the current top-K
threshold — and *non-essential* lists that are only probed for documents
already surfaced by an essential list.  Documents whose partial score plus
the remaining upper bounds cannot reach the threshold are abandoned early.

This is the default evaluation strategy of the reproduction's ISNs, matching
the paper's observation that Solr/Lucene-style engines run dynamic pruning
(Section III-C), which is what makes service time hard to predict from
posting length alone.  This cursor-based form is the test oracle of the
vectorized :func:`~repro.retrieval.kernels.maxscore_search_kernel`.
"""

from __future__ import annotations

import numpy as np

from repro.index.postings import END_OF_LIST, PostingCursor
from repro.index.shard import IndexShard
from repro.retrieval.result import CostStats, SearchResult
from repro.retrieval.topk import TopKCollector


def _prepare_cursors(shard: IndexShard, terms: list[str]) -> list[PostingCursor]:
    """Cursors with scores and upper bounds attached, sorted by upper bound
    ascending (the MaxScore essential-list order)."""
    cursors = []
    for term in terms:
        run = shard.arena.run(term)
        if run is None:
            continue
        run.widen()  # posting by posting: one pass beats boxing narrow values
        cursor = PostingCursor(run.doc_ids)
        cursor.scores = np.asarray(run.scores)  # float64 since widen()
        cursor.upper_bound = run.upper_bound
        cursors.append(cursor)
    cursors.sort(key=lambda c: c.upper_bound)
    return cursors


def maxscore_search(shard: IndexShard, terms: list[str], k: int) -> SearchResult:
    """Top-k disjunctive evaluation with MaxScore pruning."""
    if k < 1:
        raise ValueError("k must be positive")
    cursors = _prepare_cursors(shard, terms)
    collector = TopKCollector(k)
    cost = CostStats(n_terms=len(terms))
    if not cursors:
        return SearchResult(hits=[], cost=cost)

    n = len(cursors)
    # prefix[i] = sum of upper bounds of cursors[0..i] (ascending order).
    prefix = [0.0] * n
    acc = 0.0
    for i, cursor in enumerate(cursors):
        acc += cursor.upper_bound
        prefix[i] = acc

    while True:
        threshold = collector.threshold()
        # Essential boundary: the smallest index whose cumulative bound can
        # still tie the threshold (ties can enter, so >= not >).
        first_essential = n
        for i in range(n):
            if prefix[i] >= threshold:
                first_essential = i
                break
        if first_essential >= n:
            break  # even all lists together cannot reach the threshold

        candidate = END_OF_LIST
        for cursor in cursors[first_essential:]:
            doc = cursor.doc()
            if doc < candidate:
                candidate = doc
        if candidate == END_OF_LIST:
            break

        score = 0.0
        for cursor in cursors[first_essential:]:
            if cursor.doc() == candidate:
                score += cursor.score()
                cost.postings_scored += 1
                cursor.next()

        # Probe non-essential lists from the largest bound down; abandon as
        # soon as the remaining bounds cannot lift the score to the bar.
        abandoned = False
        for j in range(first_essential - 1, -1, -1):
            if score + prefix[j] < threshold:
                abandoned = True
                break
            cursor = cursors[j]
            before = cursor.position
            doc = cursor.next_geq(candidate)
            cost.postings_skipped += cursor.position - before
            if doc == candidate:
                score += cursor.score()
                cost.postings_scored += 1
                cursor.next()
        cost.docs_evaluated += 1
        if not abandoned:
            collector.offer(candidate, score)

    return SearchResult(hits=collector.results(), cost=cost)
