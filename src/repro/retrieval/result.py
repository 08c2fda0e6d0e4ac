"""Search results and evaluation cost accounting."""

from __future__ import annotations

from dataclasses import dataclass, field
from operator import itemgetter

_SCORE = itemgetter(1)


@dataclass
class CostStats:
    """What a query evaluation cost on one shard.

    These counters feed two places: the service-time model of the cluster
    simulator (more work scored -> longer service time) and the paper's
    C_RES resource metric (documents searched across used ISNs, Fig. 15d).
    """

    docs_evaluated: int = 0
    postings_scored: int = 0
    postings_skipped: int = 0
    n_terms: int = 0

    def merge(self, other: "CostStats") -> None:
        self.docs_evaluated += other.docs_evaluated
        self.postings_scored += other.postings_scored
        self.postings_skipped += other.postings_skipped
        self.n_terms = max(self.n_terms, other.n_terms)


@dataclass
class SearchResult:
    """Ranked hits from one shard (or from a merge of shards).

    ``hits`` is ordered best-first: descending score, ascending doc id on
    ties — the deterministic order every evaluator in this package
    produces.
    """

    hits: list[tuple[int, float]] = field(default_factory=list)
    cost: CostStats = field(default_factory=CostStats)

    def doc_ids(self) -> list[int]:
        return [doc_id for doc_id, _ in self.hits]

    def fingerprint(self) -> str:
        """Canonical byte-for-byte identity: hits (full float repr) + cost.

        Two results with the same fingerprint are interchangeable
        everywhere downstream; the determinism tests compare runs on
        exactly this.
        """
        hit_part = ";".join(f"{doc}:{score!r}" for doc, score in self.hits)
        cost = self.cost
        return (
            f"{hit_part}|{cost.docs_evaluated},{cost.postings_scored},"
            f"{cost.postings_skipped},{cost.n_terms}"
        )

    def __len__(self) -> int:
        return len(self.hits)


def merge_results(results: list[SearchResult], k: int) -> SearchResult:
    """Aggregator-side merge: global top-k over per-shard top-k lists.

    Scores are globally comparable because every shard uses the same
    similarity over its own collection statistics — the same assumption
    Solr's distributed search makes.  Costs are summed, which makes the
    merged ``docs_evaluated`` exactly C_RES.

    The merge is order-independent for the hits: they are ranked by the
    total order (descending score, ascending doc id) — the order every
    evaluator's ``TopKCollector`` produces — so shuffling the input lists
    cannot change the output.  Cost counters are summed — commutative in
    every field — so the merged result is bit-identical however the
    per-shard results were produced.
    """
    if k < 1:
        raise ValueError("k must be positive")
    docs = scored = skipped = n_terms = 0
    hits: list[tuple[int, float]] = []
    for result in results:
        cost = result.cost
        docs += cost.docs_evaluated
        scored += cost.postings_scored
        skipped += cost.postings_skipped
        if cost.n_terms > n_terms:
            n_terms = cost.n_terms
        hits += result.hits
    # Two stable C-level sorts instead of one offer per hit: by doc id,
    # then by descending score (reverse keeps equal scores in doc order).
    hits.sort()
    hits.sort(key=_SCORE, reverse=True)
    return SearchResult(hits=hits[:k], cost=CostStats(docs, scored, skipped, n_terms))
