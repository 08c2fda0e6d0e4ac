"""Index construction: documents in, immutable IndexShard out."""

from __future__ import annotations

import sys
from collections import Counter
from dataclasses import dataclass, field
from typing import Iterable

import numpy as np

from repro.index.arena import PostingsArena
from repro.index.documents import Document
from repro.index.shard import DocLengths, IndexShard
from repro.scoring.similarity import BM25Similarity, Similarity
from repro.text.analyzer import Analyzer, StandardAnalyzer


@dataclass
class CollectionStats:
    """Collection-wide statistics for distributed (global-IDF) scoring.

    Solr/Lucene distributed search can score each shard against global
    term statistics so scores are comparable across shards; that mode is
    the default here because the aggregator merges shard results by raw
    score.  Built by :func:`gather_collection_stats` over all shards'
    buffered documents before any shard is finalized.
    """

    n_docs: int = 0
    total_tokens: int = 0
    doc_freq: dict[str, int] = field(default_factory=dict)

    @property
    def avg_doc_length(self) -> float:
        return self.total_tokens / self.n_docs if self.n_docs else 0.0


class IndexBuilder:
    """Single-pass in-memory indexer for one shard.

    Usage::

        builder = IndexBuilder(shard_id=0)
        for doc in docs:
            builder.add(doc)
        shard = builder.build()

    Documents may be added in any order; the builder sorts by doc id before
    constructing posting lists (posting lists must be doc-id ordered for the
    DAAT evaluators).  Pass ``stats`` from :func:`gather_collection_stats`
    to score with global statistics (the default in :func:`build_shards`).

    Tokens are buffered ``sys.intern``-ed: one ``str`` per distinct term,
    referenced by every occurrence, not one per token (a heap of small
    strings the allocator could not hand back after the build).
    """

    def __init__(
        self,
        shard_id: int,
        analyzer: Analyzer | None = None,
        similarity: Similarity | None = None,
    ) -> None:
        self.shard_id = shard_id
        self.analyzer = analyzer or StandardAnalyzer()
        self.similarity = similarity or BM25Similarity()
        self._docs: dict[int, list[str]] = {}

    def add(self, doc: Document) -> None:
        """Analyze and buffer one document."""
        if doc.doc_id in self._docs:
            raise ValueError(f"duplicate doc_id {doc.doc_id} in shard {self.shard_id}")
        tokens = self.analyzer.analyze(doc.full_text())
        self._docs[doc.doc_id] = list(map(sys.intern, tokens))

    def add_all(self, docs: Iterable[Document]) -> None:
        for doc in docs:
            self.add(doc)

    def __len__(self) -> int:
        return len(self._docs)

    def local_stats(self) -> CollectionStats:
        """This builder's contribution to the collection statistics."""
        stats = CollectionStats()
        stats.n_docs = len(self._docs)
        for tokens in self._docs.values():
            stats.total_tokens += len(tokens)
            for term in set(tokens):
                stats.doc_freq[term] = stats.doc_freq.get(term, 0) + 1
        return stats

    def build(self, stats: CollectionStats | None = None) -> IndexShard:
        """Construct the immutable shard from everything added so far.

        With ``stats`` the shard scores against global document frequency
        and average length; without, against its local statistics only.
        """
        doc_ids = sorted(self._docs)
        doc_lengths = DocLengths(
            np.asarray(doc_ids, dtype=np.int64),
            np.asarray([len(self._docs[d]) for d in doc_ids], dtype=np.int64),
        )
        total_tokens = int(doc_lengths.lengths.sum())
        n_docs = len(doc_ids)
        avg_dl_local = total_tokens / n_docs if n_docs else 0.0

        score_n_docs = stats.n_docs if stats is not None else n_docs
        score_avg_dl = stats.avg_doc_length if stats is not None else avg_dl_local

        # One (term, doc, tf) triple per posting, docs ascending; a stable
        # sort on the term's rank in sorted order lays the triples out as
        # the arena's sorted-term columns, each term's docs still ascending.
        first_seen: dict[str, int] = {}
        post_tids: list[int] = []
        post_docs: list[int] = []
        post_tfs: list[int] = []
        for doc_id in doc_ids:
            for term, tf in Counter(self._docs[doc_id]).items():
                post_tids.append(first_seen.setdefault(term, len(first_seen)))
                post_docs.append(doc_id)
                post_tfs.append(tf)
        terms = sorted(first_seen)
        rank = np.empty(len(terms), dtype=np.int64)
        rank[[first_seen[term] for term in terms]] = np.arange(len(terms))
        term_col = rank[np.asarray(post_tids, dtype=np.int64)]
        order = np.argsort(term_col, kind="stable")
        offsets = np.zeros(len(terms) + 1, dtype=np.int64)
        np.cumsum(np.bincount(term_col, minlength=len(terms)), out=offsets[1:])
        post_doc_ids = np.asarray(post_docs, dtype=np.int64)[order]
        tfs = np.asarray(post_tfs, dtype=np.int32)[order]
        lengths = doc_lengths.lengths.take(
            np.searchsorted(doc_lengths.ids, post_doc_ids)
        ).astype(np.float64)

        scores = np.empty(post_doc_ids.size, dtype=np.float64)
        upper_bounds = np.empty(len(terms), dtype=np.float64)
        global_dfs = np.diff(offsets)
        for tid, term in enumerate(terms):
            lo, hi = int(offsets[tid]), int(offsets[tid + 1])
            if stats is not None:
                global_dfs[tid] = stats.doc_freq.get(term, hi - lo)
            df = int(global_dfs[tid])
            scores[lo:hi] = self.similarity.scores(
                tfs[lo:hi], lengths[lo:hi], df, score_n_docs, score_avg_dl
            )
            upper = self.similarity.upper_bound(
                int(tfs[lo:hi].max()), df, score_n_docs, score_avg_dl
            )
            # Precomputed scores can exceed the analytic bound only through
            # floating error; clamp the bound so pruning stays admissible.
            upper_bounds[tid] = max(upper, float(scores[lo:hi].max()))

        return IndexShard(
            shard_id=self.shard_id,
            n_docs=n_docs,
            avg_doc_length=avg_dl_local,
            total_tokens=total_tokens,
            doc_lengths=doc_lengths,
            similarity=self.similarity,
            arena=PostingsArena(
                terms, offsets, post_doc_ids, tfs, scores, upper_bounds
            ),
            global_dfs=global_dfs,
            n_docs_global=score_n_docs,
        )


def gather_collection_stats(builders: list[IndexBuilder]) -> CollectionStats:
    """Merge every builder's local statistics into global collection stats."""
    merged = CollectionStats()
    for builder in builders:
        local = builder.local_stats()
        merged.n_docs += local.n_docs
        merged.total_tokens += local.total_tokens
        for term, df in local.doc_freq.items():
            merged.doc_freq[term] = merged.doc_freq.get(term, 0) + df
    return merged


def build_shards(
    doc_groups: list[list[Document]],
    analyzer: Analyzer | None = None,
    similarity: Similarity | None = None,
    global_stats: bool = True,
) -> list[IndexShard]:
    """Build one shard per document group (the output of a partitioner).

    ``global_stats=True`` (default) scores every shard against collection-
    wide statistics — Solr's distributed-IDF mode — so the aggregator's
    score-based merge is exact.  Disable to reproduce per-shard (local-IDF)
    scoring.
    """
    builders = []
    for shard_id, group in enumerate(doc_groups):
        builder = IndexBuilder(shard_id, analyzer=analyzer, similarity=similarity)
        builder.add_all(group)
        builders.append(builder)
    stats = gather_collection_stats(builders) if global_stats else None
    return [builder.build(stats) for builder in builders]
