"""Unit tests for index construction and collection statistics."""

import numpy as np
import pytest

from repro.index import (
    CollectionStats,
    Document,
    IndexBuilder,
    build_shards,
    gather_collection_stats,
)
from repro.scoring import BM25Similarity
from repro.text import WhitespaceAnalyzer


def make_builder(shard_id=0):
    return IndexBuilder(shard_id, analyzer=WhitespaceAnalyzer())


class TestIndexBuilder:
    def test_basic_build(self):
        builder = make_builder()
        builder.add(Document(doc_id=0, text="apple banana apple"))
        builder.add(Document(doc_id=1, text="banana cherry"))
        shard = builder.build()
        assert shard.n_docs == 2
        assert shard.doc_freq("apple") == 1
        assert shard.doc_freq("banana") == 2
        run = shard.arena.run("apple")
        assert run.doc_ids.tolist() == [0]
        # tf 2 in a 3-token document, under the shard's own statistics.
        want = BM25Similarity.scores(np.array([2]), np.array([3.0]), 1, 2, 2.5)
        assert run.scores.tolist() == want.tolist()

    def test_duplicate_doc_rejected(self):
        builder = make_builder()
        builder.add(Document(doc_id=0, text="x"))
        with pytest.raises(ValueError):
            builder.add(Document(doc_id=0, text="y"))

    def test_out_of_order_add_is_fine(self):
        builder = make_builder()
        builder.add(Document(doc_id=9, text="a b"))
        builder.add(Document(doc_id=1, text="a"))
        shard = builder.build()
        assert shard.arena.run("a").doc_ids.tolist() == [1, 9]

    def test_doc_lengths_and_avg(self):
        builder = make_builder()
        builder.add(Document(doc_id=0, text="a b c"))
        builder.add(Document(doc_id=1, text="a"))
        shard = builder.build()
        assert shard.avg_doc_length == 2.0
        assert shard.total_tokens == 4

    def test_title_is_indexed(self):
        builder = make_builder()
        builder.add(Document(doc_id=0, text="body", title="headline"))
        shard = builder.build()
        assert shard.has_term("headline")

    def test_scores_attached_and_positive(self):
        builder = make_builder()
        builder.add(Document(doc_id=0, text="a a b"))
        builder.add(Document(doc_id=1, text="b c"))
        shard = builder.build()
        for term in shard.terms():
            scores = shard.scores(term)
            assert scores.shape == (shard.doc_freq(term),)
            assert (scores > 0).all()

    def test_upper_bound_dominates_scores(self):
        builder = make_builder()
        for i in range(20):
            builder.add(Document(doc_id=i, text="x " * (i + 1) + "y"))
        shard = builder.build()
        for term in shard.terms():
            assert shard.scores(term).max() <= shard.upper_bound(term) + 1e-12

    def test_empty_build(self):
        shard = make_builder().build()
        assert shard.n_docs == 0
        assert shard.vocabulary_size() == 0


class TestCollectionStats:
    def test_local_stats(self):
        builder = make_builder()
        builder.add(Document(doc_id=0, text="a a b"))
        builder.add(Document(doc_id=1, text="b"))
        stats = builder.local_stats()
        assert stats.n_docs == 2
        assert stats.total_tokens == 4
        assert stats.doc_freq == {"a": 1, "b": 2}

    def test_gather_merges(self):
        b0, b1 = make_builder(0), make_builder(1)
        b0.add(Document(doc_id=0, text="a b"))
        b1.add(Document(doc_id=1, text="b c"))
        merged = gather_collection_stats([b0, b1])
        assert merged.n_docs == 2
        assert merged.doc_freq == {"a": 1, "b": 2, "c": 1}
        assert merged.avg_doc_length == 2.0

    def test_empty_stats_avg(self):
        assert CollectionStats().avg_doc_length == 0.0


DOCS0 = [Document(doc_id=0, text="rare common"),
         Document(doc_id=1, text="common common filler")]
DOCS1 = [Document(doc_id=2, text="common filler"),
         Document(doc_id=3, text="common other")]


class TestGlobalStatsScoring:
    def _two_shards(self):
        return build_shards([DOCS0, DOCS1], analyzer=WhitespaceAnalyzer())

    def test_global_idf_shared_across_shards(self):
        s0, s1 = self._two_shards()
        assert s0.idf("common") == pytest.approx(s1.idf("common"))
        assert s0.global_dfs[s0.terms().index("common")] == 4
        assert s0.n_docs_global == 4

    def test_local_idf_differs(self):
        # A builder given no collection statistics (the CSI's) scores
        # against its own documents only.
        builder = make_builder()
        builder.add_all(DOCS0)
        s0 = builder.build()
        assert s0.global_dfs[s0.terms().index("common")] == 2
        assert s0.n_docs_global == s0.n_docs

    def test_global_idf_makes_rare_terms_score_higher(self):
        s0, _ = self._two_shards()
        rare = float(np.max(s0.scores("rare")))
        common = float(np.max(s0.scores("common")))
        assert rare > common
