"""Property-based strategy equivalence over Hypothesis-generated corpora.

The retrieval layer's load-bearing invariant: MaxScore and the cursor-based
exhaustive reference return the same top-k as vectorized exhaustive
evaluation — same doc ids, scores within 1e-9 — on *any* corpus and
query, including the corners a hand-picked corpus misses (empty queries, out-of-vocabulary
terms, k beyond the corpus, duplicated query terms, single-doc shards).
Runs under the ``dev``/``ci`` Hypothesis profiles registered in
``conftest.py``.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.index import Document, IndexBuilder, open_store_buffer, serialize_shard
from repro.retrieval import (
    exhaustive_search,
    exhaustive_search_daat,
    maxscore_search,
    maxscore_search_kernel,
)
from repro.text import WhitespaceAnalyzer

CHALLENGERS = {
    "exhaustive_daat": exhaustive_search_daat,
    "maxscore": maxscore_search,
}

VOCAB = [f"w{i}" for i in range(12)]

# A document is a non-empty bag of vocabulary words; a corpus a non-empty
# doc list.  Small bounds keep each example's index build around a
# millisecond while still producing skewed tfs, ties and empty postings.
documents = st.lists(
    st.lists(st.sampled_from(VOCAB), min_size=1, max_size=25),
    min_size=1,
    max_size=40,
)

# Queries may repeat terms and may include words no document contains.
queries = st.lists(
    st.sampled_from(VOCAB + ["oov_a", "oov_b"]), min_size=0, max_size=5
)

ks = st.integers(min_value=1, max_value=60)


def build_shard(word_lists: list[list[str]]):
    builder = IndexBuilder(0, analyzer=WhitespaceAnalyzer())
    for doc_id, words in enumerate(word_lists):
        builder.add(Document(doc_id=doc_id, text=" ".join(words)))
    return builder.build()


def assert_same_topk(reference, challenger):
    """Same hits up to float-summation order.

    Strategies sum a document's term scores in different orders, so
    genuinely tied documents can differ by 1 ulp and swap at the tie —
    scores must match pairwise within 1e-9, and doc ids may differ only
    where the reference scores tie (or at the last slot, where a tied doc
    from beyond k can be promoted).  No doc id may appear twice.
    """
    assert len(challenger.hits) == len(reference.hits)
    assert len({d for d, _ in challenger.hits}) == len(challenger.hits)
    for (_, sc), (_, sr) in zip(challenger.hits, reference.hits):
        assert sc == pytest.approx(sr, abs=1e-9)
    ref_scores = [s for _, s in reference.hits]
    for i, ((dc, _), (dr, sr)) in enumerate(zip(challenger.hits, reference.hits)):
        if dc != dr:
            tied = [j for j, s in enumerate(ref_scores) if abs(s - sr) <= 1e-9]
            assert len(tied) > 1 or i == len(reference.hits) - 1


class TestPropertyEquivalence:
    @given(docs=documents, query=queries, k=ks)
    def test_all_strategies_match_exhaustive(self, docs, query, k):
        shard = build_shard(docs)
        reference = exhaustive_search(shard, query, k)
        for fn in CHALLENGERS.values():
            assert_same_topk(reference, fn(shard, query, k))

    @given(docs=documents, query=queries, k=ks)
    def test_pruning_never_does_more_work(self, docs, query, k):
        shard = build_shard(docs)
        full = exhaustive_search(shard, query, k)
        pruned = maxscore_search(shard, query, k)
        assert pruned.cost.docs_evaluated <= full.cost.docs_evaluated

    @given(docs=documents, k=ks)
    def test_k_beyond_corpus_returns_every_match(self, docs, k):
        """With k >= corpus size the top-k is simply every matching doc."""
        shard = build_shard(docs)
        query = ["w0", "w1"]
        reference = exhaustive_search(shard, query, k + len(docs))
        for fn in CHALLENGERS.values():
            assert_same_topk(reference, fn(shard, query, k + len(docs)))


class TestExplicitEdgeCases:
    """The corners the issue calls out, pinned without Hypothesis."""

    @pytest.fixture(scope="class")
    def shard(self):
        # Deterministic skewed corpus: w0 everywhere, w11 in one doc.
        return build_shard(
            [[VOCAB[min(j, i % 12)] for j in range(i % 7 + 1)] for i in range(50)]
        )

    @pytest.mark.parametrize("name", sorted(CHALLENGERS))
    def test_empty_query(self, shard, name):
        assert CHALLENGERS[name](shard, [], 10).hits == []

    @pytest.mark.parametrize("name", sorted(CHALLENGERS))
    def test_all_terms_oov(self, shard, name):
        assert CHALLENGERS[name](shard, ["nope", "missing"], 10).hits == []

    @pytest.mark.parametrize("name", sorted(CHALLENGERS))
    def test_oov_mixed_with_real_terms(self, shard, name):
        reference = exhaustive_search(shard, ["w0", "nope"], 10)
        assert_same_topk(reference, CHALLENGERS[name](shard, ["w0", "nope"], 10))
        assert reference.hits  # the real term still matches

    @pytest.mark.parametrize("name", sorted(CHALLENGERS))
    def test_duplicate_terms(self, shard, name):
        """Duplicated terms double-count consistently in every strategy."""
        query = ["w0", "w0", "w1", "w1", "w1"]
        reference = exhaustive_search(shard, query, 10)
        assert_same_topk(reference, CHALLENGERS[name](shard, query, 10))

    @pytest.mark.parametrize("name", sorted(CHALLENGERS))
    def test_k_larger_than_corpus(self, shard, name):
        reference = exhaustive_search(shard, ["w0"], 10_000)
        challenger = CHALLENGERS[name](shard, ["w0"], 10_000)
        assert_same_topk(reference, challenger)
        assert len(reference.hits) == shard.doc_freq("w0")


class TestCompressedStoreEquivalence:
    """Compressed mmap-backed shards are *bit-identical* to in-memory ones.

    Stronger than ``assert_same_topk``: the store round-trip must not
    change a single bit of MaxScore's output, so fingerprints (repr of
    every score, plus all ``CostStats`` counters) are compared for both
    the scalar reference and the arena kernel, the kernel forced on
    (``min_postings=0``) so small Hypothesis corpora exercise the
    vectorized decode path.
    """

    @staticmethod
    def kernel(shard, query, k):
        return maxscore_search_kernel(shard, query, k, min_postings=0)

    @given(docs=documents, query=queries, k=ks)
    def test_scalars_bit_identical_on_compressed(self, docs, query, k):
        shard = build_shard(docs)
        reopened = open_store_buffer(serialize_shard(shard))
        want = maxscore_search(shard, list(query), k).fingerprint()
        assert maxscore_search(reopened, list(query), k).fingerprint() == want

    @given(docs=documents, query=queries, k=ks)
    def test_kernels_bit_identical_on_compressed(self, docs, query, k):
        shard = build_shard(docs)
        reopened = open_store_buffer(serialize_shard(shard))
        want = self.kernel(shard, list(query), k).fingerprint()
        assert self.kernel(reopened, list(query), k).fingerprint() == want

    @given(docs=documents, query=queries, k=ks)
    def test_compressed_kernels_match_uncompressed_scalars(self, docs, query, k):
        """The cross-check the storage layer's contract is named for."""
        shard = build_shard(docs)
        reopened = open_store_buffer(serialize_shard(shard))
        want = maxscore_search(shard, list(query), k).fingerprint()
        assert self.kernel(reopened, list(query), k).fingerprint() == want
