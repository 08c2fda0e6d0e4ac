"""Bit-identity of the MaxScore arena kernel against its scalar reference.

Stronger than ``test_strategy_equivalence.py``'s tolerance-based check:
the block-scored kernel must reproduce its cursor-based reference
*exactly* — same hits, same float64 scores (same summation order), same
tie order, and every ``CostStats`` counter equal — on any Hypothesis
corpus.  ``SearchResult.fingerprint()`` captures all of that in one
string.  The kernel is forced onto the vectorized path with
``min_postings=0`` (the dispatch floor would otherwise route these small
corpora to the scalar and the test would vacuously pass) and swept over
fixed chunk sizes down to 1, since exactness must be chunk-size
independent.  Two further
suites aim at what one cascade per batch adds — several threshold
moves inside a batch and essential-split truncations: a Hypothesis
profile with many short documents and a small ``k``, and a deterministic
sweep over kernel-sized shards (``TestKernelScaleIdentity``).
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.experiments.bench_storage import build_scaled_shards
from repro.index import Document, IndexBuilder
from repro.retrieval import KernelStats, maxscore_search, maxscore_search_kernel
from repro.text import WhitespaceAnalyzer


def forced_maxscore_kernel(shard, terms, k):
    return maxscore_search_kernel(shard, terms, k, min_postings=0)


PAIRS = {"maxscore": (maxscore_search, forced_maxscore_kernel)}

VOCAB = [f"w{i}" for i in range(12)]

documents = st.lists(
    st.lists(st.sampled_from(VOCAB), min_size=1, max_size=25),
    min_size=1,
    max_size=40,
)

queries = st.lists(
    st.sampled_from(VOCAB + ["oov_a", "oov_b"]), min_size=0, max_size=5
)

ks = st.integers(min_value=1, max_value=60)

#: Many short documents and a small k, so one batch holds several
#: threshold moves and a split change.  The floor of 40 documents is what
#: makes that common: drawn from 1, a list averages 6 documents and 16%
#: of examples move the threshold inside a cascade; from 40 it is 76%,
#: with a truncated batch in 45%.
short_documents = st.lists(
    st.lists(st.sampled_from(VOCAB), min_size=1, max_size=6),
    min_size=40,
    max_size=300,
)


def build_shard(word_lists: list[list[str]]):
    builder = IndexBuilder(0, analyzer=WhitespaceAnalyzer())
    for doc_id, words in enumerate(word_lists):
        builder.add(Document(doc_id=doc_id, text=" ".join(words)))
    return builder.build()


class TestBitIdentity:
    @given(docs=documents, query=queries, k=ks)
    def test_kernels_match_references_exactly(self, docs, query, k):
        shard = build_shard(docs)
        for reference, kernel in PAIRS.values():
            assert (
                kernel(shard, list(query), k).fingerprint()
                == reference(shard, list(query), k).fingerprint()
            )

    @given(
        docs=documents,
        query=queries,
        k=ks,
        chunk=st.sampled_from([1, 2, 3, 7, 33, 64, 1024, 4096]),
    )
    def test_maxscore_exact_for_any_chunk_size(self, docs, query, k, chunk):
        """Batch boundaries are invisible: chunk=1 degenerates to one
        candidate per block and must still reproduce the reference."""
        shard = build_shard(docs)
        reference = maxscore_search(shard, list(query), k)
        kernel = maxscore_search_kernel(
            shard, list(query), k, chunk=chunk, min_postings=0
        )
        assert kernel.fingerprint() == reference.fingerprint()

    @given(
        docs=short_documents,
        query=queries,
        k=st.integers(min_value=1, max_value=5),
        chunk=st.sampled_from([7, 64, 4096]),
    )
    def test_maxscore_exact_with_many_moves_per_batch(self, docs, query, k, chunk):
        """The cascade runs under the batch-start threshold while offers
        move it many times: hits and counters must not notice."""
        shard = build_shard(docs)
        reference = maxscore_search(shard, list(query), k)
        kernel = maxscore_search_kernel(
            shard, list(query), k, chunk=chunk, min_postings=0
        )
        assert kernel.fingerprint() == reference.fingerprint()

    @given(docs=documents, query=queries, k=ks)
    def test_maxscore_dispatch_is_transparent(self, docs, query, k):
        """Below the postings floor the kernel dispatches to the scalar;
        with the default floor the result must be identical either way."""
        shard = build_shard(docs)
        assert (
            maxscore_search_kernel(shard, list(query), k).fingerprint()
            == maxscore_search(shard, list(query), k).fingerprint()
        )


class TestExplicitEdgeCases:
    @pytest.fixture(scope="class")
    def shard(self):
        return build_shard(
            [[VOCAB[min(j, i % 12)] for j in range(i % 7 + 1)] for i in range(50)]
        )

    @pytest.mark.parametrize("name", sorted(PAIRS))
    def test_empty_query(self, shard, name):
        _, kernel = PAIRS[name]
        result = kernel(shard, [], 10)
        assert result.hits == []
        assert result.cost.n_terms == 0

    @pytest.mark.parametrize("name", sorted(PAIRS))
    def test_all_terms_oov(self, shard, name):
        reference, kernel = PAIRS[name]
        query = ["nope", "missing"]
        assert (
            kernel(shard, query, 10).fingerprint()
            == reference(shard, query, 10).fingerprint()
        )

    @pytest.mark.parametrize("name", sorted(PAIRS))
    def test_duplicate_terms(self, shard, name):
        reference, kernel = PAIRS[name]
        query = ["w0", "w0", "w1", "w1", "w1"]
        assert (
            kernel(shard, query, 10).fingerprint()
            == reference(shard, query, 10).fingerprint()
        )

    @pytest.mark.parametrize("name", sorted(PAIRS))
    def test_k_larger_than_corpus(self, shard, name):
        reference, kernel = PAIRS[name]
        assert (
            kernel(shard, ["w0", "w1"], 10_000).fingerprint()
            == reference(shard, ["w0", "w1"], 10_000).fingerprint()
        )

    @pytest.mark.parametrize("name", sorted(PAIRS))
    def test_single_doc_shard(self, name):
        reference, kernel = PAIRS[name]
        shard = build_shard([["w0", "w1", "w0"]])
        assert (
            kernel(shard, ["w0", "w1"], 5).fingerprint()
            == reference(shard, ["w0", "w1"], 5).fingerprint()
        )

    @pytest.mark.parametrize("name", sorted(PAIRS))
    def test_k_must_be_positive(self, shard, name):
        _, kernel = PAIRS[name]
        with pytest.raises(ValueError):
            kernel(shard, ["w0"], 0)


class TestKernelScaleIdentity:
    """Multi-batch traversal at kernel scale against the scalar, without
    Hypothesis: 4 000-doc shards, the benchmark's query shape."""

    N_QUERIES = 40
    VOCAB_SIZE = 48

    @staticmethod
    def distinct_queries(n_queries, vocab_size, seed):
        """Different 2-4-term queries, head-biased over ``tNNN`` terms."""
        rng = np.random.default_rng(seed)
        seen: set[tuple[str, ...]] = set()
        while len(seen) < n_queries:
            n_terms = int(rng.integers(2, 5))
            ids = np.minimum(rng.geometric(0.08, size=n_terms) - 1, vocab_size - 1)
            terms = tuple(dict.fromkeys(f"t{t:03d}" for t in ids.tolist()))
            if len(terms) >= 2:
                seen.add(terms)
        return sorted(seen)

    def test_kernel_matches_scalar_across_chunks_and_k(self):
        seed = 3
        shards = build_scaled_shards(2, 4000, self.VOCAB_SIZE, seed)
        queries = self.distinct_queries(self.N_QUERIES, self.VOCAB_SIZE, seed)
        moved_inside_a_cascade = split_truncated = False
        for shard in shards:
            for terms in queries:
                for k in (1, 10, 100):
                    expected = maxscore_search(shard, list(terms), k).fingerprint()
                    for chunk in (32, 257, 4096):
                        stats = KernelStats()
                        result = maxscore_search_kernel(
                            shard, list(terms), k, chunk=chunk, stats=stats,
                            min_postings=0,
                        )
                        assert result.fingerprint() == expected, (terms, k, chunk)
                        # Filling the heap takes k offers; after that a
                        # batch makes one offer under its batch-start
                        # threshold.  Any further offer (ties aside)
                        # followed a move inside the same cascade.
                        moved_inside_a_cascade |= stats.offers > k + stats.chunks
                        split_truncated |= stats.threshold_restarts > 0
        assert moved_inside_a_cascade and split_truncated


class TestKernelStats:
    def test_maxscore_populates_stats(self):
        shard = build_shard(
            [[VOCAB[(i + j) % 12] for j in range(i % 9 + 1)] for i in range(80)]
        )
        stats = KernelStats()
        result = maxscore_search_kernel(
            shard, ["w0", "w1", "w2"], 5, stats=stats, min_postings=0
        )
        assert result.hits
        assert stats.chunks > 0
        assert stats.offers >= len(result.hits)
        assert stats.threshold_restarts >= 0

    def test_chunks_are_batches_and_restarts_are_split_truncations(self):
        """One term: the essential split cannot move, so no batch is
        truncated and the chunk doubles from 32 up to its cap."""
        n_docs, cap = 1000, 256
        shard = build_shard([["w0"] * (i % 5 + 1) for i in range(n_docs)])
        stats = KernelStats()
        result = maxscore_search_kernel(
            shard, ["w0"], 5, chunk=cap, stats=stats, min_postings=0
        )
        batches, size, left = 0, 32, n_docs
        while left > 0:
            batches += 1
            left -= size
            size = min(2 * size, cap)
        assert stats.chunks == batches == 7
        assert stats.threshold_restarts == 0
        assert stats.offers >= len(result.hits) == 5

    def test_stats_accumulate_across_calls(self):
        shard = build_shard([["w0", "w1"], ["w0"], ["w1", "w2"]])
        stats = KernelStats()
        maxscore_search_kernel(shard, ["w0", "w1"], 2, stats=stats, min_postings=0)
        first = stats.chunks
        maxscore_search_kernel(shard, ["w0", "w1"], 2, stats=stats, min_postings=0)
        assert stats.chunks == 2 * first
