"""Unit + property tests for conjunctive (AND) evaluation."""

import random
from types import SimpleNamespace

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from test_strategy_equivalence import assert_same_topk

from repro.index import Document, IndexBuilder
from repro.retrieval import conjunctive_search, exhaustive_search
from repro.text import WhitespaceAnalyzer


def build_shard(n_docs=120, vocab=20, seed=0):
    rng = random.Random(seed)
    builder = IndexBuilder(0, analyzer=WhitespaceAnalyzer())
    for doc_id in range(n_docs):
        words = [f"w{rng.randint(0, vocab - 1)}" for _ in range(rng.randint(5, 25))]
        builder.add(Document(doc_id=doc_id, text=" ".join(words)))
    return builder.build()


def reference_and(shard, terms, k):
    """Brute-force intersection via doc-id sets + disjunctive scores.

    Returned with a ``hits`` attribute so ``assert_same_topk`` takes it:
    ``conjunctive_search`` sums rarest term first, the disjunctive
    reference in query order, so tied documents may sit 1 ulp apart.
    """
    doc_sets = []
    for term in terms:
        postings = shard.postings(term)
        doc_sets.append(set(postings.doc_ids.tolist()) if postings else set())
    common = set.intersection(*doc_sets) if doc_sets else set()
    full = exhaustive_search(shard, terms, shard.n_docs or 1)
    hits = [(doc, score) for doc, score in full.hits if doc in common]
    return SimpleNamespace(hits=hits[:k])


class TestConjunctive:
    def test_single_term_equals_disjunctive(self):
        shard = build_shard()
        a = conjunctive_search(shard, ["w3"], 10)
        b = exhaustive_search(shard, ["w3"], 10)
        assert a.hits == b.hits

    def test_two_terms_matches_reference(self):
        shard = build_shard()
        got = conjunctive_search(shard, ["w1", "w2"], 10)
        assert_same_topk(reference_and(shard, ["w1", "w2"], 10), got)

    def test_results_contain_all_terms(self):
        shard = build_shard()
        terms = ["w0", "w4", "w9"]
        result = conjunctive_search(shard, terms, 20)
        for doc_id, _ in result.hits:
            for term in terms:
                assert doc_id in set(shard.postings(term).doc_ids.tolist())

    def test_missing_term_empties_result(self):
        shard = build_shard()
        assert conjunctive_search(shard, ["w1", "nosuch"], 10).hits == []

    def test_empty_terms(self):
        shard = build_shard()
        assert conjunctive_search(shard, [], 10).hits == []

    def test_subset_of_disjunctive_docs(self):
        shard = build_shard()
        terms = ["w1", "w2"]
        conj = conjunctive_search(shard, terms, 100)
        disj = exhaustive_search(shard, terms, shard.n_docs)
        assert set(d for d, _ in conj.hits) <= set(d for d, _ in disj.hits)
        assert conj.cost.docs_evaluated <= disj.cost.docs_evaluated

    def test_k_validation(self):
        with pytest.raises(ValueError):
            conjunctive_search(build_shard(20), ["w0"], 0)


@settings(max_examples=60, deadline=None)
@given(
    seed=st.integers(0, 500),
    term_ids=st.lists(st.integers(0, 15), min_size=1, max_size=4, unique=True),
    k=st.integers(1, 12),
)
# Docs 19 and 28 tie 1 ulp apart at the k-th slot, in opposite orders.
@example(seed=16, term_ids=[2, 3, 13, 6], k=7)
def test_conjunctive_matches_reference_property(seed, term_ids, k):
    shard = build_shard(n_docs=60, vocab=16, seed=seed)
    terms = [f"w{i}" for i in term_ids]
    got = conjunctive_search(shard, terms, k)
    assert_same_topk(reference_and(shard, terms, k), got)
