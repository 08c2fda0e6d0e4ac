"""Edge-case tests for the IndexShard API."""

import numpy as np
import pytest
from conftest import hand_built_shard

from repro.index import (
    Document,
    IndexBuilder,
    open_store_buffer,
    serialize_shard,
)
from repro.text import WhitespaceAnalyzer


@pytest.fixture(scope="module")
def shard():
    builder = IndexBuilder(3, analyzer=WhitespaceAnalyzer())
    builder.add(Document(doc_id=10, text="alpha beta beta"))
    builder.add(Document(doc_id=20, text="beta gamma"))
    return builder.build()


def global_df(shard, term):
    """``term``'s entry of the shard's ``global_dfs`` column."""
    return int(shard.global_dfs[shard.terms().index(term)])


class TestShardAPI:
    def test_has_term(self, shard):
        assert shard.has_term("beta")
        assert not shard.has_term("delta")

    def test_doc_freq_absent_term(self, shard):
        assert shard.doc_freq("delta") == 0

    def test_idf_absent_term_is_max(self, shard):
        # df = 0 gives the largest idf the similarity can emit.
        assert shard.idf("delta") >= shard.idf("beta")

    def test_postings_and_scores_none_for_absent(self, shard):
        assert shard.arena.run("delta") is None
        assert shard.scores("delta") is None
        assert shard.upper_bound("delta") == 0.0

    def test_vocabulary_and_terms(self, shard):
        assert shard.vocabulary_size() == 3
        assert set(shard.terms()) == {"alpha", "beta", "gamma"}

    def test_len_is_doc_count(self, shard):
        assert len(shard) == 2

    def test_shard_id(self, shard):
        assert shard.shard_id == 3

    def test_global_defaults_to_local_when_unset(self, shard):
        assert shard.n_docs_global == shard.n_docs
        assert global_df(shard, "beta") == shard.doc_freq("beta")

    def test_terms_sorted_and_kept_by_the_store(self):
        """Both shard kinds list terms in sorted order, not in the order
        documents introduced them, and agree on every term's global
        document frequency — floored at the local one."""
        builder = IndexBuilder(0, analyzer=WhitespaceAnalyzer())
        builder.add(Document(doc_id=1, text="zeta alpha mu alpha"))
        builder.add(Document(doc_id=2, text="mu beta"))
        built = builder.build()
        assert built.terms() == ["alpha", "beta", "mu", "zeta"]
        floored = hand_built_shard(
            {"b": ([1, 2, 5], [0.1, 0.2, 0.3]), "a": ([4], [0.4])},
            global_dfs=np.array([7, 1]),  # "a" above its local df, "b" below
        )
        assert [global_df(floored, t) for t in ("a", "b")] == [7, 3]
        for shard, terms in (
            (built, ["alpha", "beta", "mu", "zeta"]),
            (floored, ["a", "b"]),
        ):
            reopened = open_store_buffer(serialize_shard(shard))
            assert shard.terms() == reopened.terms() == terms
            for term in terms:
                want = global_df(shard, term)
                assert global_df(reopened, term) == want
                assert reopened.idf(term) == shard.idf(term)
                assert want >= shard.doc_freq(term)
        assert [global_df(built, t) for t in built.terms()] == [
            built.doc_freq(t) for t in built.terms()
        ]

