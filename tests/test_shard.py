"""Edge-case tests for the IndexShard API."""

import numpy as np
import pytest
from conftest import hand_built_shard

from repro.index import (
    BLOCK_SIZE,
    DocLengths,
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
        assert shard.postings("delta") is None
        assert shard.scores("delta") is None
        assert shard.upper_bound("delta") == 0.0

    def test_vocabulary_and_terms(self, shard):
        assert shard.vocabulary_size() == 3
        assert set(shard.terms()) == {"alpha", "beta", "gamma"}

    def test_contains_doc(self, shard):
        assert shard.contains_doc(10)
        assert not shard.contains_doc(11)

    def test_len_is_doc_count(self, shard):
        assert len(shard) == 2

    def test_shard_id(self, shard):
        assert shard.shard_id == 3

    def test_block_maxes_exist_for_all_terms(self, shard):
        for term in shard.terms():
            entry = shard.term(term)
            expected_blocks = (len(entry.postings) + BLOCK_SIZE - 1) // BLOCK_SIZE
            assert entry.block_maxes.shape == (expected_blocks,)

    def test_global_defaults_to_local_when_unset(self, shard):
        assert shard.n_docs_global == shard.n_docs
        assert shard.term("beta").global_doc_freq == shard.doc_freq("beta")

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
            {"b": ([1, 2, 5], [1, 1, 2], [0.1, 0.2, 0.3]), "a": ([4], [1], [0.4])},
            global_dfs=np.array([7, 1]),  # "a" above its local df, "b" below
        )
        assert [floored.term(t).global_doc_freq for t in ("a", "b")] == [7, 3]
        for shard, terms in (
            (built, ["alpha", "beta", "mu", "zeta"]),
            (floored, ["a", "b"]),
        ):
            reopened = open_store_buffer(serialize_shard(shard))
            assert shard.terms() == reopened.terms() == terms
            for term in terms:
                want = shard.term(term).global_doc_freq
                assert reopened.term(term).global_doc_freq == want
                assert reopened.idf(term) == shard.idf(term)
                assert want >= shard.doc_freq(term)
        assert [built.term(t).global_doc_freq for t in built.terms()] == [
            built.doc_freq(t) for t in built.terms()
        ]


class TestDocLengths:
    @pytest.mark.parametrize(
        "ids, lengths, message",
        [
            ([3, 1, 5], [1, 2, 3], "unsorted id 1 after 3"),
            ([1, 3, 3], [1, 2, 3], "duplicate id 3 after 3"),
            ([1, 3, 5], [1, -2, 3], "negative length -2 for id 3"),
            ([1, 3, 5], [1, 2], "3 ids but 2 lengths"),
        ],
        ids=["unsorted", "duplicate", "negative", "mismatched"],
    )
    def test_malformed_columns_rejected(self, ids, lengths, message):
        with pytest.raises(ValueError, match=message) as caught:
            DocLengths(ids, lengths)
        assert "\n" not in str(caught.value)

    def test_malformed_shard_fails_when_built(self):
        with pytest.raises(ValueError, match="negative length"):
            hand_built_shard({}, doc_lengths=DocLengths([0, 1], [3, -1]))

    def test_field_takes_only_doc_lengths(self):
        with pytest.raises(TypeError, match="DocLengths, got dict"):
            hand_built_shard({}, doc_lengths={0: 1})

    def test_mapping_behaviour(self):
        lengths = np.array([5, 0, 9], dtype=np.int64)
        doc_lengths = DocLengths(np.array([3, 7, 2**40]), lengths)
        assert 7 in doc_lengths and np.int64(2**40) in doc_lengths
        assert 4 not in doc_lengths and "7" not in doc_lengths
        assert doc_lengths[7] == 0 and type(doc_lengths[7]) is int
        with pytest.raises(KeyError):
            doc_lengths[8]
        assert len(doc_lengths) == 3
        assert list(doc_lengths) == [3, 7, 2**40]
        assert doc_lengths == {3: 5, 7: 0, 2**40: 9}
        assert doc_lengths != {3: 5, 7: 0}
        assert doc_lengths == DocLengths([3, 7, 2**40], [5, 0, 9])
        # The columns are read-only; the caller's arrays stay writable.
        assert not doc_lengths.lengths.flags.writeable
        assert lengths.flags.writeable
