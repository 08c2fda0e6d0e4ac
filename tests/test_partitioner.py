"""Unit + property tests for document-allocation policies."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.index import (
    Document,
    partition_hash,
    partition_round_robin,
    partition_topical,
)
from repro.index.partitioner import TOPIC_SPREAD

PARTITIONERS = {
    "round_robin": partition_round_robin,
    "hash": partition_hash,
    "topical": partition_topical,
}


def docs_with_topics(n, n_topics=4):
    return [Document(doc_id=i, text="x", topic=i % n_topics) for i in range(n)]


class TestRoundRobin:
    def test_deals_evenly(self):
        groups = partition_round_robin(docs_with_topics(10), 3)
        assert [len(g) for g in groups] == [4, 3, 3]

    def test_single_shard(self):
        groups = partition_round_robin(docs_with_topics(5), 1)
        assert len(groups[0]) == 5


class TestHash:
    def test_deterministic(self):
        docs = docs_with_topics(30)
        assert partition_hash(docs, 4) == partition_hash(docs, 4)

    def test_sixteen_shards_are_hashed_not_dealt(self):
        """On the paper's 16 ISNs the allocation is neither round-robin
        (the low bits of a multiplier that is 1 mod 16) nor lopsided."""
        docs = [Document(doc_id=i, text="x") for i in range(1600)]
        groups = partition_hash(docs, 16)
        ids = [[d.doc_id for d in g] for g in groups]
        dealt = [[d.doc_id for d in g] for g in partition_round_robin(docs, 16)]
        assert ids != dealt
        assert all(abs(len(group) - 1600 // 16) <= 2 for group in groups)
        assert sorted(i for group in ids for i in group) == list(range(1600))


class TestTopical:
    def test_topic_stays_within_spread_shards(self):
        docs = docs_with_topics(120, n_topics=6)
        groups = partition_topical(docs, 8)
        for topic in range(6):
            shards_for_topic = {
                sid
                for sid, group in enumerate(groups)
                if any(d.topic == topic for d in group)
            }
            assert len(shards_for_topic) == TOPIC_SPREAD

    def test_balanced_sizes(self):
        docs = docs_with_topics(160, n_topics=8)
        groups = partition_topical(docs, 8)
        sizes = [len(g) for g in groups]
        assert max(sizes) - min(sizes) <= len(docs) // 4

    def test_unlabelled_fall_back_to_hash(self):
        docs = [Document(doc_id=i, text="x") for i in range(20)]
        groups = partition_topical(docs, 4)
        assert sum(len(g) for g in groups) == 20

    def test_spread_capped_at_n_shards(self):
        docs = docs_with_topics(20, n_topics=2)
        assert TOPIC_SPREAD > 2
        groups = partition_topical(docs, 2)
        assert sum(len(g) for g in groups) == 20


class TestValidation:
    def test_rejects_zero_shards(self):
        for partitioner in PARTITIONERS.values():
            with pytest.raises(ValueError):
                partitioner(docs_with_topics(4), 0)


@settings(max_examples=60, deadline=None)
@given(
    n_docs=st.integers(1, 120),
    n_shards=st.integers(1, 12),
    policy=st.sampled_from(sorted(PARTITIONERS)),
)
def test_partition_is_exact_cover(n_docs, n_shards, policy):
    """Every document lands on exactly one shard, none invented or lost."""
    docs = docs_with_topics(n_docs)
    groups = PARTITIONERS[policy](docs, n_shards)
    assert len(groups) == n_shards
    all_ids = [d.doc_id for g in groups for d in g]
    assert sorted(all_ids) == list(range(n_docs))
