"""Unit tests for the Central Sample Index."""

import pytest

from repro.index import CentralSampleIndex, Document, partition_round_robin
from repro.index.csi import MIN_PER_SHARD
from repro.text import WhitespaceAnalyzer


def groups(n_docs=100, n_shards=4):
    docs = [
        Document(doc_id=i, text=f"common t{i % 13} t{i % 7}") for i in range(n_docs)
    ]
    return partition_round_robin(docs, n_shards)


class TestBuild:
    def test_min_per_shard_guards_small_shards(self):
        csi = CentralSampleIndex.build(
            groups(), sample_rate=0.01, analyzer=WhitespaceAnalyzer()
        )
        # a 1% sample of 25 documents rounds to 0: each shard gives the floor
        assert len(csi) == 4 * MIN_PER_SHARD
        assert csi.n_shards == 4

    def test_sample_rate_honoured_when_larger(self):
        csi = CentralSampleIndex.build(
            groups(400, 2), sample_rate=0.1, analyzer=WhitespaceAnalyzer(),
        )
        assert len(csi) == 40

    def test_doc_to_shard_mapping_correct(self):
        the_groups = groups()
        csi = CentralSampleIndex.build(the_groups, analyzer=WhitespaceAnalyzer())
        for doc_id, shard_id in csi.doc_to_shard.items():
            assert any(d.doc_id == doc_id for d in the_groups[shard_id])

    def test_deterministic_by_seed(self):
        a = CentralSampleIndex.build(groups(), seed=3, analyzer=WhitespaceAnalyzer())
        b = CentralSampleIndex.build(groups(), seed=3, analyzer=WhitespaceAnalyzer())
        assert a.doc_to_shard == b.doc_to_shard

    def test_rejects_bad_rate(self):
        with pytest.raises(ValueError):
            CentralSampleIndex.build(groups(), sample_rate=0.0)

    def test_empty_shard_skipped(self):
        the_groups = groups(n_shards=3) + [[]]
        csi = CentralSampleIndex.build(the_groups, analyzer=WhitespaceAnalyzer())
        assert csi.n_shards == 4
        assert all(sid < 3 for sid in csi.doc_to_shard.values())

