"""Central Sample Index (CSI).

The CSI (Si & Callan, SIGIR'03) is a small aggregator-side index over a
uniform sample of every shard's documents.  Rank-S — one of the paper's two
state-of-the-art baselines — searches the CSI first and converts the ranked
sample hits into shard votes.  The paper samples each ISN's index at 1%.
"""

from __future__ import annotations

import random

from repro.index.builder import IndexBuilder
from repro.index.documents import Document
from repro.index.shard import IndexShard
from repro.text.analyzer import Analyzer

#: Documents each non-empty shard contributes at least (capped at the
#: shard's size): a 1% sample of a 200-document shard would be 2
#: documents, too few for Rank-S's votes to say anything.
MIN_PER_SHARD = 5


class CentralSampleIndex:
    """A single small shard built from samples of all cluster shards.

    The index itself reuses :class:`IndexBuilder`/:class:`IndexShard`; the
    CSI only adds the doc -> home-shard mapping needed to turn sample hits
    into shard rankings (Rank-S searches ``index`` and reads the mapping).
    """

    def __init__(
        self,
        index: IndexShard,
        doc_to_shard: dict[int, int],
        sample_rate: float,
        n_shards: int,
    ) -> None:
        self.index = index
        self.doc_to_shard = doc_to_shard
        self.sample_rate = sample_rate
        self.n_shards = n_shards

    @classmethod
    def build(
        cls,
        shard_docs: list[list[Document]],
        sample_rate: float = 0.01,
        seed: int = 0,
        analyzer: Analyzer | None = None,
    ) -> "CentralSampleIndex":
        """Sample ``sample_rate`` of each shard's documents, at least
        :data:`MIN_PER_SHARD` of them, and index them."""
        if not 0.0 < sample_rate <= 1.0:
            raise ValueError("sample_rate must be in (0, 1]")
        rng = random.Random(seed)
        builder = IndexBuilder(shard_id=-1, analyzer=analyzer)
        doc_to_shard: dict[int, int] = {}
        for shard_id, docs in enumerate(shard_docs):
            if not docs:
                continue
            n_sample = min(len(docs), max(MIN_PER_SHARD, round(sample_rate * len(docs))))
            for doc in rng.sample(docs, n_sample):
                builder.add(doc)
                doc_to_shard[doc.doc_id] = shard_id
        return cls(
            index=builder.build(),
            doc_to_shard=doc_to_shard,
            sample_rate=sample_rate,
            n_shards=len(shard_docs),
        )

    def __len__(self) -> int:
        return self.index.n_docs
