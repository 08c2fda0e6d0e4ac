"""Central Sample Index (CSI).

The CSI (Si & Callan, SIGIR'03) is a small aggregator-side index over a
uniform sample of every shard's documents.  Rank-S — one of the paper's two
state-of-the-art baselines — searches the CSI first and converts the ranked
sample hits into shard votes.  The paper samples each ISN's index at 1%.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from repro.index.builder import IndexBuilder
from repro.index.documents import Document
from repro.index.shard import IndexShard
from repro.text.analyzer import Analyzer


@dataclass(frozen=True)
class SampledHit:
    """One CSI result: a sampled document, its score, and its home shard."""

    doc_id: int
    score: float
    shard_id: int


class CentralSampleIndex:
    """A single small shard built from samples of all cluster shards.

    The index itself reuses :class:`IndexBuilder`/:class:`IndexShard`; the
    CSI only adds the doc -> home-shard mapping needed to turn sample hits
    into shard rankings.
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
        min_per_shard: int = 5,
        seed: int = 0,
        analyzer: Analyzer | None = None,
    ) -> "CentralSampleIndex":
        """Sample ``sample_rate`` of each shard's documents and index them.

        ``min_per_shard`` guards small test corpora: a 1% sample of a
        200-document shard would be 2 documents, too few for the vote
        machinery to say anything, so each shard contributes at least this
        many (capped at the shard size).
        """
        if not 0.0 < sample_rate <= 1.0:
            raise ValueError("sample_rate must be in (0, 1]")
        rng = random.Random(seed)
        builder = IndexBuilder(shard_id=-1, analyzer=analyzer)
        doc_to_shard: dict[int, int] = {}
        for shard_id, docs in enumerate(shard_docs):
            if not docs:
                continue
            n_sample = min(len(docs), max(min_per_shard, round(sample_rate * len(docs))))
            for doc in rng.sample(docs, n_sample):
                builder.add(doc)
                doc_to_shard[doc.doc_id] = shard_id
        return cls(
            index=builder.build(),
            doc_to_shard=doc_to_shard,
            sample_rate=sample_rate,
            n_shards=len(shard_docs),
        )

    def search(self, terms: list[str], k: int) -> list[SampledHit]:
        """Rank the sampled documents for ``terms``; top-k by score.

        Import is deferred to avoid a package cycle (retrieval depends on
        the index package).
        """
        from repro.retrieval.exhaustive import exhaustive_search

        result = exhaustive_search(self.index, terms, k)
        return [
            SampledHit(doc_id=doc_id, score=score, shard_id=self.doc_to_shard[doc_id])
            for doc_id, score in result.hits
        ]

    def __len__(self) -> int:
        return self.index.n_docs
