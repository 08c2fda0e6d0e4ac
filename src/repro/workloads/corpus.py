"""Synthetic corpus generation.

Stands in for the paper's 34M-document Wikipedia dump.  The generator
produces a topical, Zipf-distributed collection whose two load-bearing
properties match the paper's measurements:

* **Latency variance** (Fig. 2a): query terms span a wide document-frequency
  range because term popularity is Zipfian, so posting lists — and service
  times — are long-tailed.
* **Quality concentration** (Fig. 2b): each document leans on a topic, and
  the topical partitioner co-locates topics, so for most queries only a few
  shards contribute to the global top-K.

Documents are streams of synthetic vocabulary tokens ("t0", "t1", ...);
index them with :class:`repro.text.WhitespaceAnalyzer` so the generated
distributions survive analysis untouched.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.index.documents import Document


@dataclass(frozen=True)
class CorpusConfig:
    """Shape of the synthetic collection.

    ``topic_weight`` is the probability mass a document draws from its
    topic's core vocabulary (the rest comes from the global Zipf
    background); higher values concentrate quality on fewer shards.
    """

    n_docs: int = 6000
    vocab_size: int = 12000
    n_topics: int = 32
    topic_core_size: int = 300
    topic_weight: float = 0.9
    zipf_exponent: float = 1.0
    mean_doc_length: int = 120
    doc_length_sigma: float = 0.35
    seed: int = 7

    def __post_init__(self) -> None:
        if self.n_docs < 1 or self.vocab_size < 10:
            raise ValueError("corpus too small to be meaningful")
        if not 0.0 <= self.topic_weight <= 1.0:
            raise ValueError("topic_weight must be in [0, 1]")
        if self.n_topics * self.topic_core_size > self.vocab_size:
            raise ValueError("topic cores exceed the vocabulary")


def term_token(term_index: int) -> str:
    """The surface form of synthetic vocabulary entry ``term_index``."""
    return f"t{term_index}"


class SyntheticCorpus:
    """A generated collection plus the distributions that produced it.

    The per-topic term distributions are retained so the trace generator
    can draw topically coherent queries from the same model.
    """

    def __init__(self, config: CorpusConfig) -> None:
        self.config = config
        rng = np.random.default_rng(config.seed)
        v = config.vocab_size

        # Global Zipf background over the vocabulary.
        ranks = np.arange(1, v + 1, dtype=np.float64)
        background = ranks**-config.zipf_exponent
        background /= background.sum()

        # Disjoint topic cores drawn from mid-popularity vocabulary, so core
        # terms are selective (rare globally) but dense within their topic.
        core_pool = rng.permutation(np.arange(v // 50, v))
        self.topic_cores: list[np.ndarray] = []
        mixtures = np.empty((config.n_topics, v))
        for topic in range(config.n_topics):
            core = core_pool[
                topic * config.topic_core_size : (topic + 1) * config.topic_core_size
            ]
            self.topic_cores.append(np.sort(core))
            topical = np.zeros(v)
            # Zipf within the core too: a few hot terms per topic.
            core_weights = np.arange(1, core.size + 1, dtype=np.float64) ** -1.0
            topical[core] = core_weights / core_weights.sum()
            mixtures[topic] = (
                config.topic_weight * topical + (1.0 - config.topic_weight) * background
            )
        self._cumulative = np.cumsum(mixtures, axis=1)
        self.background = background

        # Documents: lognormal lengths, topic assignment round-robin with a
        # shuffled order so shards built later stay balanced.
        lengths = rng.lognormal(
            mean=np.log(config.mean_doc_length), sigma=config.doc_length_sigma,
            size=config.n_docs,
        ).astype(int)
        lengths = np.maximum(lengths, 10)
        topics = rng.integers(0, config.n_topics, size=config.n_docs)

        self.documents: list[Document] = []
        for doc_id in range(config.n_docs):
            topic = int(topics[doc_id])
            u = rng.random(int(lengths[doc_id]))
            term_ids = np.searchsorted(self._cumulative[topic], u, side="right")
            text = " ".join(term_token(int(t)) for t in term_ids)
            self.documents.append(Document(doc_id=doc_id, text=text, topic=topic))

    def __len__(self) -> int:
        return len(self.documents)

    def sample_topic_terms(
        self, topic: int, n: int, rng: np.random.Generator
    ) -> list[int]:
        """Draw ``n`` distinct term ids from a topic's core, Zipf-weighted."""
        core = self.topic_cores[topic]
        if n > core.size:
            raise ValueError("cannot sample more terms than the core holds")
        weights = np.arange(1, core.size + 1, dtype=np.float64) ** -1.0
        weights /= weights.sum()
        picked = rng.choice(core.size, size=n, replace=False, p=weights)
        return [int(core[i]) for i in picked]

    def sample_background_terms(self, n: int, rng: np.random.Generator) -> list[int]:
        """Draw ``n`` distinct mid-popularity background terms."""
        lo, hi = 5, max(self.config.vocab_size // 4, 50)
        weights = self.background[lo:hi] / self.background[lo:hi].sum()
        picked = rng.choice(hi - lo, size=min(n, hi - lo), replace=False, p=weights)
        return [int(lo + i) for i in picked]

    def sample_common_terms(self, n: int, rng: np.random.Generator) -> list[int]:
        """Draw ``n`` distinct *high-popularity* terms (long postings on
        every shard).

        These are the "weather" in a "canada weather" query: they make all
        ISNs do real scoring work, while the topical term decides which
        shards actually contribute — the regime behind the paper's Fig. 3
        example, where slow ISNs with no quality contribution exist to be
        cut.
        """
        lo, hi = 3, max(self.config.vocab_size // 50, 20)
        weights = self.background[lo:hi] / self.background[lo:hi].sum()
        picked = rng.choice(hi - lo, size=min(n, hi - lo), replace=False, p=weights)
        return [int(lo + i) for i in picked]
