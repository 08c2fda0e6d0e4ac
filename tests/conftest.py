"""Shared fixtures and Hypothesis profiles.

Expensive artifacts (corpus, shards, trained testbed) are session-scoped:
they are deterministic, immutable, and shared read-only by many tests.

Two Hypothesis profiles are registered: ``dev`` (the default — few
examples, derandomized so the tier-1 gate is the same run every time)
and ``ci`` (at least 100 random examples per property, what the CI
workflow's property step runs).  Select with
``HYPOTHESIS_PROFILE=ci pytest ...``.
"""

from __future__ import annotations

import hashlib
import os
import random

import pytest
from hypothesis import settings

from repro.experiments import Scale, Testbed

settings.register_profile("ci", max_examples=100, deadline=None)
settings.register_profile("dev", max_examples=15, deadline=None, derandomize=True)
settings.load_profile(os.environ.get("HYPOTHESIS_PROFILE", "dev"))
# numpy after repro: ``import repro`` pins BLAS to one thread only when it
# comes first (repro.host), and the pooled-training tests need the pin.
import numpy as np
from repro.index import (
    Document,
    IndexShard,
    PostingsArena,
    build_shards,
    partition_topical,
)
from repro.text import WhitespaceAnalyzer
from repro.workloads import CorpusConfig, SyntheticCorpus, training_queries


def hand_built_shard(columns, **fields) -> IndexShard:
    """The one constructor of hand-built test shards.

    ``columns`` maps each term to its ``(doc_ids, scores)``, in any term
    order; upper bounds are the per-term score maxima.  Every document
    counts 10 tokens unless ``fields`` says otherwise, and ``fields``
    overrides any other ``IndexShard`` field.
    """
    terms = sorted(columns)
    for term in terms:
        doc_ids, scores = columns[term]
        if len(doc_ids) != len(scores):
            raise ValueError(
                f"term {term!r}: {len(doc_ids)} doc ids, {len(scores)} scores"
            )

    def column(i: int, dtype: type) -> np.ndarray:
        return np.concatenate(
            [np.zeros(0, dtype=dtype)]
            + [np.asarray(columns[term][i], dtype=dtype) for term in terms]
        )

    sizes = [len(columns[term][0]) for term in terms]
    offsets = np.concatenate([[0], np.cumsum(sizes)]).astype(np.int64)
    scores = column(1, np.float64)
    uppers = [
        float(scores[lo:hi].max()) if hi > lo else 0.0
        for lo, hi in zip(offsets[:-1], offsets[1:])
    ]
    arena = PostingsArena(terms, offsets, column(0, np.int64), scores, uppers)
    n_docs = max(np.unique(arena.doc_ids).size, 1)
    shard = {
        "shard_id": 0,
        "n_docs": n_docs,
        "avg_doc_length": 10.0,
        "total_tokens": 10 * n_docs,
        "arena": arena,
        "global_dfs": np.diff(offsets),
    }
    return IndexShard(**{**shard, **fields})


def shard_columns(shard: IndexShard) -> dict:
    """``shard``'s postings as :func:`hand_built_shard` takes them."""
    columns = {}
    for term in shard.terms():
        run = shard.arena.run(term).widen()
        columns[term] = (run.doc_ids, run.scores)
    return columns


def make_documents(n_docs: int = 120, vocab: int = 80, seed: int = 0) -> list[Document]:
    """Small hand-rolled collection with topical skew (no numpy needed)."""
    rng = random.Random(seed)
    docs = []
    for doc_id in range(n_docs):
        topic = doc_id % 4
        words = []
        for _ in range(rng.randint(15, 40)):
            if rng.random() < 0.6:
                words.append(f"t{topic * 10 + rng.randint(0, 9)}")
            else:
                words.append(f"t{rng.randint(40, vocab - 1)}")
        docs.append(Document(doc_id=doc_id, text=" ".join(words), topic=topic))
    return docs


@pytest.fixture(scope="session")
def documents() -> list[Document]:
    return make_documents()


@pytest.fixture(scope="session")
def shards(documents):
    return build_shards(
        partition_topical(documents, 4), analyzer=WhitespaceAnalyzer()
    )


@pytest.fixture(scope="session")
def tiny_corpus() -> SyntheticCorpus:
    return SyntheticCorpus(
        CorpusConfig(
            n_docs=400, vocab_size=1500, n_topics=8, topic_core_size=90,
            mean_doc_length=50,
        )
    )


@pytest.fixture(scope="session")
def unit_testbed() -> Testbed:
    """A fully trained testbed at unit scale — the integration workhorse."""
    return Testbed.build(Scale.unit())


#: ``bank_digest`` of the unit testbed the cross-commit pins were captured
#: against (``test_event_loop_identity.EXPECTED``, ``EXPERIMENTS.unit.json``).
BANK = "aa5f1eb8ce7642d961916252e8c2793c84856e4b"
#: Cottage's (cut, half-cut) confidence gates at that capture.  The digest is
#: of the bank alone: a policy whose defaults move fails the pins themselves,
#: naming what moved, instead of being reported as a host difference.
GATES = (0.9, 0.75)


def bank_digest(testbed) -> str:
    """What decisions consume of the bank, for every trace query."""
    lines = []
    seen = set()
    for trace in (testbed.wikipedia_trace, testbed.lucene_trace):
        for query in trace:
            if query.terms in seen:
                continue
            seen.add(query.terms)
            lines.append(
                ";".join(
                    f"{p.shard_id},{p.quality_k},{p.quality_half_k},"
                    f"{p.service_default_ms!r},"
                    f"{p.p_zero_k < GATES[0]:d}{p.p_zero_half < GATES[1]:d}"
                    for p in testbed.bank.predict(query)
                )
            )
    return hashlib.sha1("\n".join(lines).encode()).hexdigest()


@pytest.fixture(scope="session")
def bank_ok(unit_testbed) -> bool:
    """Whether this host trained the bank the pins were captured against.

    ``test_event_loop_identity.test_bank_matches_capture`` fails once with
    the reason when it did not; every pinned case then skips.
    """
    return bank_digest(unit_testbed) == BANK


@pytest.fixture(scope="session")
def unit_train_queries(unit_testbed):
    return training_queries(unit_testbed.corpus, 40, seed=4242)
