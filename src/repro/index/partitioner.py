"""Document-allocation policies: splitting a corpus into shards.

How documents are allocated to ISNs determines how much per-shard quality
variance exists for selective search to exploit (Kulkarni & Callan, CIKM'10).
Hash allocation spreads every topic over every shard (little to cut);
topical allocation concentrates topics, reproducing the paper's Fig. 2(b)
where many ISNs contribute nothing to a given query.
"""

from __future__ import annotations

from collections import defaultdict

from repro.index.documents import Document

#: Shards each topic's documents are dealt over by ``partition_topical``.
TOPIC_SPREAD = 3


def _validate(n_shards: int) -> None:
    if n_shards < 1:
        raise ValueError("n_shards must be positive")


def partition_round_robin(docs: list[Document], n_shards: int) -> list[list[Document]]:
    """Deal documents to shards in arrival order (source-based allocation)."""
    _validate(n_shards)
    groups: list[list[Document]] = [[] for _ in range(n_shards)]
    for i, doc in enumerate(docs):
        groups[i % n_shards].append(doc)
    return groups


def _hash_shard(doc_id: int, n_shards: int) -> int:
    """Knuth's multiplicative hash of ``doc_id``, scaled onto ``n_shards``.

    The shard comes from the product's high bits: its low bits would be
    ``doc_id % n_shards`` whenever ``n_shards`` divides 16 (the multiplier
    is 1 mod 16), i.e. round-robin on the paper's 16 ISNs.
    """
    return ((doc_id * 2654435761) % 2**32) * n_shards >> 32


def partition_hash(docs: list[Document], n_shards: int) -> list[list[Document]]:
    """Deterministic allocation by doc id (a multiplicative hash, so that
    consecutive ids do not land on consecutive shards)."""
    _validate(n_shards)
    groups: list[list[Document]] = [[] for _ in range(n_shards)]
    for doc in docs:
        groups[_hash_shard(doc.doc_id, n_shards)].append(doc)
    return groups


def partition_topical(
    docs: list[Document], n_shards: int, seed: int = 0
) -> list[list[Document]]:
    """Topic-concentrating allocation.

    Each topic's documents are spread round-robin over :data:`TOPIC_SPREAD`
    shards, or all of them when there are fewer (anchored greedily at the
    currently smallest shard), so a topical query's top-K documents live
    on a handful of shards rather than one or all — the regime of the
    paper's Fig. 2(b), where most queries draw their top-10 from roughly
    half the ISNs.  Documents without a topic label fall back to hash
    allocation.
    """
    _validate(n_shards)
    spread = min(TOPIC_SPREAD, n_shards)
    by_topic: dict[int, list[Document]] = defaultdict(list)
    unlabelled: list[Document] = []
    for doc in docs:
        if doc.topic is None:
            unlabelled.append(doc)
        else:
            by_topic[doc.topic].append(doc)

    groups: list[list[Document]] = [[] for _ in range(n_shards)]
    sizes = [0] * n_shards
    # Largest topics first; ties broken by topic id for determinism.
    for topic in sorted(by_topic, key=lambda t: (-len(by_topic[t]), t)):
        anchor = min(range(n_shards), key=lambda s: (sizes[s], s))
        homes = [(anchor + i) % n_shards for i in range(spread)]
        for i, doc in enumerate(by_topic[topic]):
            target = homes[i % spread]
            groups[target].append(doc)
            sizes[target] += 1

    for doc in unlabelled:
        groups[_hash_shard(doc.doc_id, n_shards)].append(doc)
    return groups

