"""Query trace generation.

Two trace flavours mirror the paper's evaluation workloads:

* **wikipedia** — short navigational queries (1-2 terms), heavy reuse of a
  small hot set (the paper's Wikipedia access trace is famously skewed).
* **lucene** — the Lucene nightly benchmark style: longer analytical
  queries (1-4 terms), flatter popularity, more multi-topic queries, which
  produces the heavier latency tail of the paper's Fig. 10(c).

Arrivals are Poisson at a configurable rate, replayed for a configurable
duration, exactly how the paper's client replayer drives its testbed for
1000 seconds.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.retrieval.query import Query, QueryTrace
from repro.workloads.corpus import SyntheticCorpus, term_token


@dataclass(frozen=True)
class TraceConfig:
    """Shape of one replayable trace."""

    flavour: str = "wikipedia"
    n_distinct_queries: int = 200
    duration_s: float = 100.0
    arrival_rate_qps: float = 20.0
    popularity_exponent: float = 0.9
    seed: int = 11

    def __post_init__(self) -> None:
        if self.flavour not in ("wikipedia", "lucene"):
            raise ValueError("flavour must be 'wikipedia' or 'lucene'")
        if self.n_distinct_queries < 1:
            raise ValueError("need at least one distinct query")
        if self.duration_s <= 0 or self.arrival_rate_qps <= 0:
            raise ValueError("duration and rate must be positive")


def _query_length(flavour: str, rng: np.random.Generator) -> int:
    """Sample a query length; Lucene-style queries run longer."""
    if flavour == "wikipedia":
        return int(rng.choice([1, 2, 3], p=[0.55, 0.35, 0.10]))
    return int(rng.choice([1, 2, 3, 4], p=[0.30, 0.35, 0.25, 0.10]))


#: Draws that repeat an earlier query a pool may spend before its size is
#: judged out of the query model's reach.  The repo's largest pools (11 520
#: training queries at ``Scale.small``) repeat about 3 100 times; 50 000
#: repeats take seconds, while an unreachable size would draw for many
#: minutes.
MAX_REPEATED_DRAWS = 50_000


def build_query_pool(
    corpus: SyntheticCorpus, config: TraceConfig
) -> list[tuple[str, ...]]:
    """Distinct query term-sets for one trace.

    Most queries are topical (terms from one topic core — these are the
    queries where few shards matter); a minority mix in background terms or
    a second topic, which spreads contributions and stresses the budget
    algorithm's slow-but-valuable case.  Raises ``ValueError`` once more
    than ``MAX_REPEATED_DRAWS`` draws have repeated an earlier query.
    """
    rng = np.random.default_rng(config.seed)
    if config.flavour == "wikipedia":
        background_rate, mixed_rate, multi_topic_rate = 0.08, 0.55, 0.10
    else:
        background_rate, mixed_rate, multi_topic_rate = 0.10, 0.50, 0.20
    pool: list[tuple[str, ...]] = []
    seen: set[tuple[str, ...]] = set()
    n_topics = corpus.config.n_topics
    repeats = 0
    while len(pool) < config.n_distinct_queries:
        length = _query_length(config.flavour, rng)
        topic = int(rng.integers(0, n_topics))
        roll = rng.random()
        if roll < background_rate:
            term_ids = corpus.sample_background_terms(length, rng)
        elif roll < background_rate + mixed_rate:
            # Topical term(s) plus one common term ("canada weather"):
            # every shard does scoring work, few shards contribute — the
            # paper's Fig. 3 regime.
            term_ids = corpus.sample_topic_terms(topic, max(length - 1, 1), rng)
            term_ids += corpus.sample_common_terms(1, rng)
        elif roll < background_rate + mixed_rate + multi_topic_rate and length >= 2:
            second = int(rng.integers(0, n_topics))
            split = length // 2
            term_ids = corpus.sample_topic_terms(topic, length - split, rng)
            term_ids += corpus.sample_topic_terms(second, split, rng)
        else:
            term_ids = corpus.sample_topic_terms(topic, length, rng)
        terms = tuple(dict.fromkeys(term_token(t) for t in term_ids))
        if terms and terms not in seen:
            seen.add(terms)
            pool.append(terms)
        else:
            repeats += 1
            if repeats > MAX_REPEATED_DRAWS:
                raise ValueError(
                    f"n_distinct_queries={config.n_distinct_queries} is more than "
                    f"this corpus's query model yields: {len(pool)} distinct "
                    f"queries found in {len(pool) + repeats} draws"
                )
    return pool


def generate_trace(corpus: SyntheticCorpus, config: TraceConfig) -> QueryTrace:
    """A timestamped Poisson replay over a Zipf-popular query pool."""
    rng = np.random.default_rng(config.seed + 1)
    pool = build_query_pool(corpus, config)

    ranks = np.arange(1, len(pool) + 1, dtype=np.float64)
    popularity = ranks**-config.popularity_exponent
    popularity /= popularity.sum()

    queries: list[Query] = []
    t = 0.0
    query_id = 0
    while True:
        t += rng.exponential(1.0 / config.arrival_rate_qps)
        if t > config.duration_s:
            break
        terms = pool[int(rng.choice(len(pool), p=popularity))]
        queries.append(
            Query(
                query_id=query_id,
                terms=terms,
                text=" ".join(terms),
                arrival_time=float(t),
            )
        )
        query_id += 1
    return QueryTrace(name=config.flavour, queries=queries)


def training_queries(
    corpus: SyntheticCorpus, n: int, seed: int = 101, flavour: str = "wikipedia"
) -> list[Query]:
    """Distinct queries for predictor training (disjoint seed from traces).

    The paper trains each ISN's models on "a large amount of observed
    samples from the past"; this generates that history from the same query
    model so train and test distributions match without sharing instances.
    """
    config = TraceConfig(flavour=flavour, n_distinct_queries=n, seed=seed)
    pool = build_query_pool(corpus, config)
    return [
        Query(query_id=i, terms=terms, text=" ".join(terms))
        for i, terms in enumerate(pool)
    ]
