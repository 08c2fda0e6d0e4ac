"""Lazy open-loop query streams over a Zipf-popular distinct-query pool.

A :class:`QueryStream` pairs a seeded arrival process with a pool of
distinct term-sets (the same pools :func:`repro.workloads.traces.
build_query_pool` produces) and yields :class:`~repro.retrieval.query.
Query` objects one at a time.  Nothing is materialized: a 1M-query
campaign holds the pool (hundreds of tuples), the popularity CDF, and the
one query currently in flight through the generator — the bounded-memory
contract ``tests/test_arrivals.py`` pins with tracemalloc.

Popularity is Zipf over pool rank (``rank**-exponent``), sampled by
inverse-CDF against a cumulative vector, so draw count per query is
exactly one uniform variate regardless of pool size.
"""

from __future__ import annotations

import itertools
from typing import Iterator, Sequence

import numpy as np

from repro.retrieval.query import Query
from repro.serving.arrivals import ArrivalProcess
from repro.workloads.corpus import SyntheticCorpus
from repro.workloads.traces import TraceConfig, build_query_pool


#: Zipf exponent of a stream's popularity over pool rank.
POPULARITY_EXPONENT = 0.9


class QueryStream:
    """An unmaterialized open-loop workload: arrivals x popularity x pool.

    Iteration restarts from scratch (both the arrival process and the
    popularity sampler re-seed), so the same stream object replays the
    identical query sequence every time — it can be consumed once for a
    run and again for verification.  It ends after ``max_queries``.
    """

    def __init__(
        self,
        pool: Sequence[tuple[str, ...]],
        arrivals: ArrivalProcess,
        *,
        popularity_exponent: float = POPULARITY_EXPONENT,
        seed: int = 0,
        max_queries: int,
    ) -> None:
        if not pool:
            raise ValueError("query pool must be non-empty")
        if max_queries < 1:
            raise ValueError("max_queries must be positive")
        self.pool = [tuple(terms) for terms in pool]
        self.arrivals = arrivals
        self.popularity_exponent = popularity_exponent
        self.seed = seed
        self.max_queries = max_queries
        ranks = np.arange(1, len(self.pool) + 1, dtype=np.float64)
        popularity = ranks**-popularity_exponent
        popularity /= popularity.sum()
        self._cdf = np.cumsum(popularity)
        self._cdf[-1] = 1.0  # guard the inverse-CDF edge against rounding

    def __iter__(self) -> Iterator[Query]:
        rng = np.random.default_rng(self.seed)
        arrivals = itertools.islice(self.arrivals.times(), self.max_queries)
        for count, t in enumerate(arrivals):
            idx = int(np.searchsorted(self._cdf, float(rng.random()), side="right"))
            terms = self.pool[min(idx, len(self.pool) - 1)]
            yield Query(
                query_id=count,
                terms=terms,
                text=" ".join(terms),
                arrival_time=float(t),
            )

    def distinct_queries(self) -> list[Query]:
        """The pool as ad-hoc queries — the prewarm set.

        Every streamed query's terms come from the pool, so warming these
        warms every retrieval the stream can ever issue; its size is the
        pool size, not the stream length.
        """
        return [
            Query(query_id=i, terms=terms, text=" ".join(terms))
            for i, terms in enumerate(self.pool)
        ]


def pool_from_corpus(
    corpus: SyntheticCorpus,
    n_distinct: int = 200,
    flavour: str = "wikipedia",
    seed: int = 11,
) -> list[tuple[str, ...]]:
    """The standard distinct-query pool (same generator the traces use)."""
    config = TraceConfig(
        flavour=flavour, n_distinct_queries=n_distinct, seed=seed
    )
    return build_query_pool(corpus, config)
