"""Seeded input generation: everything a workload feeds the program.

The program under test receives only what these functions return; every
random draw here is a pure function of the ``seed`` argument.
"""

from __future__ import annotations

from dataclasses import replace

import numpy as np

from repro.experiments.testbed import Scale
from repro.retrieval import Query


def testbed_scale(seed: int, smoke: bool) -> Scale:
    """``Scale.small()`` (``unit`` for smoke) with every seed offset by ``seed``.

    Seed 0 is exactly the testbed ``Testbed.build(Scale.small())`` builds.
    """
    base = Scale.unit() if smoke else Scale.small()
    return replace(
        base, seed=seed, corpus=replace(base.corpus, seed=base.corpus.seed + seed)
    )


def term_name(index: int) -> str:
    """The vocabulary of ``bench_storage.build_scaled_shards``."""
    return f"t{index:03d}"


def distinct_queries(n_queries: int, vocab_size: int, seed: int) -> list[Query]:
    """``n_queries`` different 2-4-term queries, head-biased over the vocabulary.

    Duplicates are rejected, so no two queries share a memo key and every
    (query, shard) evaluation is a miss.
    """
    rng = np.random.default_rng(seed)
    seen: set[tuple[str, ...]] = set()
    queries: list[Query] = []
    while len(queries) < n_queries:
        n_terms = int(rng.integers(2, 5))
        ids = np.minimum(rng.geometric(0.08, size=n_terms) - 1, vocab_size - 1)
        terms = tuple(dict.fromkeys(term_name(t) for t in ids.tolist()))
        if len(terms) < 2 or terms in seen:
            continue
        seen.add(terms)
        queries.append(Query(query_id=len(queries), terms=terms))
    return queries


def sample_ids(n_items: int, n_sample: int, seed: int) -> list[int]:
    """Sorted seeded sample of ``range(n_items)`` for the spot checks."""
    rng = np.random.default_rng(seed)
    picked = rng.choice(n_items, size=min(n_sample, n_items), replace=False)
    return sorted(int(i) for i in picked)
