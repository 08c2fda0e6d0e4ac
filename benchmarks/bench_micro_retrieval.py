"""Microbenchmarks — query evaluation strategies.

Not a paper figure: engine-level timing that backs the cost model's
"pruning does less work" premise (Section III-C), plus each arena
kernel pinned bit-identical to its scalar reference.
"""

import pytest

from repro.retrieval import (
    block_max_wand_search,
    block_max_wand_search_kernel,
    conjunctive_search,
    conjunctive_search_kernel,
    exhaustive_search,
    maxscore_search,
    maxscore_search_kernel,
    wand_search,
    wand_search_kernel,
)

STRATEGIES = {
    "exhaustive": exhaustive_search,
    "maxscore": maxscore_search,
    "wand": wand_search,
}

# Scalar reference vs. the block-scored arena kernel that replaced it as
# the STRATEGIES default (see repro/retrieval/kernels.py).
KERNEL_PAIRS = {
    "maxscore": (maxscore_search, maxscore_search_kernel),
    "wand": (wand_search, wand_search_kernel),
    "block_max_wand": (block_max_wand_search, block_max_wand_search_kernel),
    "conjunctive": (conjunctive_search, conjunctive_search_kernel),
}


def _hot_terms(testbed, n_terms=2):
    shard = testbed.cluster.shards[0]
    by_length = sorted(
        ((len(shard.term(t).postings), t) for t in shard.terms()), reverse=True
    )
    return [t for _, t in by_length[:n_terms]]


@pytest.mark.parametrize("strategy", sorted(STRATEGIES))
def test_micro_retrieval(benchmark, testbed, strategy):
    shard = testbed.cluster.shards[0]
    terms = _hot_terms(testbed)
    search = STRATEGIES[strategy]
    result = benchmark(lambda: search(shard, terms, 10))
    assert len(result.hits) > 0
    if strategy != "exhaustive":
        full = exhaustive_search(shard, terms, 10)
        # Pruning never does more document evaluations than exhaustive.
        assert result.cost.docs_evaluated <= full.cost.docs_evaluated


@pytest.mark.parametrize("strategy", sorted(KERNEL_PAIRS))
def test_micro_kernel_vs_reference(benchmark, testbed, strategy):
    """Arena kernel timing, pinned bit-identical to its scalar reference.

    At testbed scale the posting lists are short, so the MaxScore kernel
    may dispatch to the scalar below its postings floor — the comparison
    here is primarily the identity check; ``run_bench_retrieval.py``
    measures speedups at the corpus scale the kernels target.
    """
    shard = testbed.cluster.shards[0]
    terms = _hot_terms(testbed, 3)
    reference, kernel = KERNEL_PAIRS[strategy]
    result = benchmark(lambda: kernel(shard, list(terms), 10))
    assert result.fingerprint() == reference(shard, list(terms), 10).fingerprint()
