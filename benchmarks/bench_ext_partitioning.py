"""Extension — document allocation vs predictor learnability.

EXPERIMENTS.md deviation 3 claims ("random allocation drops quality
accuracy to ~0.65", hand-run and unpinned) that the paper-style uniform-work
allocation (random/hash) destroys quality-label learnability at
reproduction scale, which is why this repo partitions topically.  This
bench measures that claim directly: train the same quality model on the
same corpus under topical vs hash allocation and compare held-out
accuracy and the zero/nonzero cut agreement.
"""

import numpy as np

from repro.index import build_shards, partition_hash, partition_topical
from repro.index.term_stats import TermStatsIndex
from repro.cluster import SearchCluster
from repro.metrics import GroundTruth
from repro.predictors import QualityPredictor, build_quality_dataset
from repro.text import WhitespaceAnalyzer
from repro.workloads import training_queries


def _probe(testbed, partitioner, probe_shards=(0, 1)):
    groups = partitioner(testbed.corpus.documents, testbed.scale.n_shards)
    shards = build_shards(groups, analyzer=WhitespaceAnalyzer())
    cluster = SearchCluster(shards, k=testbed.cluster.k)
    queries = training_queries(
        testbed.corpus, testbed.scale.n_training_queries,
        seed=testbed.scale.seed + 1000,
    )
    truth = GroundTruth.build(cluster.searcher, queries, k=cluster.k)
    accs, zero_agreement = [], []
    for sid in probe_shards:
        dataset = build_quality_dataset(
            sid, TermStatsIndex(shards[sid], k=cluster.k), queries, truth
        )
        train, test = dataset.split(0.2)
        model = QualityPredictor(cluster.k, seed=sid)
        model.fit(train.features, train.labels_k,
                  iterations=testbed.scale.quality_iterations)
        predicted = model.predict_counts(test.features)
        labels = np.clip(test.labels_k, 0, cluster.k)
        accs.append(float(np.mean(predicted == labels)))
        zero_agreement.append(float(np.mean((predicted == 0) == (labels == 0))))
    return float(np.mean(accs)), float(np.mean(zero_agreement))


def test_ext_partitioning_learnability(testbed):
    topical_acc, topical_zero = _probe(
        testbed, lambda docs, n: partition_topical(docs, n)
    )
    hash_acc, hash_zero = _probe(testbed, partition_hash)

    print("\nExtension — allocation vs quality-label learnability:")
    print(f"  topical: accuracy={topical_acc:.3f}  zero/nonzero={topical_zero:.3f}")
    print(f"  hash:    accuracy={hash_acc:.3f}  zero/nonzero={hash_zero:.3f}")
    print("  (uniform-work allocation spreads each query's top-10 as"
          " balls-into-bins across statistically identical shards; the"
          " per-shard features cannot recover that randomness at"
          " hundreds-of-docs shard sizes)")
    # The documented deviation, on the decision-relevant metric: the
    # zero/nonzero cut call is at least as learnable under topical
    # allocation.  (Exact-class accuracy is too noisy to assert at unit
    # scale — a handful of held-out rows per shard.)
    assert topical_zero >= hash_zero - 0.02
