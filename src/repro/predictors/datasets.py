"""Training-set construction for the Cottage predictors.

Samples are (query, shard) pairs.  Quality labels come from exhaustive
ground truth (how many of the shard's documents reached the global top-K);
latency labels come from the cluster's service-time oracle at the default
frequency.  Both match how the paper's models are trained: "with a large
amount of observed samples from the past".
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.cluster.engine import SearchCluster
from repro.metrics.quality import GroundTruth
from repro.predictors.arrays import FloatArray, IntArray
from repro.retrieval.query import Query


@dataclass(frozen=True)
class ShardQualityDataset:
    """Quality training data for one shard."""

    shard_id: int
    features: FloatArray  # (n, |Table I|)
    labels_k: IntArray  # docs in global top-K
    labels_half_k: IntArray  # docs in global top-K/2

    def split(self, holdout: float, seed: int = 0) -> tuple["ShardQualityDataset", "ShardQualityDataset"]:
        train_idx, test_idx = _split_indices(len(self.labels_k), holdout, seed)
        return (
            ShardQualityDataset(self.shard_id, self.features[train_idx],
                                self.labels_k[train_idx], self.labels_half_k[train_idx]),
            ShardQualityDataset(self.shard_id, self.features[test_idx],
                                self.labels_k[test_idx], self.labels_half_k[test_idx]),
        )


@dataclass(frozen=True)
class ShardLatencyDataset:
    """Latency training data for one shard."""

    shard_id: int
    features: FloatArray  # (n, |Table II|)
    service_ms: FloatArray  # measured at the default frequency

    def split(self, holdout: float, seed: int = 0) -> tuple["ShardLatencyDataset", "ShardLatencyDataset"]:
        train_idx, test_idx = _split_indices(len(self.service_ms), holdout, seed)
        return (
            ShardLatencyDataset(self.shard_id, self.features[train_idx], self.service_ms[train_idx]),
            ShardLatencyDataset(self.shard_id, self.features[test_idx], self.service_ms[test_idx]),
        )


def _split_indices(n: int, holdout: float, seed: int) -> tuple[IntArray, IntArray]:
    if not 0.0 < holdout < 1.0:
        raise ValueError("holdout fraction must be in (0, 1)")
    if n < 2:
        raise ValueError("dataset too small to split")
    rng = np.random.default_rng(seed)
    order = rng.permutation(n)
    n_test = max(int(round(n * holdout)), 1)
    return order[n_test:], order[:n_test]


def _check_rows(features: FloatArray, queries: list[Query]) -> None:
    if len(features) != len(queries):
        raise ValueError(
            f"{len(features)} feature rows for {len(queries)} queries"
        )


def build_quality_dataset(
    shard_id: int,
    features: FloatArray,
    queries: list[Query],
    truth: GroundTruth,
) -> ShardQualityDataset:
    """Exhaustive contribution labels for one shard beside its Table-I
    ``features`` (row ``i`` is ``queries[i]``'s)."""
    _check_rows(features, queries)
    labels_k = []
    labels_half = []
    for query in queries:
        entry = truth.get(query)
        labels_k.append(entry.contributions_k.get(shard_id, 0))
        labels_half.append(entry.contributions_half_k.get(shard_id, 0))
    return ShardQualityDataset(
        shard_id=shard_id,
        features=features,
        labels_k=np.asarray(labels_k, dtype=np.int64),
        labels_half_k=np.asarray(labels_half, dtype=np.int64),
    )


def build_latency_dataset(
    shard_id: int,
    features: FloatArray,
    cluster: SearchCluster,
    queries: list[Query],
) -> ShardLatencyDataset:
    """Default-frequency service times for one shard beside its Table-II
    ``features`` (row ``i`` is ``queries[i]``'s)."""
    _check_rows(features, queries)
    service = [cluster.service_time_ms(query, shard_id) for query in queries]
    return ShardLatencyDataset(
        shard_id=shard_id,
        features=features,
        service_ms=np.asarray(service, dtype=np.float64),
    )
