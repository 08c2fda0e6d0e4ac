"""Taily shard selection (Aly et al., SIGIR'13).

The distributed baseline: shard selection from per-term Gamma fits over
index statistics, no CSI, no latency awareness.  As the paper observes
(Fig. 10), Taily's latency barely improves on exhaustive search — it only
drops shards with no estimated contribution, and a zero-quality shard can
still be the straggler.
"""

from __future__ import annotations

from repro.cluster.types import ClusterView, Decision
from repro.policies.base import BasePolicy
from repro.predictors.gamma_quality import TailyQualityEstimator
from repro.retrieval.query import Query


#: Taily's ``v``: a shard is searched when its expected number of documents
#: above the global threshold clears this bar.
MIN_EXPECTED_DOCS = 0.5
#: Cost of the (cheap, statistics-lookup) estimation round.
COORDINATION_DELAY_MS = 0.05


class TailyPolicy(BasePolicy):
    """Gamma-tail shard selection with Taily's ``v`` cutoff."""

    name = "taily"

    def __init__(self, estimator: TailyQualityEstimator) -> None:
        self.estimator = estimator

    def decide(self, query: Query, view: ClusterView) -> Decision:
        # The estimator memoizes per distinct query, so trace replay
        # doesn't refit Gammas per arrival.
        expected = self.estimator.estimate(query.terms)
        selected = tuple(
            sid for sid, docs in enumerate(expected) if docs >= MIN_EXPECTED_DOCS
        )
        if not selected:
            # Keep the single most promising shard rather than empty.
            selected = (max(range(view.n_shards), key=expected.__getitem__),)
        return Decision(shard_ids=selected, coordination_delay_ms=COORDINATION_DELAY_MS)
