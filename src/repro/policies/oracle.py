"""Oracle selection: the upper bound Cottage is chasing.

The oracle sees the exhaustive ground truth and the true service times —
no prediction error anywhere.  It keeps exactly the ISNs that contribute
to the top-K, budgets at the slowest kept ISN's true boosted latency
(plus its queue), and boosts precisely the ISNs that need it.  Its P@K is
1.0 by construction; its latency/resource numbers are the best any
coordinated scheme with Cottage's mechanism could achieve.

Not part of the paper's evaluation — the ``beyond.ext_oracle_gap`` claim
(``experiments/beyond.py``) runs it as ``Testbed.make_policy("oracle")``
to measure how much of the oracle-vs-exhaustive gap Cottage's learned
predictions capture.
"""

from __future__ import annotations

from repro.cluster.cpu import equivalent_latency_ms
from repro.cluster.engine import SearchCluster
from repro.cluster.types import ClusterView, Decision
from repro.metrics.quality import GroundTruth
from repro.policies.base import BasePolicy
from repro.retrieval.query import Query


class OraclePolicy(BasePolicy):
    """Perfect-knowledge coordinated selection with frequency boosting."""

    name = "oracle"

    def __init__(self, cluster: SearchCluster, truth: GroundTruth) -> None:
        """``cluster`` supplies the true per-(query, shard) service times;
        ``truth`` the exhaustive ground truth, filled per query on demand
        by the cluster's searcher."""
        self.cluster = cluster
        self.truth = truth

    def decide(self, query: Query, view: ClusterView) -> Decision:
        contributions = self.truth.ensure(self.cluster.searcher, query).contributions_k
        keep = [sid for sid in range(view.n_shards) if contributions.get(sid, 0) > 0]
        if not keep:
            keep = [0]

        boosted_latency = {}
        current_latency = {}
        for sid in keep:
            service = self.cluster.service_time_ms(query, sid, telemetry=view.telemetry)
            queue = view.queued_predicted_ms[sid]
            current_latency[sid] = equivalent_latency_ms(
                queue, service, view.default_freq_ghz, view.default_freq_ghz
            )
            boosted_latency[sid] = equivalent_latency_ms(
                queue, service, view.default_freq_ghz, view.max_freq_ghz
            )
        budget = max(boosted_latency.values())
        overrides = {
            sid: view.max_freq_ghz
            for sid in keep
            if current_latency[sid] > budget + 1e-9
        }
        return Decision(
            shard_ids=tuple(keep),
            time_budget_ms=budget,
            frequency_overrides=overrides,
        )
