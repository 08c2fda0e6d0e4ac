"""Rank-S selective search (Kulkarni et al., CIKM'12).

A centralized CSI-based baseline: the query first runs against the Central
Sample Index; each sampled hit casts an exponentially decayed vote for its
home shard; shards whose vote mass clears a fixed threshold are searched.
As the paper stresses, Rank-S only knows the *relative* importance of
shards from a 1% sample — it has no per-query notion of contribution to
the actual top-K, which is why its quality trails Cottage badly (Fig. 11).
"""

from __future__ import annotations

from repro.cluster.cpu import CostModel
from repro.cluster.types import ClusterView, Decision
from repro.index.csi import CentralSampleIndex
from repro.policies.base import BasePolicy
from repro.retrieval.exhaustive import exhaustive_search
from repro.retrieval.query import Query


class RankSPolicy(BasePolicy):
    """CSI search + exponentially decayed votes + fixed cutoff."""

    name = "rank_s"

    def __init__(
        self,
        csi: CentralSampleIndex,
        decay_base: float = 1.2,
        vote_threshold: float = 0.005,
        sample_depth: int = 50,
        cost_model: CostModel | None = None,
        aggregator_freq_ghz: float = 2.1,
    ) -> None:
        """
        Parameters
        ----------
        decay_base:
            Rank-S's B: hit at rank r votes ``score * B^-r``.  The original
            paper explores B in [2, 5]; smaller B keeps deeper hits alive.
        vote_threshold:
            Fixed fraction of the total vote mass a shard needs to be
            selected ("Rank-S uses the fixed threshold for all requests").
        sample_depth:
            How many CSI hits vote.
        cost_model / aggregator_freq_ghz:
            Used to charge the CSI search as aggregator-side coordination
            delay.
        """
        if decay_base <= 1.0:
            raise ValueError("decay base must exceed 1")
        if not 0.0 < vote_threshold < 1.0:
            raise ValueError("vote threshold must be in (0, 1)")
        if sample_depth < 1:
            raise ValueError("sample depth must be positive")
        self.csi = csi
        self.decay_base = decay_base
        self.vote_threshold = vote_threshold
        self.sample_depth = sample_depth
        self.cost_model = cost_model or CostModel()
        self.aggregator_freq_ghz = aggregator_freq_ghz
        # The CSI is immutable, so votes are memoized per distinct query
        # (the CSI search *time* is still charged on every arrival).
        self._cache: dict[tuple[str, ...], tuple[dict[int, float], float]] = {}

    def shard_votes(self, query: Query) -> tuple[dict[int, float], float]:
        """Vote mass per shard and the CSI search's simulated cost (ms)."""
        cached = self._cache.get(query.terms)
        if cached is not None:
            return cached
        result = exhaustive_search(
            self.csi.index, list(query.terms), self.sample_depth
        )
        csi_cost_ms = self.cost_model.service_ms(result.cost, self.aggregator_freq_ghz)
        votes: dict[int, float] = {}
        for rank, (doc_id, score) in enumerate(result.hits):
            shard = self.csi.doc_to_shard[doc_id]
            votes[shard] = votes.get(shard, 0.0) + score * self.decay_base ** -(rank + 1)
        entry = (votes, csi_cost_ms)
        self._cache[query.terms] = entry
        return entry

    def decide(self, query: Query, view: ClusterView) -> Decision:
        votes, csi_cost_ms = self.shard_votes(query)
        total = sum(votes.values())
        if total <= 0.0:
            # Sample saw nothing: fall back to exhaustive (cannot rank).
            return Decision(
                shard_ids=tuple(range(view.n_shards)),
                coordination_delay_ms=csi_cost_ms,
            )
        selected = tuple(
            sorted(
                sid for sid, vote in votes.items() if vote >= self.vote_threshold * total
            )
        )
        if not selected:
            selected = (max(votes, key=lambda sid: votes[sid]),)
        return Decision(shard_ids=selected, coordination_delay_ms=csi_cost_ms)
