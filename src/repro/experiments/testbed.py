"""The shared experimental testbed.

Reproduces the paper's setup end to end: a topically partitioned corpus on
16 ISNs, Wikipedia- and Lucene-style query traces, trained per-ISN
predictor banks, a CSI for Rank-S and Gamma statistics for Taily.  Every
figure/table experiment builds (or receives) one ``Testbed`` and runs its
policies on it, so all results in a session share workload, index and
hardware model.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.cluster.engine import RunResult, SearchCluster
from repro.cluster.types import SelectionPolicy
from repro.core.cottage import CottagePolicy
from repro.core.variants import CottageISNPolicy, CottageWithoutMLPolicy
from repro.index.builder import build_shards
from repro.index.csi import CentralSampleIndex
from repro.index.partitioner import partition_topical
from repro.metrics.quality import GroundTruth
from repro.metrics.summary import PolicySummary, summarize_run
from repro.policies.aggregation import AggregationPolicy
from repro.policies.exhaustive import ExhaustivePolicy
from repro.policies.oracle import OraclePolicy
from repro.policies.rank_s import RankSPolicy
from repro.policies.taily import TailyPolicy
from repro.predictors.bank import PredictorBank, TrainingReport
from repro.predictors.gamma_quality import TailyQualityEstimator
from repro.retrieval.query import QueryTrace
from repro.text.analyzer import WhitespaceAnalyzer
from repro.workloads.corpus import CorpusConfig, SyntheticCorpus
from repro.workloads.traces import TraceConfig, generate_trace, training_queries


@dataclass(frozen=True)
class Scale:
    """How big an experiment run is.

    ``unit`` keeps tests fast; ``small`` is the benchmark default;
    ``full`` approaches the paper's proportions (16 ISNs, long traces).
    """

    n_shards: int = 16
    corpus: CorpusConfig = field(default_factory=CorpusConfig)
    n_training_queries: int = 240
    quality_iterations: int = 300
    latency_iterations: int = 200
    trace_duration_s: float = 60.0
    trace_rate_qps: float = 18.0
    trace_distinct: int = 150
    k: int = 10
    seed: int = 0

    @classmethod
    def unit(cls) -> "Scale":
        return cls(
            n_shards=8,
            corpus=CorpusConfig(
                n_docs=600, vocab_size=2000, n_topics=8, topic_core_size=120,
                mean_doc_length=60,
            ),
            n_training_queries=80,
            quality_iterations=80,
            latency_iterations=80,
            trace_duration_s=10.0,
            trace_rate_qps=60.0,
            trace_distinct=60,
        )

    @classmethod
    def small(cls) -> "Scale":
        return cls(
            n_shards=16,
            corpus=CorpusConfig(
                n_docs=3000, vocab_size=8000, n_topics=16, topic_core_size=250,
                mean_doc_length=90,
            ),
            n_training_queries=360,
            quality_iterations=400,
            latency_iterations=200,
            trace_duration_s=40.0,
            trace_rate_qps=65.0,
            trace_distinct=150,
        )

    @classmethod
    def full(cls) -> "Scale":
        return cls(
            n_shards=16,
            corpus=CorpusConfig(
                n_docs=8000, vocab_size=16000, n_topics=32, topic_core_size=300,
                mean_doc_length=120,
            ),
            n_training_queries=400,
            quality_iterations=600,
            latency_iterations=300,
            # Per-query work grows with the corpus (~2.4x small), so the
            # rate drops to keep exhaustive utilization ~0.5.
            trace_duration_s=150.0,
            trace_rate_qps=28.0,
            trace_distinct=250,
        )


class Testbed:
    """Corpus + cluster + trained predictors + baselines, ready to run."""

    __test__ = False  # not a pytest test class despite the name

    def __init__(
        self,
        scale: Scale,
        corpus: SyntheticCorpus,
        cluster: SearchCluster,
        bank: PredictorBank,
        training_report: TrainingReport,
        csi: CentralSampleIndex,
        taily_estimator: TailyQualityEstimator,
        wikipedia_trace: QueryTrace,
        lucene_trace: QueryTrace,
    ) -> None:
        self.scale = scale
        self.corpus = corpus
        self.cluster = cluster
        self.bank = bank
        self.training_report = training_report
        self.csi = csi
        self.taily_estimator = taily_estimator
        self.wikipedia_trace = wikipedia_trace
        self.lucene_trace = lucene_trace
        self._truth = GroundTruth(k=cluster.k)
        self._run_cache: dict[tuple[str, str], RunResult] = {}

    # ------------------------------------------------------------------ build
    @classmethod
    def build(cls, scale: Scale | None = None) -> "Testbed":
        """Construct the full testbed (index, traces, trained predictors)."""
        scale = scale or Scale.small()
        corpus = SyntheticCorpus(scale.corpus)
        groups = partition_topical(corpus.documents, scale.n_shards, seed=scale.seed)
        analyzer = WhitespaceAnalyzer()
        shards = build_shards(groups, analyzer=analyzer)
        cluster = SearchCluster(shards, k=scale.k)

        bank = PredictorBank(cluster, k=scale.k, seed=scale.seed)
        queries = training_queries(
            corpus, scale.n_training_queries, seed=scale.seed + 1000
        )
        report = bank.train(
            queries,
            quality_iterations=scale.quality_iterations,
            latency_iterations=scale.latency_iterations,
            seed=scale.seed,
        )

        csi = CentralSampleIndex.build(
            groups, sample_rate=0.01, seed=scale.seed, analyzer=analyzer
        )
        estimator = TailyQualityEstimator(bank.stats_indexes)

        wikipedia = generate_trace(
            corpus,
            TraceConfig(
                flavour="wikipedia",
                n_distinct_queries=scale.trace_distinct,
                duration_s=scale.trace_duration_s,
                arrival_rate_qps=scale.trace_rate_qps,
                seed=scale.seed + 11,
            ),
        )
        lucene = generate_trace(
            corpus,
            TraceConfig(
                flavour="lucene",
                n_distinct_queries=scale.trace_distinct,
                duration_s=scale.trace_duration_s,
                arrival_rate_qps=scale.trace_rate_qps,
                seed=scale.seed + 23,
            ),
        )
        return cls(
            scale=scale,
            corpus=corpus,
            cluster=cluster,
            bank=bank,
            training_report=report,
            csi=csi,
            taily_estimator=estimator,
            wikipedia_trace=wikipedia,
            lucene_trace=lucene,
        )

    # ------------------------------------------------------------------ policies
    def make_policy(self, name: str) -> SelectionPolicy:
        """Fresh policy instance by canonical name.

        Fresh per call on purpose: adaptive policies (aggregation,
        cottage_isn) carry run state that must not leak across traces.
        """
        if name == "exhaustive":
            return ExhaustivePolicy()
        if name == "aggregation":
            return AggregationPolicy()
        if name == "rank_s":
            return RankSPolicy(self.csi, cost_model=self.cluster.cost_model)
        if name == "taily":
            return TailyPolicy(self.taily_estimator)
        if name == "cottage":
            return CottagePolicy(self.bank, network=self.cluster.network)
        if name == "cottage_without_ml":
            return CottageWithoutMLPolicy(
                self.bank, self.taily_estimator, network=self.cluster.network
            )
        if name == "cottage_isn":
            return CottageISNPolicy(self.bank, network=self.cluster.network)
        if name == "oracle":
            return OraclePolicy(self.cluster, self._truth)
        raise ValueError(f"unknown policy {name!r}")

    BASELINES: tuple[str, ...] = ("exhaustive", "taily", "rank_s", "cottage")
    ABLATIONS: tuple[str, ...] = (
        "exhaustive", "taily", "cottage_without_ml", "cottage_isn", "cottage",
    )

    # ------------------------------------------------------------------ running
    def truth_for(self, trace: QueryTrace) -> GroundTruth:
        """Exhaustive ground truth for every distinct query in the trace."""
        for query in trace:
            self._truth.ensure(self.cluster.searcher, query)
        return self._truth

    def run(self, trace: QueryTrace, policy_name: str) -> RunResult:
        """Run (or reuse) ``policy_name`` on ``trace``.

        Runs are memoized by (trace name, policy): the simulation is
        deterministic, and the evaluation figures (10-15) all read the same
        seven runs.
        """
        key = (trace.name, policy_name)
        cached = self._run_cache.get(key)
        if cached is None:
            cached = self.cluster.run_trace(trace, self.make_policy(policy_name))
            self._run_cache[key] = cached
        return cached

    def summarize(self, trace: QueryTrace, policy_name: str) -> PolicySummary:
        run = self.run(trace, policy_name)
        return summarize_run(run, self.truth_for(trace), trace_name=trace.name)

    def summary_table(
        self, names: tuple[str, ...]
    ) -> dict[str, dict[str, PolicySummary]]:
        """Trace name -> policy -> :meth:`summarize`, on both traces: the
        table every per-policy number of Figs. 10, 11 and 13-15 is read from."""
        return {
            trace.name: {name: self.summarize(trace, name) for name in names}
            for trace in (self.wikipedia_trace, self.lucene_trace)
        }

    def compare_policies(
        self, trace: QueryTrace, names: tuple[str, ...] | None = None
    ) -> list[PolicySummary]:
        names = names or self.BASELINES
        return [self.summarize(trace, name) for name in names]
