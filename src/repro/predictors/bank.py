"""The per-ISN predictor bank.

Each ISN in the paper runs its own quality and latency models, trained on
its own index data ("each ISN has a separate neural network model trained
with its own index data").  The bank owns all per-shard models — a
Quality-K model, a Quality-K/2 model and a latency model per shard — trains
them, and serves the <Q^K, Q^{K/2}, L> prediction tuples Algorithm 1
consumes.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Iterator, NamedTuple, TypeVar

import numpy as np
from numpy.typing import NDArray

from repro.cluster.engine import SearchCluster
from repro.host import process_map
from repro.index.term_stats import TermStatsIndex
from repro.metrics.quality import GroundTruth
from repro.nn.model import Sequential, StackedSequential, TrainingHistory
from repro.predictors.arrays import FloatArray
from repro.predictors.datasets import (
    ShardLatencyDataset,
    ShardQualityDataset,
    build_latency_dataset,
    build_quality_dataset,
)
from repro.predictors.features import TermFeatureCache, trace_feature_tensors
from repro.predictors.fused import FusedLatencyModels, FusedQualityModels
from repro.predictors.latency import LatencyPredictor
from repro.predictors.quality import QualityPredictor
from repro.retrieval.query import Query
from repro.telemetry import NO_TELEMETRY, Counter, Telemetry


@dataclass(frozen=True)
class ISNPrediction:
    """One ISN's report for one query (paper Fig. 5 step 3).

    ``p_zero_k``/``p_zero_half`` are the quality models' softmax
    probabilities of the zero class — the confidence behind a "this shard
    contributes nothing" call.  Policies use them to cut only on confident
    zeros (see CottagePolicy.cut_confidence).
    """

    shard_id: int
    quality_k: int
    quality_half_k: int
    service_default_ms: float
    p_zero_k: float = 1.0
    p_zero_half: float = 1.0


#: Every fit scores itself on its shard's held-out split once per this many
#: iterations: the accuracy-vs-iterations curves of Figs. 7(a) and 8(a).
EVAL_EVERY = 25
#: The share of each shard's training queries held out from its fits.
HOLDOUT = 0.2


@dataclass
class TrainingReport:
    """What training produced, per shard (every list is indexed by shard id).

    Held-out accuracy of each of the three models, each fit's
    :class:`~repro.nn.model.TrainingHistory` (evaluated on the held-out
    split every :data:`EVAL_EVERY` iterations: exact class for quality,
    exact bin for latency) and each shard's (train, held-out) datasets.
    Figures read their predictor numbers from here, not from a second fit.
    """

    quality_accuracy: list[float] = field(default_factory=list)
    quality_half_accuracy: list[float] = field(default_factory=list)
    latency_accuracy: list[float] = field(default_factory=list)
    quality_history: list[TrainingHistory] = field(default_factory=list)
    quality_half_history: list[TrainingHistory] = field(default_factory=list)
    latency_history: list[TrainingHistory] = field(default_factory=list)
    quality_data: list[tuple[ShardQualityDataset, ShardQualityDataset]] = field(
        default_factory=list
    )
    latency_data: list[tuple[ShardLatencyDataset, ShardLatencyDataset]] = field(
        default_factory=list
    )

    @property
    def mean_quality_accuracy(self) -> float:
        return float(np.mean(self.quality_accuracy))

    @property
    def mean_latency_accuracy(self) -> float:
        return float(np.mean(self.latency_accuracy))


class FitJob(NamedTuple):
    """One predictor's training, self-contained: it runs in any process."""

    predictor: QualityPredictor | LatencyPredictor
    features: FloatArray
    targets: NDArray[Any]  # quality labels or service ms, as ``fit`` takes them
    held_out: tuple[FloatArray, NDArray[Any]]  # the shard's held-out (features, targets)
    iterations: int
    seed: int


def fit_job(job: FitJob) -> tuple[dict[str, FloatArray], TrainingHistory]:
    """Fit the job's predictor; its trained :meth:`state` and its history."""
    history = job.predictor.fit(
        job.features, job.targets, iterations=job.iterations, seed=job.seed,
        eval_set=job.held_out, eval_every=EVAL_EVERY,
    )
    return job.predictor.state(), history


P = TypeVar("P", QualityPredictor, LatencyPredictor)


def _made_into_stack(n: int, predictors: Iterator[P]) -> tuple[list[P], StackedSequential]:
    """Make ``n`` predictors, each model adopted into one weight stack
    before the next is made: no two models' weights exist outside it."""
    made: list[P] = []

    def models() -> Iterator[Sequential]:
        for predictor in predictors:
            made.append(predictor)
            yield predictor.model

    return made, StackedSequential.from_models(models(), n)


def _cache_counters(telemetry: Telemetry) -> tuple[Counter, Counter]:
    """The run's prediction-memo (hits, misses) counters."""
    metrics = telemetry.metrics
    return (
        metrics.counter("bank.prediction_cache.hits"),
        metrics.counter("bank.prediction_cache.misses"),
    )


class PredictorBank:
    """All per-shard predictors for one cluster, plus their stats indexes."""

    def __init__(
        self,
        cluster: SearchCluster,
        k: int | None = None,
        hidden_layers: int = 5,
        hidden_units: int = 128,
        seed: int = 0,
    ) -> None:
        self.cluster = cluster
        self.k = k or cluster.k
        self.hidden_layers = hidden_layers
        self.hidden_units = hidden_units
        self.stats_indexes = [
            TermStatsIndex(shard, k=self.k) for shard in cluster.shards
        ]
        n, half = cluster.n_shards, max(self.k // 2, 1)
        self.quality_k_models, k_stack = _made_into_stack(n, (
            QualityPredictor(self.k, hidden_layers, hidden_units, seed=seed + sid)
            for sid in range(n)
        ))
        self.quality_half_models, half_stack = _made_into_stack(n, (
            QualityPredictor(half, hidden_layers, hidden_units, seed=seed + 100 + sid)
            for sid in range(n)
        ))
        self.latency_models, latency_stack = _made_into_stack(n, (
            LatencyPredictor(hidden_layers=hidden_layers, hidden_units=hidden_units,
                             seed=seed + 200 + sid)
            for sid in range(n)
        ))
        # The only storage of every weight; training writes into it.
        self.weight_stacks = (k_stack, half_stack, latency_stack)
        self.trained = False
        # Memoized per-query reports.  Values are tuples on purpose: the
        # same object is handed to every caller, and an immutable tuple
        # means one caller's mutation can't corrupt later replays.
        self._prediction_cache: dict[tuple[str, ...], tuple[ISNPrediction, ...]] = {}
        # Per-term feature rows stacked across shards, for the terms serving
        # has predicted; term statistics are immutable, so this cache
        # survives retraining.
        self._feature_cache = TermFeatureCache(self.stats_indexes)
        self._fused: (
            tuple[FusedQualityModels, FusedQualityModels, FusedLatencyModels] | None
        ) = None

    @property
    def n_shards(self) -> int:
        return self.cluster.n_shards

    # ------------------------------------------------------------- training
    def train(
        self,
        queries: list[Query],
        truth: GroundTruth | None = None,
        quality_iterations: int = 600,
        latency_iterations: int = 300,
        seed: int = 0,
    ) -> TrainingReport:
        """Train every per-shard model; the :class:`TrainingReport`.

        ``truth`` is built by exhaustive search when not supplied.  Every
        shard's datasets are built and split here: features by the
        :func:`~repro.predictors.features.trace_feature_tensors` call
        serving makes, labels by a searcher, both dropped on return; the
        3 x n_shards fits are then independent jobs
        (:class:`FitJob`, each carrying its shard's held-out split) that
        :func:`~repro.host.process_map` spreads over the CPUs, and the
        weights they return are loaded into this bank's predictors — bit
        for bit what fitting them here would give.
        """
        if quality_iterations < 1 or latency_iterations < 1:
            raise ValueError(
                "training iterations must be positive, got quality_iterations="
                f"{quality_iterations}, latency_iterations={latency_iterations}"
            )
        if len(queries) < 10:
            raise ValueError("need at least 10 training queries")
        # Labels are searched by a searcher that lives only as long as this
        # call: no run reads them, so they stay out of the cluster's memo.
        cluster = self.cluster
        labeller = SearchCluster(
            cluster.shards, k=cluster.k, strategy=cluster.strategy,
            cost_model=cluster.cost_model, freq_scale=cluster.freq_scale,
        )
        if truth is None:
            truth = GroundTruth.build(labeller.searcher, queries, k=self.k)
        report = TrainingReport()
        jobs: list[FitJob] = []
        # The features serving feeds the models (see _predict_missing),
        # copied shard-major so each shard's [n_queries, F] slice is
        # contiguous.  Their per-term rows go in a cache dropped on return,
        # like the labeller: serving never asks for most training terms.
        quality_t, latency_t = (
            np.ascontiguousarray(tensor.transpose(1, 0, 2))
            for tensor in trace_feature_tensors(
                [query.terms for query in queries], TermFeatureCache(self.stats_indexes)
            )
        )
        for sid in range(self.n_shards):
            q_data = build_quality_dataset(sid, quality_t[sid], queries, truth)
            l_data = build_latency_dataset(sid, latency_t[sid], labeller, queries)
            q_train, q_test = q_data.split(HOLDOUT, seed=seed)
            l_train, l_test = l_data.split(HOLDOUT, seed=seed)
            report.quality_data.append((q_train, q_test))
            report.latency_data.append((l_train, l_test))
            jobs += [
                FitJob(self.quality_k_models[sid], q_train.features, q_train.labels_k,
                       (q_test.features, q_test.labels_k), quality_iterations, seed),
                FitJob(self.quality_half_models[sid], q_train.features,
                       q_train.labels_half_k, (q_test.features, q_test.labels_half_k),
                       quality_iterations, seed),
                FitJob(self.latency_models[sid], l_train.features, l_train.service_ms,
                       (l_test.features, l_test.service_ms), latency_iterations, seed),
            ]
        # The weights change from here on: the bank is untrained until the
        # last state is loaded.
        self.trained = False
        self._prediction_cache.clear()
        self._fused = None
        histories: list[TrainingHistory] = []
        for job, (state, history) in zip(jobs, process_map(fit_job, jobs)):
            job.predictor.load_state(state)
            histories.append(history)
        report.quality_history = histories[0::3]
        report.quality_half_history = histories[1::3]
        report.latency_history = histories[2::3]

        for sid, ((_, q_test), (_, l_test)) in enumerate(
            zip(report.quality_data, report.latency_data)
        ):
            report.quality_accuracy.append(
                self.quality_k_models[sid].accuracy(q_test.features, q_test.labels_k)
            )
            report.quality_half_accuracy.append(
                self.quality_half_models[sid].accuracy(
                    q_test.features, q_test.labels_half_k
                )
            )
            report.latency_accuracy.append(
                self.latency_models[sid].accuracy(l_test.features, l_test.service_ms)
            )
        self.trained = True
        return report

    # ------------------------------------------------------------- inference
    def fused_stacks(
        self,
    ) -> tuple[FusedQualityModels, FusedQualityModels, FusedLatencyModels]:
        """The three cross-shard model stacks (built lazily, cached).

        Quality-K, Quality-K/2 and latency models each run on their weight
        stack, so a query's 3 x n_shards forward passes collapse into three
        batched ones; only scaler statistics and bin centers stack here.
        """
        if not self.trained:
            raise RuntimeError("predictor bank has not been trained")
        if self._fused is None:
            self._fused = (
                FusedQualityModels(self.quality_k_models, self.weight_stacks[0]),
                FusedQualityModels(self.quality_half_models, self.weight_stacks[1]),
                FusedLatencyModels(self.latency_models, self.weight_stacks[2]),
            )
        return self._fused

    def predict(
        self, query: Query, telemetry: Telemetry = NO_TELEMETRY
    ) -> tuple[ISNPrediction, ...]:
        """All ISNs' <Q^K, Q^{K/2}, L_default> reports for one query.

        Runs on the fused batched kernel (see :meth:`batch_predict`).
        Predictions are memoized per distinct query: the underlying index
        is immutable, so the reports never change across a trace replay.
        ``telemetry`` counts the memo's hits and misses.
        """
        if not self.trained:
            raise RuntimeError("predictor bank has not been trained")
        cached = self._prediction_cache.get(query.terms)
        if telemetry.enabled:
            hits, misses = _cache_counters(telemetry)
            (hits if cached is not None else misses).add()
        if cached is not None:
            return cached
        return self.batch_predict([query], telemetry)[0]

    def batch_predict(
        self, queries: list[Query], telemetry: Telemetry = NO_TELEMETRY
    ) -> list[tuple[ISNPrediction, ...]]:
        """Per-ISN reports for many queries through the batched plane.

        Feature matrices for every uncached distinct query are assembled
        in one pass over the stacked term-stat arrays
        (:func:`~repro.predictors.features.trace_feature_tensors`), then
        each query runs three fused cross-shard forward passes — one per
        model kind — instead of 3 x n_shards per-model calls.

        Outputs are bit-identical to the per-shard/per-query reference
        loop (``predict_loop`` in ``tests/test_batched_inference.py``): the
        fused kernel evaluates one query row per pass, so every matmul has
        the exact shape the per-shard path used.  Results land in the same
        memo cache ``predict`` reads; ``telemetry`` gets a
        ``bank.batch_predict`` span whenever there is something to predict.
        """
        if not self.trained:
            raise RuntimeError("predictor bank has not been trained")
        missing = list(
            dict.fromkeys(
                q.terms for q in queries if q.terms not in self._prediction_cache
            )
        )
        if missing and telemetry.enabled:
            with telemetry.tracer.span(
                "bank.batch_predict", track="bank",
                n_queries=len(queries), n_uncached=len(missing),
            ):
                self._predict_missing(missing)
        elif missing:
            self._predict_missing(missing)
        return [self._prediction_cache[q.terms] for q in queries]

    def _predict_missing(self, missing: list[tuple[str, ...]]) -> None:
        """Run the fused cross-shard passes for uncached term tuples."""
        quality_t, latency_t = trace_feature_tensors(missing, self._feature_cache)
        fused_k, fused_half, fused_latency = self.fused_stacks()
        counts_k, p_zero_k = fused_k.predict_with_zero_prob_many(quality_t)
        counts_half, p_zero_half = fused_half.predict_with_zero_prob_many(quality_t)
        service_ms = fused_latency.predict_service_ms_many(latency_t)
        shard_ids = range(self.n_shards)
        # tolist() converts to native int/float in one C pass, and the
        # positional map() builds each row of ISNPredictions without a
        # Python-level loop — both much cheaper than per-element numpy
        # scalar indexing here.
        for terms, row_k, row_half, row_ms, row_pk, row_ph in zip(
            missing,
            counts_k.tolist(),
            counts_half.tolist(),
            service_ms.tolist(),
            p_zero_k.tolist(),
            p_zero_half.tolist(),
        ):
            self._prediction_cache[terms] = tuple(
                map(ISNPrediction, shard_ids, row_k, row_half, row_ms, row_pk, row_ph)
            )

    def prewarm(self, queries: list[Query], telemetry: Telemetry = NO_TELEMETRY) -> int:
        """Fill the prediction cache for a trace through the batched plane.

        Returns the number of distinct queries newly predicted.  Purely a
        wall-clock optimization: predictions are memoized pure functions,
        so prewarming never changes what any later ``predict`` returns.
        A traced prewarm also lists the memo's hit/miss counters, so a run
        whose decisions never ask the bank still reports them at zero.
        """
        before = len(self._prediction_cache)
        if telemetry.enabled:
            _cache_counters(telemetry)
        if queries:
            self.batch_predict(list(queries), telemetry)
        return len(self._prediction_cache) - before

    def coordination_overhead_ms(self) -> float:
        """Aggregator-visible cost of the predict-and-report round.

        ISNs predict in parallel, so the round costs the slowest ISN's
        quality+latency inference.  The paper measures ~41 us + ~70 us;
        a conservative fixed 0.15 ms stands in.  This host's inference
        cost is a wall-clock figure, timed by ``bench/``
        (``predictors.us_per_query_shard``), never by the simulator.
        """
        return 0.15
