"""Tests for the predictor bank and its datasets (trained unit testbed)."""

import concurrent.futures
import multiprocessing
import os
import signal
from concurrent.futures import ProcessPoolExecutor

import numpy as np
import pytest

import repro.host as host
import repro.predictors.bank as bank_module
from repro.cluster.cpu import CostModel
from repro.cluster.engine import SearchCluster
from repro.experiments.testbed import Scale
from repro.index.builder import IndexBuilder
from repro.index.partitioner import partition_topical
from repro.metrics import GroundTruth
from repro.nn.layers import StackedDense
from repro.predictors import (
    PredictorBank,
    QualityPredictor,
    ShardLatencyDataset,
    TermFeatureCache,
    build_latency_dataset,
    build_quality_dataset,
    trace_feature_tensors,
)
from repro.text.analyzer import WhitespaceAnalyzer
from repro.workloads.corpus import SyntheticCorpus
from repro.workloads.traces import training_queries


def shard_features(testbed, queries, shard_id=0):
    """One shard's (Table I, Table II) rows for ``queries``, as training
    builds them."""
    quality_t, latency_t = trace_feature_tensors(
        [q.terms for q in queries], TermFeatureCache(testbed.bank.stats_indexes)
    )
    return quality_t[:, shard_id], latency_t[:, shard_id]


class TestDatasets:
    def test_quality_dataset_shapes(self, unit_testbed, unit_train_queries):
        truth = GroundTruth.build(
            unit_testbed.cluster.searcher, unit_train_queries, k=unit_testbed.cluster.k
        )
        quality, _ = shard_features(unit_testbed, unit_train_queries)
        ds = build_quality_dataset(0, quality, unit_train_queries, truth)
        n = len(unit_train_queries)
        assert ds.features.shape == (n, 10)
        assert ds.labels_k.shape == (n,)
        assert (ds.labels_half_k <= ds.labels_k).all()
        with pytest.raises(ValueError, match="feature rows"):
            build_quality_dataset(0, quality[1:], unit_train_queries, truth)

    def test_latency_dataset_positive_service(self, unit_testbed, unit_train_queries):
        _, latency = shard_features(unit_testbed, unit_train_queries)
        ds = build_latency_dataset(
            0, latency, unit_testbed.cluster, unit_train_queries
        )
        assert (ds.service_ms > 0).all()
        assert ds.features.shape == (len(unit_train_queries), 15)
        with pytest.raises(ValueError, match="feature rows"):
            build_latency_dataset(
                0, latency[1:], unit_testbed.cluster, unit_train_queries
            )

    def test_split_disjoint_and_complete(self, unit_testbed, unit_train_queries):
        truth = GroundTruth.build(
            unit_testbed.cluster.searcher, unit_train_queries, k=unit_testbed.cluster.k
        )
        quality, _ = shard_features(unit_testbed, unit_train_queries)
        ds = build_quality_dataset(0, quality, unit_train_queries, truth)
        train, test = ds.split(0.25, seed=1)
        assert len(train.labels_k) + len(test.labels_k) == len(ds.labels_k)
        assert len(test.labels_k) == round(0.25 * len(ds.labels_k))

    def test_split_validation(self, unit_testbed, unit_train_queries):
        truth = GroundTruth.build(
            unit_testbed.cluster.searcher, unit_train_queries, k=unit_testbed.cluster.k
        )
        quality, _ = shard_features(unit_testbed, unit_train_queries)
        ds = build_quality_dataset(0, quality, unit_train_queries, truth)
        with pytest.raises(ValueError):
            ds.split(1.5)

    def test_trained_rows_are_the_served_rows(self, unit_testbed):
        """Every shard's train and held-out rows, put back in query order
        through the split's permutation, are ``trace_feature_tensors`` over
        the training queries: the rows a model trained on are the rows
        serving feeds it."""
        scale = unit_testbed.scale
        queries = training_queries(
            unit_testbed.corpus, scale.n_training_queries, seed=scale.seed + 1000
        )
        n = len(queries)
        # Split row numbers the way train splits each shard's datasets.
        order = ShardLatencyDataset(
            0, np.arange(n, dtype=np.float64)[:, None], np.zeros(n)
        ).split(0.2, seed=scale.seed)
        train_idx, test_idx = (part.features[:, 0].astype(np.int64) for part in order)
        quality_t, latency_t = trace_feature_tensors(
            [q.terms for q in queries], TermFeatureCache(unit_testbed.bank.stats_indexes)
        )
        report = unit_testbed.training_report
        for sid, ((q_train, q_test), (l_train, l_test)) in enumerate(
            zip(report.quality_data, report.latency_data)
        ):
            for part, idx in ((q_train, train_idx), (q_test, test_idx)):
                assert np.array_equal(part.features, quality_t[idx, sid])
            for part, idx in ((l_train, train_idx), (l_test, test_idx)):
                assert np.array_equal(part.features, latency_t[idx, sid])
            assert q_train.features.flags.c_contiguous
            assert l_train.features.flags.c_contiguous


class TestPredictorBank:
    def test_training_report_complete(self, unit_testbed):
        report = unit_testbed.training_report
        n = unit_testbed.cluster.n_shards
        assert len(report.quality_accuracy) == n
        assert len(report.latency_accuracy) == n
        assert 0.0 < report.mean_quality_accuracy <= 1.0
        assert 0.0 < report.mean_latency_accuracy <= 1.0
        # One history per fit, scored every EVAL_EVERY iterations.
        scale = unit_testbed.scale
        for histories, iterations in (
            (report.quality_history, scale.quality_iterations),
            (report.quality_half_history, scale.quality_iterations),
            (report.latency_history, scale.latency_iterations),
        ):
            assert len(histories) == n
            for history in histories:
                assert history.iterations == iterations
                assert history.eval_iterations == list(
                    range(bank_module.EVAL_EVERY, iterations + 1, bank_module.EVAL_EVERY)
                )
                assert len(history.eval_accuracy) == len(history.eval_iterations)
        # Every reported accuracy is its model's score on the reported split.
        bank = unit_testbed.bank
        assert len(report.quality_data) == len(report.latency_data) == n
        for sid, ((_, q_test), (_, l_test)) in enumerate(
            zip(report.quality_data, report.latency_data)
        ):
            assert bank.quality_k_models[sid].accuracy(
                q_test.features, q_test.labels_k
            ) == report.quality_accuracy[sid]
            assert bank.quality_half_models[sid].accuracy(
                q_test.features, q_test.labels_half_k
            ) == report.quality_half_accuracy[sid]
            assert bank.latency_models[sid].accuracy(
                l_test.features, l_test.service_ms
            ) == report.latency_accuracy[sid]

    def test_predict_shape_and_bounds(self, unit_testbed):
        query = unit_testbed.wikipedia_trace[0]
        predictions = unit_testbed.bank.predict(query)
        assert len(predictions) == unit_testbed.cluster.n_shards
        for p in predictions:
            assert 0 <= p.quality_k <= unit_testbed.bank.k
            assert 0 <= p.quality_half_k <= max(unit_testbed.bank.k // 2, 1)
            assert p.service_default_ms > 0
            assert 0.0 <= p.p_zero_k <= 1.0

    def test_predictions_cached(self, unit_testbed):
        query = unit_testbed.wikipedia_trace[0]
        assert unit_testbed.bank.predict(query) is unit_testbed.bank.predict(query)

    def test_untrained_predict_rejected(self, unit_testbed):
        bank = PredictorBank(unit_testbed.cluster)
        with pytest.raises(RuntimeError):
            bank.predict(unit_testbed.wikipedia_trace[0])

    def test_train_requires_enough_queries(self, unit_testbed):
        bank = PredictorBank(unit_testbed.cluster)
        with pytest.raises(ValueError):
            bank.train(list(unit_testbed.wikipedia_trace)[:3])

    def test_latency_predictions_correlate_with_truth(self, unit_testbed):
        # Spearman-ish check: predicted service times order real ones.
        queries = list({q.terms: q for q in unit_testbed.wikipedia_trace}.values())[:25]
        predicted = []
        actual = []
        for query in queries:
            predicted.append(unit_testbed.bank.predict(query)[0].service_default_ms)
            actual.append(unit_testbed.cluster.service_time_ms(query, 0))
        correlation = np.corrcoef(predicted, actual)[0, 1]
        assert correlation > 0.6

    def test_coordination_overhead_subms(self, unit_testbed):
        assert 0.0 < unit_testbed.bank.coordination_overhead_ms() < 1.0


def assert_stacks_are_the_weights(bank, stacks=None):
    """Every per-shard Dense W/b is a view of its slice of its kind's stack
    (by default the fused stacks)."""
    model_lists = (bank.quality_k_models, bank.quality_half_models, bank.latency_models)
    if stacks is None:
        stacks = [fused.stack for fused in bank.fused_stacks()]
    for predictors, stack in zip(model_lists, stacks):
        for s, predictor in enumerate(predictors):
            dense = [layer for layer in predictor.model.layers if hasattr(layer, "W")]
            ops = [op for op in stack.ops if op is not None]
            assert len(dense) == len(ops) == 6
            for layer, op in zip(dense, ops):
                assert np.shares_memory(layer.W, op.W[s])
                assert np.shares_memory(layer.b, op.b[s])


def stack_arrays(bank):
    """The W and b arrays of the bank's three weight stacks, in order."""
    return [
        array
        for stack in bank.weight_stacks
        for op in stack.ops if op is not None
        for array in (op.W, op.b)
    ]


class TestResidentWeights:
    def test_fused_stacks_are_the_weights(self, unit_testbed):
        assert_stacks_are_the_weights(unit_testbed.bank)

    def test_weight_stacks_are_allocated_once_at_construction(
        self, unit_testbed, unit_train_queries, unit_truth, monkeypatch
    ):
        """The bank allocates its stacks when it is built, every Dense is a
        view of them from the start, and nothing later replaces them:
        neither training nor fusing."""
        allocated = []
        like = StackedDense.like.__func__

        def recording_like(cls, layer, n):
            stack = like(cls, layer, n)
            allocated.extend((stack.W, stack.b))
            return stack

        monkeypatch.setattr(StackedDense, "like", classmethod(recording_like))
        bank = PredictorBank(unit_testbed.cluster)
        assert_stacks_are_the_weights(bank, bank.weight_stacks)
        arrays = stack_arrays(bank)
        assert len(arrays) == 3 * 6 * 2
        assert all(a is b for a, b in zip(arrays, allocated, strict=True))
        bank.train(
            unit_train_queries, truth=unit_truth,
            quality_iterations=QUALITY_ITERATIONS,
            latency_iterations=LATENCY_ITERATIONS,
        )
        assert all(a is b for a, b in zip(stack_arrays(bank), arrays, strict=True))
        fused = bank.fused_stacks()
        assert all(f.stack is w for f, w in zip(fused, bank.weight_stacks, strict=True))
        assert all(a is b for a, b in zip(stack_arrays(bank), arrays, strict=True))
        assert_stacks_are_the_weights(bank)

    def test_training_leaves_nothing_in_the_cluster_memo(
        self, unit_testbed, unit_train_queries, monkeypatch
    ):
        """Labels are searched by a searcher that lives only inside
        ``train``, over the cluster's shards, k, strategy and cost model."""
        shards = unit_testbed.cluster.shards
        cost_model = CostModel(cycles_per_posting=120_000.0)
        cluster = SearchCluster(
            shards, k=7, strategy="exhaustive", cost_model=cost_model
        )
        build = bank_module.build_latency_dataset
        datasets = []

        def recording(*args):
            datasets.append(build(*args))
            return datasets[-1]

        monkeypatch.setattr(bank_module, "build_latency_dataset", recording)
        bank = PredictorBank(cluster)
        bank.train(unit_train_queries, quality_iterations=1, latency_iterations=1)
        assert [stats.size for stats in cluster.searcher_cache_stats()] == [0] * 8
        for sid, dataset in enumerate(datasets):
            expected = build(sid, dataset.features, cluster, unit_train_queries)
            assert dataset.service_ms.tobytes() == expected.service_ms.tobytes()

    def test_training_leaves_nothing_in_the_feature_cache(
        self, unit_testbed, unit_train_queries
    ):
        """Training rows go through a feature cache dropped on return: the
        bank's own holds only the terms serving has asked it to predict."""
        bank = PredictorBank(unit_testbed.cluster)
        bank.train(unit_train_queries, quality_iterations=1, latency_iterations=1)
        assert len(bank._feature_cache) == 0
        bank.predict(unit_train_queries[0])
        assert len(bank._feature_cache) == len(set(unit_train_queries[0].terms))

    def test_no_gradient_or_activation_cache_after_training(self, unit_testbed):
        for model in all_models(unit_testbed.bank):
            for layer in model.model.layers:
                for name in ("dW", "db", "_x", "_mask"):
                    assert getattr(layer, name, None) is None


class TestShardBuildBuffer:
    def test_buffered_tokens_are_one_str_per_distinct_term(self):
        """The builder keeps a reference per token but one ``str`` object
        per distinct term, not one per token."""
        scale = Scale.unit()
        corpus = SyntheticCorpus(scale.corpus)
        groups = partition_topical(corpus.documents, scale.n_shards, seed=scale.seed)
        builder = IndexBuilder(0, analyzer=WhitespaceAnalyzer())
        builder.add_all(groups[0])
        tokens = [token for doc in builder._docs.values() for token in doc]
        vocabulary = set(tokens)
        assert len(tokens) > 5 * len(vocabulary)
        assert len({id(token) for token in tokens}) == len(vocabulary)


class TestTrainingValidation:
    @pytest.mark.parametrize("quality, latency", [(0, 20), (-1, 20), (30, 0)])
    def test_nonpositive_iterations_rejected_before_any_work(
        self, unit_testbed, unit_train_queries, monkeypatch, quality, latency
    ):
        # These used to leave the bank trained on random weights.
        def no_work(*args, **kwargs):
            raise AssertionError("training did work before validating")

        monkeypatch.setattr(GroundTruth, "build", no_work)
        monkeypatch.setattr(bank_module, "trace_feature_tensors", no_work)
        monkeypatch.setattr(bank_module, "build_quality_dataset", no_work)
        monkeypatch.setattr(bank_module, "process_map", no_work)
        bank = PredictorBank(unit_testbed.cluster)
        with pytest.raises(
            ValueError,
            match=f"^training iterations must be positive, got "
            f"quality_iterations={quality}, latency_iterations={latency}$",
        ):
            bank.train(
                unit_train_queries, quality_iterations=quality,
                latency_iterations=latency,
            )
        assert not bank.trained


# Small enough to train a unit-scale bank several times per test run; the
# pooled/serial identity does not depend on the iteration count.
QUALITY_ITERATIONS, LATENCY_ITERATIONS = 8, 5


@pytest.fixture(scope="module")
def unit_truth(unit_testbed, unit_train_queries):
    return GroundTruth.build(
        unit_testbed.cluster.searcher, unit_train_queries, k=unit_testbed.cluster.k
    )


@pytest.fixture(scope="module")
def direct_fits(unit_testbed, unit_train_queries, unit_truth):
    """Every predictor fitted by a direct ``fit`` in this process, on the
    splits ``train`` makes, with the held-out accuracies ``train`` reports."""
    bank = PredictorBank(unit_testbed.cluster)
    accuracies = {"quality": [], "quality_half": [], "latency": []}
    for sid in range(bank.n_shards):
        quality, latency = shard_features(unit_testbed, unit_train_queries, sid)
        q_train, q_test = build_quality_dataset(
            sid, quality, unit_train_queries, unit_truth
        ).split(0.2, seed=0)
        l_train, l_test = build_latency_dataset(
            sid, latency, unit_testbed.cluster, unit_train_queries
        ).split(0.2, seed=0)
        for model, labels, test_labels, key in (
            (bank.quality_k_models[sid], q_train.labels_k, q_test.labels_k, "quality"),
            (bank.quality_half_models[sid], q_train.labels_half_k,
             q_test.labels_half_k, "quality_half"),
        ):
            model.fit(q_train.features, labels, iterations=QUALITY_ITERATIONS, seed=0)
            accuracies[key].append(model.accuracy(q_test.features, test_labels))
        model = bank.latency_models[sid]
        model.fit(
            l_train.features, l_train.service_ms, iterations=LATENCY_ITERATIONS, seed=0
        )
        accuracies["latency"].append(model.accuracy(l_test.features, l_test.service_ms))
    return bank, accuracies


def all_models(bank):
    return bank.quality_k_models + bank.quality_half_models + bank.latency_models


@pytest.fixture
def pools(monkeypatch):
    """The worker counts of the process pools the test opens.

    A hang fails the test, and no worker may outlive it.  The guard is an
    alarm, not a watchdog thread: forking a multi-threaded process is what
    the BLAS pin exists to avoid.
    """
    opened = []

    def recording_pool(max_workers, **kwargs):
        opened.append(max_workers)
        return ProcessPoolExecutor(max_workers, **kwargs)

    def hung(signum, frame):
        raise TimeoutError("bank.train did not return")

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", recording_pool)
    previous = signal.signal(signal.SIGALRM, hung)
    signal.alarm(120)
    yield opened
    signal.alarm(0)
    signal.signal(signal.SIGALRM, previous)
    assert multiprocessing.active_children() == []


def force_cpus(monkeypatch, cpus):
    if cpus > 1 and not host.BLAS_SINGLE_THREADED:
        pytest.skip("BLAS is not pinned to one thread, so training never forks")
    monkeypatch.setattr(host, "usable_cpus", lambda: cpus)


class TestPooledTraining:
    @pytest.mark.parametrize("cpus", [1, 2, 3])
    def test_pooled_training_is_the_serial_training(
        self, unit_testbed, unit_train_queries, unit_truth, direct_fits,
        monkeypatch, pools, cpus,
    ):
        force_cpus(monkeypatch, cpus)
        bank = PredictorBank(unit_testbed.cluster)
        report = bank.train(
            unit_train_queries, truth=unit_truth,
            quality_iterations=QUALITY_ITERATIONS,
            latency_iterations=LATENCY_ITERATIONS,
        )
        assert pools == ([] if cpus == 1 else [cpus])
        reference, accuracies = direct_fits
        for trained, fitted in zip(all_models(bank), all_models(reference)):
            state, expected = trained.state(), fitted.state()
            assert state.keys() == expected.keys()
            for key in expected:
                assert state[key].dtype == expected[key].dtype
                assert state[key].tobytes() == expected[key].tobytes(), key
        assert report.quality_accuracy == accuracies["quality"]
        assert report.quality_half_accuracy == accuracies["quality_half"]
        assert report.latency_accuracy == accuracies["latency"]

    def test_serial_training_fills_the_stacks_the_pooled_training_does(
        self, unit_testbed, unit_train_queries, unit_truth, monkeypatch, pools
    ):
        """Fits in this process train through to the weight stacks; forked
        fits come back through ``load_state``.  Both leave the same stack
        bytes, with every ``W``/``b`` still a view of its stack."""
        stack_bytes = {}
        for cpus in (1, 2):
            force_cpus(monkeypatch, cpus)
            bank = PredictorBank(unit_testbed.cluster)
            bank.train(
                unit_train_queries, truth=unit_truth,
                quality_iterations=QUALITY_ITERATIONS,
                latency_iterations=LATENCY_ITERATIONS,
            )
            assert_stacks_are_the_weights(bank, bank.weight_stacks)
            stack_bytes[cpus] = [array.tobytes() for array in stack_arrays(bank)]
        assert pools == [2]
        assert stack_bytes[1] == stack_bytes[2]

    def test_unpinned_blas_trains_in_process(
        self, unit_testbed, unit_train_queries, unit_truth, monkeypatch, pools
    ):
        monkeypatch.setattr(host, "usable_cpus", lambda: 2)
        monkeypatch.setattr(host, "BLAS_SINGLE_THREADED", False)
        bank = PredictorBank(unit_testbed.cluster)
        bank.train(
            unit_train_queries, truth=unit_truth, quality_iterations=1,
            latency_iterations=1,
        )
        assert bank.trained
        assert pools == []


class TestRetrainingAfterFusion:
    def test_retraining_a_fused_bank_is_retraining_an_unfused_one(
        self, unit_testbed, unit_train_queries, unit_truth
    ):
        """Predicting fuses the bank, so its models' weights live in the
        stacks when it is trained again: the second training must land
        exactly where it lands on a bank that never fused in between."""
        queries = list({q.terms: q for q in unit_testbed.wikipedia_trace}.values())

        def train(bank, seed):
            bank.train(
                unit_train_queries, truth=unit_truth, seed=seed,
                quality_iterations=QUALITY_ITERATIONS,
                latency_iterations=LATENCY_ITERATIONS,
            )

        fused = PredictorBank(unit_testbed.cluster)
        unfused = PredictorBank(unit_testbed.cluster)
        train(fused, seed=1)
        first = [fused.predict(q) for q in queries]
        train(fused, seed=2)
        train(unfused, seed=1)
        train(unfused, seed=2)
        second = [fused.predict(q) for q in queries]
        assert second == [unfused.predict(q) for q in queries]
        assert second != first
        for trained, expected in zip(all_models(fused), all_models(unfused)):
            state = trained.state()
            for key, value in expected.state().items():
                assert state[key].tobytes() == value.tobytes(), key
        assert_stacks_are_the_weights(fused)


class TestTrainingWorkerFailure:
    def test_dead_worker_is_one_clean_error(
        self, unit_testbed, unit_train_queries, unit_truth, monkeypatch, pools
    ):
        force_cpus(monkeypatch, 2)
        parent = os.getpid()

        def die(*args, **kwargs):
            assert os.getpid() != parent, "fit ran in the test process"
            os._exit(3)

        monkeypatch.setattr(QualityPredictor, "fit", die)
        bank = PredictorBank(unit_testbed.cluster)
        with pytest.raises(
            RuntimeError, match=r"^worker process \d+ died with exit code 3$"
        ):
            bank.train(
                unit_train_queries, truth=unit_truth,
                quality_iterations=QUALITY_ITERATIONS,
                latency_iterations=LATENCY_ITERATIONS,
            )
        assert not bank.trained
        assert not bank._prediction_cache
        assert pools == [2]

    def test_worker_exception_reaches_the_caller_as_itself(
        self, unit_testbed, unit_train_queries, unit_truth, monkeypatch, pools
    ):
        force_cpus(monkeypatch, 2)
        fit = QualityPredictor.fit

        def fit_nothing(self, features, labels, **kwargs):
            return fit(self, features, labels, **{**kwargs, "iterations": 0})

        monkeypatch.setattr(QualityPredictor, "fit", fit_nothing)
        bank = PredictorBank(unit_testbed.cluster)
        with pytest.raises(ValueError, match="^iterations must be positive, got 0$"):
            bank.train(
                unit_train_queries, truth=unit_truth,
                quality_iterations=QUALITY_ITERATIONS,
                latency_iterations=LATENCY_ITERATIONS,
            )
        assert not bank.trained
        assert pools == [2]
