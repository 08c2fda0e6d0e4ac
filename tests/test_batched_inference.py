"""Bit-identity of the batched coordination plane against the loop path.

The fused cross-shard kernels promise *bit-identical* outputs to the
per-shard/per-query reference code — not "close", identical.  That holds
because every fused matmul runs the exact 2-D product per stack slice the
loop ran (BLAS can round a row differently inside a larger gemm, so the
kernels never merge rows into one gemm), and the feature tensors are
assembled with exact stack/max operations.  These properties pin the
guarantee down at every layer:

* ``StackedSequential.forward_batched`` vs per-model ``Sequential.forward``
  over Hypothesis-generated topologies, stack sizes and batches;
* the whole-trace feature tensors vs the per-shard reference definition
  of Tables I and II kept here (:func:`quality_features`,
  :func:`latency_features`), including OOV terms;
* ``PredictorBank.batch_predict`` / ``predict`` vs the reference
  :func:`predict_loop` on a trained testbed, plus cache/prewarm semantics.
"""

from __future__ import annotations

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.nn.layers import Dense, Dropout, Layer, ReLU
from repro.nn.losses import softmax
from repro.nn.model import Sequential, StackedSequential, mlp_classifier
from repro.predictors import ISNPrediction
from repro.predictors.features import TermFeatureCache, trace_feature_tensors
from repro.retrieval.query import Query

# ---------------------------------------------------------------------------
# StackedSequential vs per-model Sequential
# ---------------------------------------------------------------------------

topologies = st.tuples(
    st.integers(min_value=1, max_value=5),   # models in the stack
    st.integers(min_value=1, max_value=9),   # input features
    st.integers(min_value=2, max_value=6),   # output classes
    st.integers(min_value=0, max_value=3),   # hidden layers
    st.integers(min_value=1, max_value=12),  # hidden units
    st.integers(min_value=1, max_value=5),   # row batch B
    st.integers(min_value=0, max_value=2**31 - 1),  # seed
)


def build_stack(n_models, n_features, n_classes, hidden, units, seed):
    """Same-architecture models with independent weights, as the bank has."""
    return [
        mlp_classifier(
            n_features, n_classes,
            hidden_layers=hidden, hidden_units=units, seed=seed + i,
        )
        for i in range(n_models)
    ]


@settings(deadline=None)
@given(topologies)
def test_forward_batched_matches_each_model(topology):
    n_models, n_features, n_classes, hidden, units, batch, seed = topology
    models = build_stack(n_models, n_features, n_classes, hidden, units, seed)
    stack = StackedSequential.from_models(models)
    rng = np.random.default_rng(seed)
    x = rng.normal(size=(n_models, batch, n_features))

    logits = stack.forward_batched(x)
    assert logits.shape == (n_models, batch, n_classes)
    for s, model in enumerate(models):
        # The documented 3-D contract: slice s equals the whole row batch
        # pushed through model s (same B, so the same gemm shapes).
        assert np.array_equal(logits[s], model.forward(x[s]))

    probs = stack.predict_proba(x)
    classes = stack.predict_classes(x)
    for s, model in enumerate(models):
        assert np.array_equal(probs[s], softmax(model.forward(x[s])))
        assert np.array_equal(classes[s], np.argmax(model.forward(x[s]), axis=-1))


@settings(deadline=None)
@given(topologies)
def test_forward_batched_query_axis_matches_single_rows(topology):
    """The 4-D path keeps one row per (stack, query) gemm slice, so every
    slice must be bit-identical to that row evaluated entirely alone —
    the strongest form of the guarantee, and the one ``batch_predict``
    relies on to reproduce ``predict_loop`` exactly."""
    n_models, n_features, n_classes, hidden, units, n_queries, seed = topology
    models = build_stack(n_models, n_features, n_classes, hidden, units, seed)
    stack = StackedSequential.from_models(models)
    rng = np.random.default_rng(seed + 1)
    x = rng.normal(size=(n_models, n_queries, 1, n_features))

    logits = stack.forward_batched(x)
    assert logits.shape == (n_models, n_queries, 1, n_classes)
    for s, model in enumerate(models):
        for q in range(n_queries):
            assert np.array_equal(logits[s, q], model.forward(x[s, q]))


@settings(deadline=None)
@given(topologies)
def test_forward_batched_accepts_noncontiguous_input(topology):
    """The kernel copies transposed-view inputs to C order for speed; the
    copy must be exact (the production path feeds a [NQ, S, F] transpose)."""
    n_models, n_features, n_classes, hidden, units, batch, seed = topology
    models = build_stack(n_models, n_features, n_classes, hidden, units, seed)
    stack = StackedSequential.from_models(models)
    rng = np.random.default_rng(seed + 2)
    query_major = rng.normal(size=(batch, n_models, n_features))
    view = query_major.transpose(1, 0, 2)
    assert not view.flags["C_CONTIGUOUS"] or batch == 1 or n_models == 1
    assert np.array_equal(
        stack.forward_batched(view),
        stack.forward_batched(np.ascontiguousarray(view)),
    )


def test_forward_batched_does_not_mutate_input():
    models = build_stack(2, 4, 3, 1, 8, seed=7)
    stack = StackedSequential.from_models(models)
    x = np.random.default_rng(7).normal(size=(2, 3, 4))
    before = x.copy()
    stack.forward_batched(x)
    assert np.array_equal(x, before)


def test_from_models_skips_dropout():
    """Dropout is identity at inference, so a stack built from models with
    Dropout must match ``forward(training=False)`` exactly."""
    rng = np.random.default_rng(3)
    models = []
    for i in range(3):
        local = np.random.default_rng(10 + i)
        models.append(
            Sequential([
                Dense(6, 8, rng=local),
                ReLU(),
                Dropout(0.5, rng=local),
                Dense(8, 4, rng=local),
            ])
        )
    stack = StackedSequential.from_models(models)
    x = rng.normal(size=(3, 2, 6))
    out = stack.forward_batched(x)
    for s, model in enumerate(models):
        assert np.array_equal(out[s], model.forward(x[s], training=False))


def test_from_models_validation():
    with pytest.raises(ValueError):
        StackedSequential.from_models([])
    mismatched = [mlp_classifier(4, 3, 1, 8, seed=0), mlp_classifier(4, 3, 1, 9, seed=1)]
    with pytest.raises(ValueError):
        StackedSequential.from_models(mismatched)

    class Opaque(Layer):
        def forward(self, x, training=False):
            return x

        def backward(self, grad_out):
            return grad_out

    with pytest.raises(ValueError):
        StackedSequential.from_models([Sequential([Dense(2, 2), Opaque()])] * 2)


def test_from_models_adopts_each_model_as_it_is_read():
    """A generator of models is fused one model at a time: when a model is
    made, every earlier one's weights already live in the stacks."""
    models = build_stack(3, 4, 2, 1, 8, seed=5)
    expected = [model.forward(np.ones((1, 4))) for model in models]

    def made():
        for i, model in enumerate(models):
            assert all(m.layers[0].W.base is not None for m in models[:i])
            assert all(m.layers[0].W.base is None for m in models[i:])
            yield model

    stack = StackedSequential.from_models(made(), 3)
    out = stack.forward_batched(np.ones((3, 1, 4)))
    for s, model in enumerate(models):
        assert np.shares_memory(model.layers[0].W, stack.ops[0].W)
        assert np.array_equal(out[s], expected[s])
    with pytest.raises(ValueError, match="^need 3 models of one architecture to stack, got 2$"):
        StackedSequential.from_models(iter(build_stack(2, 4, 2, 1, 8, seed=0)), 3)
    with pytest.raises(ValueError, match="^need 2 models of one architecture to stack$"):
        StackedSequential.from_models(iter(build_stack(3, 4, 2, 1, 8, seed=0)), 2)


def test_forward_batched_rejects_bad_shapes():
    stack = StackedSequential.from_models(build_stack(3, 4, 2, 0, 1, seed=0))
    with pytest.raises(ValueError):
        stack.forward_batched(np.zeros((3, 4)))  # missing batch axis
    with pytest.raises(ValueError):
        stack.forward_batched(np.zeros((2, 1, 4)))  # wrong stack size


# ---------------------------------------------------------------------------
# Vectorized feature extraction vs the per-shard reference
# ---------------------------------------------------------------------------

#: The per-shard reference definition of Tables I and II: each feature is
#: the MAX over the query's terms of one ``TermStats`` field, except
#: ``query_length`` (``None`` here), the term count.
QUALITY_FIELDS = (
    "first_quartile", "mean", "median", "geometric_mean", "harmonic_mean",
    "third_quartile", "kth_score", "max_score", "variance", "posting_length",
)
LATENCY_FIELDS = (
    "posting_length", "docs_ever_in_topk", "n_local_maxima",
    "n_local_maxima_above_mean", "n_max_score", None, "docs_within_5pct_of_max",
    "docs_within_5pct_of_kth", "mean", "geometric_mean", "harmonic_mean",
    "max_score", "estimated_max_score", "variance", "idf",
)


def reference_features(terms, stats, fields):
    """One query's feature vector on one shard, term by term."""
    if not terms:
        raise ValueError("query has no terms")
    rows = [
        [float(len(terms)) if name is None else float(getattr(stats.get(term), name))
         for name in fields]
        for term in terms
    ]
    return np.array(rows).max(axis=0)


def quality_features(terms, stats):
    """Table-I vector for one query on one shard."""
    return reference_features(terms, stats, QUALITY_FIELDS)


def latency_features(terms, stats):
    """Table-II vector for one query on one shard."""
    return reference_features(terms, stats, LATENCY_FIELDS)


# Real indexed terms (resolved from the testbed inside each test) are mixed
# with out-of-vocabulary strings: OOV terms exercise the zero-posting
# TermStats path and must aggregate identically in both pipelines.
OOV_TERMS = ("zzz-oov-a", "zzz-oov-b")


def draw_terms(data, testbed, min_size=1):
    vocab = sorted(
        {t for q in testbed.wikipedia_trace.queries for t in q.terms}
    )[:40] + list(OOV_TERMS)
    return tuple(
        data.draw(
            st.lists(
                st.sampled_from(vocab), min_size=min_size, max_size=5, unique=True
            )
        )
    )


def draw_batch(data, testbed):
    return [
        draw_terms(data, testbed)
        for _ in range(data.draw(st.integers(min_value=1, max_value=6)))
    ]


@settings(deadline=None)
@given(data=st.data())
def test_feature_matrices_match_per_shard_reference(data, unit_testbed):
    """Every (query, shard) slice of a multi-query batch is the reference
    vector of that query on that shard, bit for bit."""
    term_tuples = draw_batch(data, unit_testbed)
    stats_indexes = unit_testbed.bank.stats_indexes
    quality_t, latency_t = trace_feature_tensors(
        term_tuples, TermFeatureCache(stats_indexes)
    )
    assert quality_t.shape == (len(term_tuples), len(stats_indexes), 10)
    assert latency_t.shape == (len(term_tuples), len(stats_indexes), 15)
    for i, terms in enumerate(term_tuples):
        for sid, stats in enumerate(stats_indexes):
            assert np.array_equal(quality_t[i, sid], quality_features(terms, stats))
            assert np.array_equal(latency_t[i, sid], latency_features(terms, stats))


@settings(deadline=None)
@given(data=st.data())
def test_trace_tensors_match_per_query_matrices(data, unit_testbed):
    """A query's slice of a batch is what the query gets alone."""
    term_tuples = draw_batch(data, unit_testbed)
    cache = TermFeatureCache(unit_testbed.bank.stats_indexes)
    quality_t, latency_t = trace_feature_tensors(term_tuples, cache)
    for i, terms in enumerate(term_tuples):
        quality, latency = trace_feature_tensors([terms], cache)
        assert np.array_equal(quality_t[i], quality[0])
        assert np.array_equal(latency_t[i], latency[0])


def test_feature_functions_reject_empty_queries(unit_testbed):
    cache = TermFeatureCache(unit_testbed.bank.stats_indexes)
    for batch in ([()], [(), ("a",)], [("a",), ()]):
        with pytest.raises(ValueError, match="^query has no terms$"):
            trace_feature_tensors(batch, cache)


def test_trace_tensors_empty_trace(unit_testbed):
    cache = TermFeatureCache(unit_testbed.bank.stats_indexes)
    quality_t, latency_t = trace_feature_tensors([], cache)
    assert quality_t.shape == (0, cache.n_shards, 10)
    assert latency_t.shape == (0, cache.n_shards, 15)


# ---------------------------------------------------------------------------
# PredictorBank: batched plane vs the reference loop
# ---------------------------------------------------------------------------


def predict_loop(bank, query):
    """Reference per-shard/per-query inference (the pre-fusion path).

    The original 3 x n_shards single-row loop over each shard's own models
    and term statistics — the ground truth the fused plane is compared
    against.  Bypasses the bank's prediction cache.
    """
    predictions = []
    for sid, stats in enumerate(bank.stats_indexes):
        q_feat = quality_features(query.terms, stats)
        l_feat = latency_features(query.terms, stats)
        count_k, p_zero_k = bank.quality_k_models[sid].predict_with_zero_prob(q_feat)
        count_half, p_zero_half = bank.quality_half_models[
            sid
        ].predict_with_zero_prob(q_feat)
        service_ms = bank.latency_models[sid].predict_one_ms(l_feat)
        predictions.append(
            ISNPrediction(sid, count_k, count_half, service_ms, p_zero_k, p_zero_half)
        )
    return tuple(predictions)


def test_batch_predict_is_bit_identical_to_loop(unit_testbed):
    """Every distinct trace query, through both paths, field by field."""
    bank = unit_testbed.bank
    queries = list(
        {q.terms: q for q in unit_testbed.wikipedia_trace.queries}.values()
    )
    batched = bank.batch_predict(queries)
    for query, predictions in zip(queries, batched):
        reference = predict_loop(bank, query)
        assert predictions == reference  # frozen dataclasses: exact equality
        for pred in predictions:
            assert isinstance(pred.quality_k, int)
            assert isinstance(pred.service_default_ms, float)


def test_predict_matches_loop_on_edge_queries(unit_testbed):
    bank = unit_testbed.bank
    some_term = unit_testbed.wikipedia_trace.queries[0].terms[0]
    edge_queries = [
        Query(query_id=9001, terms=(OOV_TERMS[0],)),            # OOV only
        Query(query_id=9002, terms=(some_term,)),               # single term
        Query(query_id=9003, terms=(some_term, OOV_TERMS[1])),  # mixed
    ]
    for query in edge_queries:
        assert bank.predict(query) == predict_loop(bank, query)


def test_predict_returns_cached_immutable_tuple(unit_testbed):
    bank = unit_testbed.bank
    query = unit_testbed.wikipedia_trace.queries[0]
    first = bank.predict(query)
    assert isinstance(first, tuple)
    assert bank.predict(query) is first  # memoized per distinct query
    assert all(dataclasses.is_dataclass(p) for p in first)
    with pytest.raises(dataclasses.FrozenInstanceError):
        first[0].__class__.__setattr__(first[0], "quality_k", 0)


def test_prewarm_counts_and_changes_nothing(unit_testbed):
    bank = unit_testbed.bank
    queries = unit_testbed.wikipedia_trace.queries[:8]
    cold = [predict_loop(bank, q) for q in queries]
    # Evict these entries so prewarm has real work to do, then check it
    # reports the distinct-query count and reproduces the loop exactly.
    for q in queries:
        bank._prediction_cache.pop(q.terms, None)
    warmed = bank.prewarm(queries)
    assert warmed == len({q.terms for q in queries})
    assert bank.prewarm(queries) == 0  # everything already cached
    assert [bank.predict(q) for q in queries] == cold


def test_untrained_bank_rejects_batched_paths(shards):
    from repro.cluster import SearchCluster
    from repro.predictors import PredictorBank

    bank = PredictorBank(SearchCluster(shards))
    query = Query(query_id=1, terms=("t0",))
    with pytest.raises(RuntimeError):
        bank.batch_predict([query])
    with pytest.raises(RuntimeError):
        bank.fused_stacks()
    with pytest.raises(RuntimeError):
        predict_loop(bank, query)
