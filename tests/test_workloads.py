"""Unit tests for synthetic corpus and trace generation."""

import numpy as np
import pytest

from repro.workloads import (
    CorpusConfig,
    SyntheticCorpus,
    TraceConfig,
    build_query_pool,
    generate_trace,
    term_token,
    training_queries,
)


class TestCorpusConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            CorpusConfig(n_docs=0)
        with pytest.raises(ValueError):
            CorpusConfig(topic_weight=1.5)
        with pytest.raises(ValueError):
            CorpusConfig(n_topics=100, topic_core_size=1000, vocab_size=2000)


class TestSyntheticCorpus:
    def test_deterministic(self, tiny_corpus):
        again = SyntheticCorpus(tiny_corpus.config)
        assert again.documents[5].text == tiny_corpus.documents[5].text

    def test_doc_count_and_ids(self, tiny_corpus):
        assert len(tiny_corpus) == tiny_corpus.config.n_docs
        assert [d.doc_id for d in tiny_corpus.documents] == list(
            range(tiny_corpus.config.n_docs)
        )

    def test_topics_assigned(self, tiny_corpus):
        topics = {d.topic for d in tiny_corpus.documents}
        assert topics <= set(range(tiny_corpus.config.n_topics))
        assert len(topics) > 1

    def test_topic_cores_disjoint(self, tiny_corpus):
        seen = set()
        for core in tiny_corpus.topic_cores:
            assert not (set(core.tolist()) & seen)
            seen.update(core.tolist())

    def test_zipf_head_is_frequent(self, tiny_corpus):
        from collections import Counter

        counts = Counter()
        for doc in tiny_corpus.documents[:100]:
            counts.update(doc.text.split())
        # The most frequent term is far more common than a mid-rank term.
        hot = counts[term_token(0)] if term_token(0) in counts else 0
        mid = counts.get(term_token(500), 0)
        assert hot > mid

    def test_topic_terms_concentrated(self, tiny_corpus):
        rng = np.random.default_rng(0)
        topic = 0
        term_ids = tiny_corpus.sample_topic_terms(topic, 3, rng)
        tokens = {term_token(t) for t in term_ids}
        in_topic = sum(
            1
            for d in tiny_corpus.documents
            if d.topic == topic and tokens & set(d.text.split())
        )
        out_topic = sum(
            1
            for d in tiny_corpus.documents
            if d.topic != topic and tokens & set(d.text.split())
        )
        n_in = sum(1 for d in tiny_corpus.documents if d.topic == topic)
        n_out = len(tiny_corpus.documents) - n_in
        assert in_topic / max(n_in, 1) > out_topic / max(n_out, 1)

    def test_sample_common_terms_are_hot(self, tiny_corpus):
        rng = np.random.default_rng(0)
        common = tiny_corpus.sample_common_terms(2, rng)
        background = tiny_corpus.sample_background_terms(2, rng)
        assert min(common) < tiny_corpus.config.vocab_size // 10
        assert all(isinstance(t, int) for t in common + background)

    def test_sample_too_many_core_terms_rejected(self, tiny_corpus):
        rng = np.random.default_rng(0)
        with pytest.raises(ValueError):
            tiny_corpus.sample_topic_terms(0, 10_000, rng)


class TestTraces:
    def test_trace_config_validation(self):
        with pytest.raises(ValueError):
            TraceConfig(flavour="bing")
        with pytest.raises(ValueError):
            TraceConfig(duration_s=0)

    def test_pool_distinct_and_sized(self, tiny_corpus):
        config = TraceConfig(n_distinct_queries=40, seed=3)
        pool = build_query_pool(tiny_corpus, config)
        assert len(pool) == 40
        assert len(set(pool)) == 40

    def test_trace_arrivals_sorted_and_bounded(self, tiny_corpus):
        trace = generate_trace(
            tiny_corpus, TraceConfig(duration_s=5.0, arrival_rate_qps=30.0)
        )
        arrivals = [q.arrival_time for q in trace]
        assert arrivals == sorted(arrivals)
        assert arrivals[-1] <= 5.0
        # Poisson at 30 qps for 5 s: ~150 queries.
        assert 80 <= len(trace) <= 250

    def test_trace_reuses_pool_queries(self, tiny_corpus):
        trace = generate_trace(
            tiny_corpus,
            TraceConfig(duration_s=10.0, arrival_rate_qps=30.0, n_distinct_queries=10),
        )
        assert len({q.terms for q in trace}) <= 10

    def test_query_ids_sequential(self, tiny_corpus):
        trace = generate_trace(tiny_corpus, TraceConfig(duration_s=2.0))
        assert [q.query_id for q in trace] == list(range(len(trace)))

    def test_deterministic_by_seed(self, tiny_corpus):
        config = TraceConfig(duration_s=3.0, seed=9)
        a = generate_trace(tiny_corpus, config)
        b = generate_trace(tiny_corpus, config)
        assert [q.terms for q in a] == [q.terms for q in b]

    def test_lucene_queries_longer_on_average(self, tiny_corpus):
        wiki = build_query_pool(
            tiny_corpus, TraceConfig(flavour="wikipedia", n_distinct_queries=150)
        )
        lucene = build_query_pool(
            tiny_corpus, TraceConfig(flavour="lucene", n_distinct_queries=150)
        )
        assert np.mean([len(t) for t in lucene]) > np.mean([len(t) for t in wiki])

    def test_training_queries_distinct_from_trace(self, tiny_corpus):
        train = training_queries(tiny_corpus, 30, seed=101)
        assert len(train) == 30
        assert len({q.terms for q in train}) == 30
