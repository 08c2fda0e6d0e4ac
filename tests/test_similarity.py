"""Unit + property tests for ranking functions."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.scoring import BM25Similarity, LMDirichletSimilarity, TFIDFSimilarity

SIMS = [BM25Similarity(), TFIDFSimilarity(), LMDirichletSimilarity()]


class TestBM25:
    def test_score_increases_with_tf(self):
        sim = BM25Similarity()
        scores = sim.scores(np.array([1, 2, 5]), np.array([100, 100, 100]), 10, 1000, 100)
        assert scores[0] < scores[1] < scores[2]

    def test_score_decreases_with_doc_length(self):
        sim = BM25Similarity()
        scores = sim.scores(np.array([3, 3]), np.array([50, 500]), 10, 1000, 100)
        assert scores[0] > scores[1]

    def test_rare_terms_score_higher(self):
        sim = BM25Similarity()
        rare = sim.scores(np.array([2]), np.array([100]), 2, 1000, 100)
        common = sim.scores(np.array([2]), np.array([100]), 500, 1000, 100)
        assert rare[0] > common[0]

    def test_idf_positive_even_for_ubiquitous_terms(self):
        assert BM25Similarity().idf(1000, 1000) > 0

    def test_parameter_validation(self):
        with pytest.raises(ValueError):
            BM25Similarity(k1=-1)
        with pytest.raises(ValueError):
            BM25Similarity(b=1.5)


class TestLMDirichlet:
    def test_non_negative(self):
        sim = LMDirichletSimilarity()
        scores = sim.scores(np.array([1, 10]), np.array([100, 100]), 5, 1000, 100)
        assert (scores >= 0).all()

    def test_mu_validation(self):
        with pytest.raises(ValueError):
            LMDirichletSimilarity(mu=0)


class TestTFIDF:
    def test_sublinear_tf(self):
        sim = TFIDFSimilarity()
        scores = sim.scores(np.array([1, 2, 3]), np.array([100] * 3), 10, 1000, 100)
        # Unit tf increments add less and less score (1 + log tf).
        assert scores[1] - scores[0] > scores[2] - scores[1]


@pytest.mark.parametrize("sim", SIMS, ids=lambda s: type(s).__name__)
@settings(max_examples=150, deadline=None)
@given(
    tf=st.integers(1, 40),
    max_tf=st.integers(1, 40),
    dl=st.integers(1, 2000),
    df=st.integers(1, 900),
)
def test_upper_bound_is_admissible(sim, tf, max_tf, dl, df):
    """No posting with tf <= max_tf may out-score the analytic bound —
    the property MaxScore correctness rests on."""
    tf = min(tf, max_tf)
    n_docs, avg_dl = 1000, 120.0
    score = sim.scores(np.array([tf]), np.array([dl], dtype=float), df, n_docs, avg_dl)[0]
    bound = sim.upper_bound(max_tf, df, n_docs, avg_dl)
    assert score <= bound + 1e-9


@pytest.mark.parametrize("sim", SIMS, ids=lambda s: type(s).__name__)
def test_vectorized_matches_scalar_loop(sim):
    tfs = np.array([1, 3, 7, 2])
    dls = np.array([40.0, 90.0, 300.0, 10.0])
    batch = sim.scores(tfs, dls, 25, 500, 80.0)
    single = [
        sim.scores(np.array([tf]), np.array([dl]), 25, 500, 80.0)[0]
        for tf, dl in zip(tfs, dls)
    ]
    np.testing.assert_allclose(batch, single)
