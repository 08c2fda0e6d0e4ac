"""Unit + property tests for the ranking function, BM25."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.scoring import B, K1, BM25Similarity


class TestBM25:
    def test_score_increases_with_tf(self):
        scores = BM25Similarity.scores(
            np.array([1, 2, 5]), np.array([100, 100, 100]), 10, 1000, 100
        )
        assert scores[0] < scores[1] < scores[2]

    def test_score_decreases_with_doc_length(self):
        scores = BM25Similarity.scores(
            np.array([3, 3]), np.array([50, 500]), 10, 1000, 100
        )
        assert scores[0] > scores[1]

    def test_rare_terms_score_higher(self):
        rare = BM25Similarity.scores(np.array([2]), np.array([100]), 2, 1000, 100)
        common = BM25Similarity.scores(np.array([2]), np.array([100]), 500, 1000, 100)
        assert rare[0] > common[0]

    def test_idf_positive_even_for_ubiquitous_terms(self):
        assert BM25Similarity.idf(1000, 1000) > 0

    def test_parameters_are_the_tuned_constants(self):
        """Every stored score and every ``.store`` record is BM25 at these."""
        assert (K1, B) == (0.9, 0.4)
        tf, dl, avg = 3.0, 200.0, 100.0
        norm = 0.9 * (1.0 - 0.4 + 0.4 * dl / avg)
        want = BM25Similarity.idf(10, 1000) * tf * 1.9 / (tf + norm)
        got = BM25Similarity.scores(np.array([tf]), np.array([dl]), 10, 1000, avg)
        assert got.tolist() == [want]


@settings(max_examples=150, deadline=None)
@given(
    tf=st.integers(1, 40),
    max_tf=st.integers(1, 40),
    dl=st.integers(1, 2000),
    df=st.integers(1, 900),
)
def test_upper_bound_is_admissible(tf, max_tf, dl, df):
    """No posting with tf <= max_tf may out-score the analytic bound —
    the property MaxScore correctness rests on."""
    tf = min(tf, max_tf)
    n_docs, avg_dl = 1000, 120.0
    score = BM25Similarity.scores(
        np.array([tf]), np.array([dl], dtype=float), df, n_docs, avg_dl
    )[0]
    bound = BM25Similarity.upper_bound(max_tf, df, n_docs, avg_dl)
    assert score <= bound + 1e-9


def test_vectorized_matches_scalar_loop():
    tfs = np.array([1, 3, 7, 2])
    dls = np.array([40.0, 90.0, 300.0, 10.0])
    batch = BM25Similarity.scores(tfs, dls, 25, 500, 80.0)
    single = [
        BM25Similarity.scores(np.array([tf]), np.array([dl]), 25, 500, 80.0)[0]
        for tf, dl in zip(tfs, dls)
    ]
    np.testing.assert_allclose(batch, single)
