"""The oracle traversal sweep: determinism, rank-safety, summary, CLI.

``experiments/oracle_sweep.py`` is a stand-alone experiment — it calls
the ``STRATEGIES`` callables directly and reports the fan-out latency a
static traversal leaves on the table versus the per-shard oracle.  Its
``same_topk`` predicate is also the repo benchmark's rank-equality
check, so the contract is pinned here as a predicate, not just through
the sweep.
"""

from __future__ import annotations

import json

import numpy as np
import pytest

from repro.cli import main
from repro.experiments.oracle_sweep import (
    SAFE_STRATEGIES,
    SCORE_ATOL,
    build_corpus,
    sample_queries,
    same_topk,
    summarize,
    sweep,
)

N_SHARDS = 3
DOCS_PER_SHARD = 100
VOCAB_SIZE = 60
N_QUERIES = 40
K = 5
SEED = 11


def run_sweep():
    return sweep(
        build_corpus(N_SHARDS, DOCS_PER_SHARD, VOCAB_SIZE, SEED),
        sample_queries(N_QUERIES, VOCAB_SIZE, SEED),
        k=K,
    )


@pytest.fixture(scope="module")
def dataset():
    return run_sweep()


class TestSweep:
    def test_same_seed_reproduces_modeled_measurements(self, dataset):
        """Everything but the host wall-clock is a function of the seed."""
        again = run_sweep()
        assert again.term_tuples == dataset.term_tuples
        assert again.combos == dataset.combos
        for column in (
            "service_ms", "docs_evaluated", "postings_scored", "postings_skipped"
        ):
            np.testing.assert_array_equal(
                getattr(again, column), getattr(dataset, column)
            )

    def test_safe_strategies_agree_on_every_topk(self, dataset):
        assert dataset.rank_safe is True
        assert dataset.safe_service_ms().shape == (
            N_QUERIES, N_SHARDS, len(SAFE_STRATEGIES)
        )


class TestSameTopk:
    REFERENCE = [(4, 3.0), (7, 2.0), (9, 2.0), (1, 1.0)]

    def test_accepts_permutation_inside_a_score_tie(self):
        swapped = [(4, 3.0), (9, 2.0), (7, 2.0), (1, 1.0)]
        assert same_topk(self.REFERENCE, swapped)

    def test_accepts_drift_within_tolerance(self):
        drifted = [(doc, score + SCORE_ATOL / 2) for doc, score in self.REFERENCE]
        assert same_topk(self.REFERENCE, drifted)

    def test_rejects_length_mismatch(self):
        assert not same_topk(self.REFERENCE, self.REFERENCE[:-1])

    def test_rejects_score_drift_above_tolerance(self):
        drifted = [(4, 3.0 + 10 * SCORE_ATOL)] + self.REFERENCE[1:]
        assert not same_topk(self.REFERENCE, drifted)

    def test_rejects_swap_across_distinct_scores(self):
        # Scores line up position by position, but the documents holding
        # them traded places across a score boundary.
        swapped = [(7, 3.0), (4, 2.0), (9, 2.0), (1, 1.0)]
        assert not same_topk(self.REFERENCE, swapped)


class TestSummary:
    def test_oracle_bounds_the_best_static_arm(self, dataset):
        summary = summarize(dataset)
        assert summary.best_static in SAFE_STRATEGIES
        assert summary.oracle_mean_ms <= summary.best_static_mean_ms
        assert summary.oracle_gap_ms >= 0.0
        assert summary.rank_safe is True

    def test_every_query_has_one_fanout_winner(self, dataset):
        summary = summarize(dataset)
        assert set(summary.win_counts) == set(SAFE_STRATEGIES)
        assert sum(summary.win_counts.values()) == summary.n_queries == N_QUERIES


class TestCli:
    def test_select_sweep_writes_summary(self, tmp_path, capsys):
        out = tmp_path / "f.json"
        assert main(["select", "sweep", "--n-queries", "20", "--out", str(out)]) == 0
        assert "oracle traversal sweep (20 queries" in capsys.readouterr().out
        payload = json.loads(out.read_text())
        assert payload["n_queries"] == 20
        assert payload["rank_safe"] is True
        assert payload["oracle_mean_ms"] <= payload["static_mean_ms"][
            payload["best_static"]
        ]
