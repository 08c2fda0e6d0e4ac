"""Fig. 6 — score histogram vs fitted Gamma.

The motivation for Cottage's NN quality predictor: a query's document-score
histogram on one ISN is not a clean Gamma, so Taily's Gamma tail estimate
P(X > Kth score) deviates from the truth and mis-sizes shard contributions.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.experiments.testbed import Testbed
from repro.retrieval.exhaustive import exhaustive_search
from repro.scoring.distributions import (
    expected_above,
    fit_gamma_moments,
    histogram_tail_count,
    score_histogram,
)


@dataclass(frozen=True)
class ScoreDistributionResult:
    query_terms: tuple[str, ...]
    shard_id: int
    histogram: list[tuple[float, float, int]]
    kth_score: float
    true_above_kth: int
    gamma_above_kth: float
    relative_error: float


def run(testbed: Testbed, shard_id: int = 0) -> ScoreDistributionResult:
    # Use the busiest single-term topical query on the shard so the
    # histogram has body (single term = the per-term fit Taily stores).
    trace = testbed.wikipedia_trace
    shard = testbed.cluster.shards[shard_id]
    stats_index = testbed.bank.stats_indexes[shard_id]
    best_term, best_len = None, 0
    for query in {q.terms: q for q in trace}.values():
        for term in query.terms:
            if shard.doc_freq(term) > best_len:
                best_term, best_len = term, shard.doc_freq(term)
    assert best_term is not None

    scores = np.asarray(shard.scores(best_term), dtype=float)
    counts, edges = score_histogram(scores, bins=20)
    histogram = [
        (float(edges[i]), float(edges[i + 1]), int(counts[i]))
        for i in range(len(counts))
    ]

    k = testbed.cluster.k
    result = exhaustive_search(shard, [best_term], k)
    kth = result.hits[-1][1] if len(result.hits) >= k else 0.0

    stats = stats_index.get(best_term)
    shape, scale = fit_gamma_moments(stats.mean, stats.variance)
    gamma_above = float(expected_above(shape, scale, stats.posting_length, kth))
    true_above = histogram_tail_count(scores, kth)
    error = abs(gamma_above - true_above) / max(true_above, 1)
    return ScoreDistributionResult(
        query_terms=(best_term,),
        shard_id=shard_id,
        histogram=histogram,
        kth_score=kth,
        true_above_kth=true_above,
        gamma_above_kth=gamma_above,
        relative_error=error,
    )


def format_report(result: ScoreDistributionResult) -> str:
    lines = [
        f"Fig. 6 — score distribution of {result.query_terms[0]!r} on "
        f"ISN-{result.shard_id}",
    ]
    peak = max((count for _, _, count in result.histogram), default=1)
    for lo, hi, count in result.histogram:
        bar = "#" * int(40 * count / max(peak, 1))
        lines.append(f"  [{lo:6.2f},{hi:6.2f})  {count:5d}  {bar}")
    lines.append(
        f"  docs above K-th score ({result.kth_score:.2f}): "
        f"true={result.true_above_kth}  gamma-fit={result.gamma_above_kth:.2f}  "
        f"relative error={result.relative_error:.1%}"
    )
    lines.append(
        "  (the Gamma tail mismatch is the paper's motivation for an NN "
        "quality predictor)"
    )
    return "\n".join(lines)
