"""Tables I and II — the predictor feature vectors for an example query.

The paper's tables show the feature values for "Tokyo" (quality) and
"Toyota" (latency).  The harness extracts both vectors for a hot topical
term of the synthetic corpus, demonstrating the same feature pipeline.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.experiments.testbed import Testbed
from repro.predictors.features import TermFeatureCache, feature_table


@dataclass(frozen=True)
class FeatureTablesResult:
    query_terms: tuple[str, ...]
    shard_id: int
    quality_table: list[tuple[str, float]]
    latency_table: list[tuple[str, float]]


def run(testbed: Testbed, shard_id: int = 0) -> FeatureTablesResult:
    # Hottest term on the shard = the "Tokyo"/"Toyota" example.
    shard = testbed.cluster.shards[shard_id]
    best_term, best_len = None, 0
    for query in {q.terms: q for q in testbed.wikipedia_trace}.values():
        for term in query.terms:
            if shard.doc_freq(term) > best_len:
                best_term, best_len = term, shard.doc_freq(term)
    assert best_term is not None
    terms = (best_term,)
    quality_table, latency_table = feature_table(
        terms, TermFeatureCache(testbed.bank.stats_indexes), shard_id
    )
    return FeatureTablesResult(
        query_terms=terms,
        shard_id=shard_id,
        quality_table=quality_table,
        latency_table=latency_table,
    )


def format_report(result: FeatureTablesResult) -> str:
    lines = [
        f"Tables I & II — features for query {' '.join(result.query_terms)!r} "
        f"on ISN-{result.shard_id}",
        "Table I (quality prediction):",
    ]
    for name, value in result.quality_table:
        lines.append(f"  {name:<36} {value:12.4f}")
    lines.append("Table II (latency prediction):")
    for name, value in result.latency_table:
        lines.append(f"  {name:<36} {value:12.4f}")
    return "\n".join(lines)
