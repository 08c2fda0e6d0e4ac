"""The aggregator's per-run merge memo.

A finalize whose responses are the same result objects as the last merge
of its term tuple reuses that merge.  The memo must be invisible: every
record's merged answer equals a fresh ``merge_results`` over the query's
counted responses, with or without hedges, and no run inherits another's
entries.
"""

import pytest

import repro.cluster.aggregator as aggregator_module
from repro.experiments.scenarios import ScenarioContext, scenario_schedule
from repro.retrieval.result import merge_results


def fresh_merge(cluster, record):
    """``merge_results`` over the record's counted responses, recomputed."""
    searchers = cluster.searcher.searchers
    responses = [
        searchers[outcome.shard_id].search(record.query)
        for outcome in record.outcomes
        if outcome.counted
    ]
    return merge_results(responses, cluster.k)


def assert_merges_fresh(cluster, run):
    for record in run.records:
        assert record.result.fingerprint() == fresh_merge(cluster, record).fingerprint()


@pytest.fixture
def merge_calls(monkeypatch):
    """Count the merges the aggregator actually computes."""
    calls = []

    def counting(responses, k):
        calls.append(len(responses))
        return merge_results(responses, k)

    monkeypatch.setattr(aggregator_module, "merge_results", counting)
    return calls


@pytest.mark.parametrize("trace_name", ["wikipedia", "lucene"])
def test_memoized_merge_equals_fresh_merge(unit_testbed, merge_calls, trace_name):
    trace = getattr(unit_testbed, f"{trace_name}_trace")
    cluster = unit_testbed.cluster
    run = cluster.run_trace(trace, unit_testbed.make_policy("cottage"))
    assert_merges_fresh(cluster, run)
    # Repeated queries reuse merges: fewer merges than finalized queries.
    finalized = sum(1 for record in run.records if record.decision.shard_ids)
    assert 0 < len(merge_calls) < finalized


def test_each_run_starts_with_an_empty_memo(unit_testbed, merge_calls):
    trace = unit_testbed.wikipedia_trace
    cluster = unit_testbed.cluster
    cluster.run_trace(trace, unit_testbed.make_policy("cottage"))
    first = len(merge_calls)
    cluster.run_trace(trace, unit_testbed.make_policy("cottage"))
    # A memo carried over would let the second run skip merges.
    assert len(merge_calls) == 2 * first


def test_hedge_won_responses_merge_like_primaries(unit_testbed, merge_calls):
    """Replica 0 of shard 0 is 20x slow, so replica 1 wins its hedges."""
    trace = unit_testbed.wikipedia_trace
    cluster = unit_testbed.cluster
    faults = scenario_schedule(
        "slow_replica",
        ScenarioContext(
            n_shards=cluster.n_shards, n_replicas=2,
            horizon_ms=trace.duration * 1000.0, seed=0,
        ),
    )
    run = cluster.run_trace(
        trace, unit_testbed.make_policy("cottage"), faults=faults, n_replicas=2
    )
    hedge_won = [
        record for record in run.records
        if any(o.counted and o.replica_id == 1 for o in record.outcomes)
    ]
    assert run.hedge_wins > 0 and hedge_won
    assert_merges_fresh(cluster, run)
    # Both replicas answer from the shard's one memoized searcher, so a
    # hedge winner's response is the primary's object: hedge-won arrivals
    # of a repeated query still reuse merges.
    assert len(merge_calls) < len(run.records)
