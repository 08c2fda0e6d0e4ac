"""Extension — graceful degradation under ISN failures.

Kills a quarter of the ISNs mid-trace and compares exhaustive search
(saved only by an aggregator safety timeout) against Cottage (whose
per-query budgets bound the damage natively).  Budgets turn a dead node
into an ordinary straggler — latency stays low and quality degrades only
by the dead shards' contributions.

Pays for: EXPERIMENTS.md "Beyond the paper": the "Fault injection" bullet (hand-run).
"""

import numpy as np

from repro.cluster import FaultSchedule, Outage
from repro.metrics import summarize_run


def test_ext_fault_injection(testbed):
    trace = testbed.wikipedia_trace
    truth = testbed.truth_for(trace)
    half = trace.duration * 1000.0 / 2
    dead = list(range(0, testbed.cluster.n_shards, 4))  # every 4th ISN
    faults = FaultSchedule(
        outages=[Outage(sid, half, 1e12) for sid in dead]
    )

    runs = {
        "exhaustive+timeout": testbed.cluster.run_trace(
            trace, testbed.make_policy("exhaustive"),
            faults=faults, response_timeout_ms=150.0,
        ),
        "cottage": testbed.cluster.run_trace(
            trace, testbed.make_policy("cottage"), faults=faults
        ),
    }

    print(f"\nExtension — fault injection (ISNs {dead} die at mid-trace):")
    rows = {}
    for name, run in runs.items():
        summary = summarize_run(run, truth, trace.name)
        before = [r for r in run.records if r.arrival_ms < half]
        after = [r for r in run.records if r.arrival_ms >= half]
        lat_before = float(np.mean([r.latency_ms for r in before]))
        lat_after = float(np.mean([r.latency_ms for r in after]))
        p_after = float(np.mean([
            truth.precision(r.query, r.result.doc_ids()) for r in after
        ]))
        rows[name] = (lat_before, lat_after, p_after)
        print(
            f"  {name:<20} latency before/after: {lat_before:6.2f} / "
            f"{lat_after:6.2f} ms   P@10 after: {p_after:.3f}"
        )

    ex_before, ex_after, ex_p = rows["exhaustive+timeout"]
    co_before, co_after, co_p = rows["cottage"]
    # Exhaustive pays the full safety timeout on every post-failure query
    # that touches a dead shard; Cottage's budgets stay query-sized.
    assert co_after < ex_after
    # Both keep answering with useful (if partial) results.
    assert ex_p > 0.4 and co_p > 0.4
