"""Algorithm 1 walkthrough — the paper's Fig. 9, live.

Builds a trained testbed, takes one trace query, and narrates the
coordinated decision: the per-ISN <Q^K, Q^{K/2}, L_current, L_boosted>
reports, the stage-1 and stage-2 cuts, the chosen time budget, and which
ISNs boost their CPU frequency to meet it.

    python examples/budget_walkthrough.py
"""

import os
import sys

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

from repro.cluster.types import ClusterView
from repro.core import CottagePolicy, determine_time_budget
from repro.core.cottage import BOOST_MARGIN
from repro.experiments import Scale, Testbed


def main() -> None:
    testbed = Testbed.build(Scale.unit())
    policy = CottagePolicy(testbed.bank, network=testbed.cluster.network)
    n = testbed.cluster.n_shards
    view = ClusterView(
        now_ms=0.0,
        n_shards=n,
        default_freq_ghz=testbed.cluster.freq_scale.default_ghz,
        max_freq_ghz=testbed.cluster.freq_scale.max_ghz,
        queued_predicted_ms=tuple(0.0 for _ in range(n)),
    )

    # Pick the first query where both cut stages fire.
    chosen = None
    for query in {q.terms: q for q in testbed.wikipedia_trace}.values():
        inputs = policy.budget_inputs(query, view)
        decision = determine_time_budget(inputs, boost_margin=BOOST_MARGIN)
        if decision.cut_zero_quality and decision.selected:
            chosen = (query, inputs, decision)
            if decision.cut_too_slow or decision.boosted:
                break
    assert chosen is not None
    query, inputs, decision = chosen

    print(f"query: {' '.join(query.terms)}")
    print("\nstep 1-3: every ISN reports its predictions")
    print(" ISN   Q^K  Q^K/2  L_current(ms)  L_boosted(ms)")
    for isn in inputs:
        print(
            f"  {isn.shard_id:<4d} {isn.quality_k:4d} {isn.quality_half_k:6d}"
            f" {isn.latency_current_ms:13.2f} {isn.latency_boosted_ms:14.2f}"
        )

    print("\nstep 4: the aggregator runs Algorithm 1")
    print(f"  stage 1 cuts (Q^K = 0):          {list(decision.cut_zero_quality)}")
    print(f"  stage 2 cuts (slow, Q^K/2 = 0):  {list(decision.cut_too_slow)}")
    print(f"  selected ISNs:                   {list(decision.selected)}")
    print(f"  time budget:                     {decision.time_budget_ms:.2f} ms")

    print("\nstep 5-6: budget broadcast; slow contributors boost to "
          f"{testbed.cluster.freq_scale.max_ghz} GHz")
    print(f"  boosted ISNs: {list(decision.boosted)}")

    final = policy.decide(query, view)
    print(
        f"\nfinal decision: {len(final.shard_ids)}/{n} ISNs, budget "
        f"{final.time_budget_ms:.2f} ms (includes x{policy.budget_slack} "
        f"prediction slack), coordination overhead "
        f"{final.coordination_delay_ms:.3f} ms"
    )


if __name__ == "__main__":
    main()
