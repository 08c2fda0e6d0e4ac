"""Extension — Cottage + PowerNap-style sleep states.

The paper's Fig. 14 power savings come from touching fewer ISNs; the
sleep-state literature it cites (PowerNap, DreamWeaver) saves on the ISNs
left idle.  Composing the two: under Cottage, the ~9 of 16 ISNs a query
skips accumulate real idle stretches that naps convert into energy — the
composition the paper's energy argument implies but does not evaluate.

Pays for: EXPERIMENTS.md "Beyond the paper": "a ~0.03-0.05 P@10 dip" (hand-run).
"""

from repro.cluster import SleepPolicy
from repro.metrics import summarize_run


def test_ext_sleep(testbed):
    trace = testbed.wikipedia_trace
    truth = testbed.truth_for(trace)
    sleep = SleepPolicy(nap_after_ms=20.0, wake_ms=1.0)

    rows = {}
    for name, kwargs in (
        ("exhaustive", {}),
        ("exhaustive+nap", {"sleep": sleep}),
        ("cottage", {}),
        ("cottage+nap", {"sleep": sleep}),
    ):
        policy = testbed.make_policy(name.split("+")[0])
        run = testbed.cluster.run_trace(trace, policy, **kwargs)
        rows[name] = summarize_run(run, truth, trace.name)

    print("\nExtension — sleep states composed with selection (wiki):")
    print("  scheme           avg_ms   P@10   power_W")
    for name, s in rows.items():
        print(
            f"  {name:<16} {s.avg_latency_ms:6.2f}  {s.avg_precision:.3f}"
            f"  {s.avg_power_w:7.2f}"
        )
    # Naps save power for both policies at a bounded latency cost.
    assert rows["cottage+nap"].avg_power_w < rows["cottage"].avg_power_w
    assert (
        rows["exhaustive+nap"].avg_power_w < rows["exhaustive"].avg_power_w + 0.1
    )
    assert (
        rows["cottage+nap"].avg_latency_ms
        < rows["cottage"].avg_latency_ms + 3.0
    )
    assert rows["cottage+nap"].avg_precision >= rows["cottage"].avg_precision - 0.05