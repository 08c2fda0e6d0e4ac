"""Extension — ISN-side DVFS governors under Cottage budgets.

The paper's related work (Pegasus/TimeTrader/Rubik) manages frequency
*given* a deadline; Cottage supplies that deadline.  This bench closes the
loop: with Cottage's per-query budgets in place, a Rubik-style slack
governor runs each query at the lowest deadline-meeting frequency,
recovering additional power at equal quality — power savings the
boost-to-max scheme leaves on the table.

Pays for: EXPERIMENTS.md "Beyond the paper": "a further ~10-17%" (hand-run).
"""

from repro.cluster import AssignedFrequencyGovernor, RaceToIdleGovernor, SlackGovernor
from repro.metrics import summarize_run


def test_ext_governor(testbed):
    trace = testbed.wikipedia_trace
    truth = testbed.truth_for(trace)
    governors = {
        "assigned (paper)": AssignedFrequencyGovernor(),
        "slack (Rubik-style)": SlackGovernor(),
        "race-to-idle": RaceToIdleGovernor(),
    }
    rows = {}
    for name, governor in governors.items():
        run = testbed.cluster.run_trace(
            trace, testbed.make_policy("cottage"), governor=governor
        )
        rows[name] = summarize_run(run, truth, trace.name)

    print("\nExtension — frequency governors under Cottage budgets (wiki):")
    print("  governor              avg_ms   p95_ms   P@10   power_W")
    for name, s in rows.items():
        print(
            f"  {name:<21} {s.avg_latency_ms:6.2f}  {s.p95_latency_ms:7.2f}"
            f"  {s.avg_precision:.3f}  {s.avg_power_w:7.2f}"
        )
    assigned = rows["assigned (paper)"]
    slack = rows["slack (Rubik-style)"]
    race = rows["race-to-idle"]
    # Slack governor: less power, comparable quality.
    assert slack.avg_power_w < assigned.avg_power_w
    assert slack.avg_precision >= assigned.avg_precision - 0.05
    # Race-to-idle: fastest, most power-hungry of the three.
    assert race.avg_latency_ms <= assigned.avg_latency_ms + 0.5
    assert race.avg_power_w >= slack.avg_power_w
