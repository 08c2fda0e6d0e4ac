"""Cross-commit pins for the serving plane's arrivals, deadline rule and sweep.

``tests/test_event_loop_identity.py`` pins bursty arrivals through the
in-flight cap only.  These pins cover the rest of what ``repro serve``
runs: the first 2 000 instants of every arrival kind ``make_arrivals``
builds, one unit-scale ``serve`` whose deadline rule sheds some queries
but not all (so the EWMA service estimate and its seed decide which),
and one ``run_campaign`` snapshot on the default grid of saturation
fractions.  Every constant below was captured on the commit before the
serving plane's unused knobs were removed, by running this file as a
script there::

    PYTHONPATH=src python tests/test_serving_pins.py

Regenerate the same way, on the commit before the change under test,
whenever a change moves simulated serving behaviour on purpose.  The
runs use the exhaustive policy, so they do not depend on the trained
predictor bank.
"""

from __future__ import annotations

import hashlib
import itertools
import json

import pytest

from repro.serving import (
    AdmissionConfig,
    AdmissionController,
    CampaignConfig,
    QueryStream,
    make_arrivals,
    pool_from_corpus,
    run_campaign,
)
from repro.serving.arrivals import ARRIVAL_KINDS

ARRIVAL_RATE_QPS = 150.0
ARRIVAL_SEED = 3
ARRIVAL_INSTANTS = 2000

#: kind -> sha-256 of the first ``ARRIVAL_INSTANTS`` instants' reprs
ARRIVALS: dict[str, str] = {
    "poisson": "41a5882ca674a8f47e670612f4ddc528f74a78499dcd7bfb968f7544e669d912",
    "diurnal": "af0c060957f449cec0e0837b7bfe84fd8f1c479ee2f82138eca26d06cde7b01a",
    "burst": "0559ad7ae033bbd913453be9726bd4fcb0986afb7ea3c9e81916f5c9fa4ab622",
}

SERVE_QUERIES = 400
SERVE_SLO_MS = 8.0

#: (shed_deadline, completed, events_processed, digest)
SERVE_DEADLINE: tuple[int, int, int, str] = (
    190, 210, 5440,
    "ff851f54e5efc9ebf5537d740b80c4c7d8c6c23ecf48e1e34cc2734f39fef70a",
)

CAMPAIGN_QUERIES_PER_POINT = 400

#: (total_queries, sha-256 of the snapshot's sorted-key JSON).  Re-pinned
#: when the knee moved onto the busiest core's utilization: against the
#: capture, only ``knee.knee_qps``, ``knee_ratio`` and ``measured_knee_qps``
#: changed (173.11 -> 171.79 qps); every point and the model are equal.
CAMPAIGN: tuple[int, str] = (
    2800, "90c5a1dd8e371200056f9a837f53bdcb2d7fdb8c49dada2a86261d06478a6de9",
)


def _sha(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def arrival_digest(kind: str) -> str:
    process = make_arrivals(kind, ARRIVAL_RATE_QPS, seed=ARRIVAL_SEED)
    instants = itertools.islice(process.times(), ARRIVAL_INSTANTS)
    return _sha("\n".join(repr(t) for t in instants))


def serve_deadline_case(testbed) -> tuple[int, int, int, str]:
    """Poisson arrivals through the deadline rule alone, every record kept."""
    stream = QueryStream(
        pool_from_corpus(testbed.corpus, n_distinct=40),
        make_arrivals("poisson", ARRIVAL_RATE_QPS, seed=ARRIVAL_SEED),
        seed=ARRIVAL_SEED,
        max_queries=SERVE_QUERIES,
    )
    run = testbed.cluster.serve(
        stream,
        testbed.make_policy("exhaustive"),
        admission=AdmissionController(AdmissionConfig(deadline_slo_ms=SERVE_SLO_MS)),
        retain_records=True,
    )
    lines = [
        repr(run.power),
        f"{run.offered_queries},{run.admitted_queries},{run.shed_queue_depth},"
        f"{run.shed_deadline},{run.elapsed_ms!r},{run.total_service_ms!r}",
    ]
    for record in run.records:
        outcomes = ";".join(
            f"{o.shard_id}.{o.service_ms!r}.{o.queued_ms!r}.{o.counted:d}"
            for o in record.outcomes
        )
        lines.append(
            f"{record.query.query_id}|{record.shed:d}|{record.latency_ms!r}|"
            f"{record.result.fingerprint()}|{outcomes}"
        )
    return (
        run.shed_deadline,
        run.completed_queries,
        run.events_processed,
        _sha("\n".join(lines)),
    )


def campaign_case(testbed) -> tuple[int, str]:
    """The default grid: fractions of the model's predicted saturation."""
    result = run_campaign(
        testbed.cluster,
        lambda: testbed.make_policy("exhaustive"),
        pool_from_corpus(testbed.corpus, n_distinct=40),
        CampaignConfig(queries_per_point=CAMPAIGN_QUERIES_PER_POINT),
    )
    return result.total_queries, _sha(json.dumps(result.snapshot(), sort_keys=True))


@pytest.mark.parametrize("kind", sorted(ARRIVALS))
def test_arrival_instants_match_capture(kind):
    assert arrival_digest(kind) == ARRIVALS[kind]


def test_every_arrival_kind_is_pinned():
    assert sorted(ARRIVALS) == sorted(ARRIVAL_KINDS)


def test_deadline_serve_matches_capture(unit_testbed):
    shed, completed, events, digest = serve_deadline_case(unit_testbed)
    # Not vacuous: the rule sheds some queries and admits others.
    assert 0 < shed < SERVE_QUERIES and completed == SERVE_QUERIES - shed
    assert (shed, completed, events, digest) == SERVE_DEADLINE


def test_default_grid_campaign_matches_capture(unit_testbed):
    assert campaign_case(unit_testbed) == CAMPAIGN


if __name__ == "__main__":  # capture mode: print the constants above
    from repro.experiments import Scale, Testbed

    print("ARRIVALS = {")
    for name in ARRIVAL_KINDS:
        print(f'    "{name}": "{arrival_digest(name)}",')
    print("}")
    bed = Testbed.build(Scale.unit())
    print(f"SERVE_DEADLINE = {serve_deadline_case(bed)!r}")
    print(f"CAMPAIGN = {campaign_case(bed)!r}")
