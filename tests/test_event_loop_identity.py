"""Cross-commit identity oracle for the simulated event loop.

The bit-identity suites elsewhere (``test_replication``,
``test_serving_plane``, ``test_telemetry_integration``, the bench's
``replay_identity`` check) compare two runs of the *same* code, so a
refactor that changes both sides passes them.  This module pins what the
loop produced **before** it was refactored: every constant in
``EXPECTED`` was captured on commit ``cb4a09e`` (the parent of the PR that
flattened heap entries to ``(time, seq, fn, args)`` tuples, folded
``_Attempt`` into the slotted ``Job`` and moved ``merge_results`` off
``TopKCollector``) by running this file as a script there::

    PYTHONPATH=src python tests/test_event_loop_identity.py

which prints the ``BANK`` literal (it lives in ``tests/conftest.py``, shared
with the scoreboard pin) and the ``EXPECTED`` literal below.  Nothing in the
capture path touches a private name, so the same script runs unchanged on
either side of the refactor.  Regenerate the same way — on the commit
*before* the change under test — whenever a PR changes simulated
behaviour on purpose.

Coverage, all at ``Scale.unit()``: cottage x {primary R=1, hedged R=2}
x {no faults, replica 0 of shard 0 wedged 20x slow for the whole
run} x {``run_trace``, ``serve`` with admission and
``retain_records=False``}, plus exhaustive and taily once each.  A case's
digest covers, per record, ``query_id | repr(latency_ms) |
result.fingerprint()`` and every attempt outcome (shard, replica, role,
``repr`` of service/queue time and frequency, completed/counted/cancelled,
docs evaluated); ``repr(power)``; the run's tail-tolerance and admission
counters; and — for ``serve``, which retains no records — the streaming
sink's snapshot.  ``events_processed`` and the policy's decision counts
(decisions, shards selected, boosted, budgeted) are kept readable beside
the digest so a mismatch says which layer moved.

The runs are functions of the trained predictor bank, and training runs
on the host's BLAS.  ``conftest.BANK`` digests exactly what a decision consumes
(predicted counts, predicted service time, and which side of the policy's
confidence gates each zero-probability falls on — not the raw softmax
floats), so last-bit gemm differences between hosts do not move it.  If
it does differ, ``test_bank_matches_capture`` fails with the reason and
the run cases skip: they would only repeat that one finding twelve times.
"""

from __future__ import annotations

import hashlib

import pytest

from repro.cluster import FaultSchedule
from repro.serving import (
    AdmissionConfig,
    AdmissionController,
    QueryStream,
    make_arrivals,
    pool_from_corpus,
)

# case mode -> replica count (two replicas hedge to replica 1)
MODES = {"primary_r1": 1, "hedged_r2": 2}
FAULTS = ("none", "wedged")
SERVE_QUERIES = 500
SERVE_RATE_QPS = 150.0
SERVE_MAX_IN_FLIGHT = 6

# case -> (events_processed, (decisions, selected, boosted, budgeted), digest)
EXPECTED: dict[str, tuple[int, tuple[int, int, int, int], str]] = {
    "run_trace/cottage/primary_r1/none": (
        10338, (587, 3071, 1889, 587),
        "93290a371c3894f6a1b2ccca400fea8187dde52b",
    ),
    "run_trace/cottage/primary_r1/wedged": (
        9926, (587, 3071, 1786, 587),
        "d61eb5772f0415badd607d095edf27aa2574468b",
    ),
    "run_trace/cottage/hedged_r2/none": (
        19777, (587, 3071, 1889, 587),
        "24309ea26accd4fe597a77dc87b04e967bd48aad",
    ),
    "run_trace/cottage/hedged_r2/wedged": (
        19164, (587, 3071, 1785, 587),
        "95f5e02bd80efc7dae93955389917b1c4f08f0ec",
    ),
    "serve/cottage/primary_r1/none": (
        6460, (366, 1869, 778, 366),
        "60f700dad4281b3fa61f4021d1fefb9b1b1e12f9",
    ),
    "serve/cottage/primary_r1/wedged": (
        4890, (279, 1444, 498, 279),
        "4885fe35e0aad386ed5c0b8c3cc8ec92fc5f6b53",
    ),
    "serve/cottage/hedged_r2/none": (
        9129, (367, 1872, 787, 367),
        "1d277779413badbe0a7cd5612340f8e95af1c6b9",
    ),
    "serve/cottage/hedged_r2/wedged": (
        7420, (285, 1487, 486, 285),
        "71070b04e8558f55fd3440b2470baeed2ea2d5db",
    ),
    "run_trace/exhaustive/primary_r1/none": (
        15262, (587, 4696, 0, 0),
        "a904540357db3c48e9bcd44590340388cfb5ca8a",
    ),
    "run_trace/taily/primary_r1/none": (
        12730, (587, 3852, 0, 0),
        "9d3fe1bf4f14b47d32fdf659e7b3df68928691c2",
    ),
}


def _sha(lines: list[str]) -> str:
    return hashlib.sha1("\n".join(lines).encode()).hexdigest()


def _wedged(horizon_ms: float) -> FaultSchedule:
    return FaultSchedule.straggler(0, 0.0, horizon_ms, factor=20.0, replica_id=0)


class _DecisionCounts:
    """Counts taken from each ``Decision`` the policy returns."""

    def __init__(self, policy) -> None:
        self.counts = [0, 0, 0, 0]
        self._decide = policy.decide
        policy.decide = self  # instance attribute shadows the method

    def __call__(self, query, view):
        decision = self._decide(query, view)
        counts = self.counts
        counts[0] += 1
        counts[1] += len(decision.shard_ids)
        counts[2] += len(decision.frequency_overrides)
        counts[3] += decision.time_budget_ms is not None
        return decision


def _run_lines(run) -> list[str]:
    lines = [
        repr(run.power),
        f"{run.hedges_issued},{run.hedge_wins},{run.cancels_sent},"
        f"{run.cancelled_in_queue},{run.duplicates_dropped},"
        f"{run.total_service_ms!r},{run.counted_service_ms!r},"
        f"{run.offered_queries},{run.admitted_queries},"
        f"{run.shed_queue_depth},{run.shed_deadline},{run.elapsed_ms!r},"
        f"{run.clamped_schedules}",
    ]
    for record in run.records:
        outcomes = ";".join(
            f"{o.shard_id}.{o.replica_id}.{o.role}.{o.service_ms!r}."
            f"{o.queued_ms!r}.{o.freq_ghz!r}.{o.completed:d}{o.counted:d}"
            f"{o.cancelled:d}.{o.docs_evaluated}"
            for o in record.outcomes
        )
        lines.append(
            f"{record.query.query_id}|{record.latency_ms!r}|"
            f"{record.result.fingerprint()}|{outcomes}"
        )
    if run.serving is not None:
        lines.append(repr(sorted(run.serving.snapshot().items())))
    return lines


def run_case(testbed, case: str) -> tuple[int, tuple[int, int, int, int], str]:
    """One named case -> (events, decision counts, digest)."""
    driver, policy_name, mode, fault = case.split("/")
    trace = testbed.wikipedia_trace
    policy = testbed.make_policy(policy_name)
    counts = _DecisionCounts(policy)
    faults = _wedged(trace.duration * 1000.0 + 1000.0) if fault == "wedged" else None
    if driver == "run_trace":
        run = testbed.cluster.run_trace(
            trace, policy, faults=faults, n_replicas=MODES[mode],
            response_timeout_ms=500.0,
        )
    else:
        stream = QueryStream(
            pool_from_corpus(testbed.corpus, n_distinct=40),
            make_arrivals("burst", SERVE_RATE_QPS, seed=3),
            seed=3,
            max_queries=SERVE_QUERIES,
        )
        run = testbed.cluster.serve(
            stream, policy, faults=faults, n_replicas=MODES[mode],
            admission=AdmissionController(
                AdmissionConfig(max_in_flight=SERVE_MAX_IN_FLIGHT)
            ),
            retain_records=False,
        )
    return run.events_processed, tuple(counts.counts), _sha(_run_lines(run))


CASES = [
    f"{driver}/cottage/{mode}/{fault}"
    for driver in ("run_trace", "serve")
    for mode in MODES
    for fault in FAULTS
] + ["run_trace/exhaustive/primary_r1/none", "run_trace/taily/primary_r1/none"]


def test_bank_matches_capture(bank_ok):
    assert bank_ok, (
        "the unit testbed's trained bank predicts differently from the one the "
        "constants were captured against: either training changed (optimizer "
        "steps must stay bit-identical) or this host's BLAS rounds differently "
        "— re-capture on the commit before the change under test (see module "
        "docstring)"
    )


@pytest.mark.parametrize("case", CASES)
def test_matches_parent_commit(unit_testbed, bank_ok, case):
    if not bank_ok:
        pytest.skip("bank differs from the capture; see test_bank_matches_capture")
    events, decisions, run_digest = run_case(unit_testbed, case)
    expected_events, expected_decisions, expected_digest = EXPECTED[case]
    assert events == expected_events
    assert decisions == expected_decisions
    assert run_digest == expected_digest


def test_every_mode_exercises_its_machinery(unit_testbed, bank_ok):
    """The pinned cases are not vacuous: hedges fire and win, recalls go
    out — otherwise the digests would pin two copies of the primary
    path."""
    if not bank_ok:
        pytest.skip("bank differs from the capture; see test_bank_matches_capture")
    trace = unit_testbed.wikipedia_trace
    faults = _wedged(trace.duration * 1000.0 + 1000.0)
    hedged = unit_testbed.cluster.run_trace(
        trace, unit_testbed.make_policy("cottage"), faults=faults,
        n_replicas=MODES["hedged_r2"],
    )
    assert hedged.hedges_issued > 0 and hedged.hedge_wins > 0
    assert hedged.cancels_sent > 0
    assert hedged.cancelled_in_queue + hedged.duplicates_dropped > 0


if __name__ == "__main__":  # capture mode: print BANK (tests/conftest.py) and EXPECTED
    from conftest import bank_digest

    from repro.experiments import Scale, Testbed

    bed = Testbed.build(Scale.unit())
    print(f'BANK = "{bank_digest(bed)}"')
    print("EXPECTED = {")
    for name in CASES:
        ev, dec, dig = run_case(bed, name)
        print(f'    "{name}": ({ev}, {dec}, "{dig}"),')
    print("}")
