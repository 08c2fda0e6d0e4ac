"""Exporter validation: Chrome trace round-trip, JSONL, flamegraph.

The Chrome trace export is checked the way Perfetto would consume it:
serialized to JSON, re-parsed with ``json.loads``, then the B/E nesting
and timestamp invariants are verified on the re-parsed events.
"""

import hashlib
import json
import re

import pytest

from repro.telemetry import (
    Telemetry,
    chrome_trace_events,
    flamegraph_summary,
    span_record,
    validate_chrome_trace,
    write_chrome_trace,
    write_spans_jsonl,
)


@pytest.fixture(scope="module")
def traced_run(unit_testbed):
    """One cottage run on the unit testbed with telemetry enabled."""
    telemetry = Telemetry()
    result = unit_testbed.cluster.run_trace(
        unit_testbed.wikipedia_trace,
        unit_testbed.make_policy("cottage"),
        telemetry=telemetry,
    )
    return telemetry, result


class TestChromeTraceExport:
    def test_round_trip_validates(self, traced_run, tmp_path):
        telemetry, _ = traced_run
        path = tmp_path / "trace.json"
        count = write_chrome_trace(telemetry, path)
        assert count > 0
        payload = json.loads(path.read_text(encoding="utf-8"))
        assert payload["displayTimeUnit"] == "ms"
        events = payload["traceEvents"]
        assert len(events) == count
        validate_chrome_trace(events)

    def test_one_track_per_isn_plus_aggregator(self, traced_run, unit_testbed):
        telemetry, _ = traced_run
        events = chrome_trace_events(telemetry)
        names = {
            event["args"]["name"]: event["tid"]
            for event in events
            if event.get("ph") == "M" and event.get("name") == "thread_name"
        }
        assert names["aggregator"] == 0  # pinned first
        isn_tracks = {n for n in names if n.startswith("isn.")}
        assert len(isn_tracks) == unit_testbed.cluster.n_shards
        # tids are distinct.
        assert len(set(names.values())) == len(names)

    def test_nesting_balanced_per_track(self, traced_run):
        telemetry, _ = traced_run
        events = chrome_trace_events(telemetry)
        depth: dict[int, int] = {}
        for event in events:
            if event.get("ph") == "B":
                depth[event["tid"]] = depth.get(event["tid"], 0) + 1
            elif event.get("ph") == "E":
                depth[event["tid"]] = depth.get(event["tid"], 0) - 1
                assert depth[event["tid"]] >= 0
        assert all(value == 0 for value in depth.values())

    def test_timestamps_monotonic_per_track(self, traced_run):
        telemetry, _ = traced_run
        last: dict[int, float] = {}
        for event in chrome_trace_events(telemetry):
            if event.get("ph") == "M":
                continue
            tid = event["tid"]
            assert event["ts"] >= last.get(tid, float("-inf"))
            last[tid] = event["ts"]

    def test_async_lifecycles_have_matched_ids(self, traced_run):
        telemetry, result = traced_run
        begins, ends = [], []
        for event in chrome_trace_events(telemetry):
            if event.get("cat") == "query":
                (begins if event["ph"] == "b" else ends).append(event["id"])
        # One lifecycle per non-cached query record.
        assert len(begins) == len(result.records)
        assert sorted(begins) == sorted(ends)

    def test_validator_rejects_broken_streams(self):
        base = {"pid": 1, "tid": 0}
        with pytest.raises(ValueError, match="E without open B"):
            validate_chrome_trace([{"ph": "E", "ts": 1.0, **base}])
        with pytest.raises(ValueError, match="unclosed B"):
            validate_chrome_trace([{"ph": "B", "name": "x", "ts": 1.0, **base}])
        with pytest.raises(ValueError, match="backwards"):
            validate_chrome_trace(
                [
                    {"ph": "B", "name": "x", "ts": 5.0, **base},
                    {"ph": "E", "ts": 1.0, **base},
                ]
            )
        with pytest.raises(ValueError, match="missing numeric ts"):
            validate_chrome_trace([{"ph": "B", "name": "x", **base}])
        with pytest.raises(ValueError, match="async end without begin"):
            validate_chrome_trace(
                [{"ph": "e", "ts": 1.0, "cat": "query", "id": 9, **base}]
            )


class TestJsonlExport:
    def test_one_parseable_line_per_span(self, traced_run, tmp_path):
        telemetry, _ = traced_run
        path = tmp_path / "spans.jsonl"
        count = write_spans_jsonl(telemetry, path)
        lines = path.read_text(encoding="utf-8").splitlines()
        assert len(lines) == count == len(telemetry.tracer.spans)
        records = [json.loads(line) for line in lines]
        assert {r["name"] for r in records} >= {
            "isn.service", "aggregator.merge", "policy.predict", "query",
        }
        for record in records:
            assert record["sim_ms"] >= 0.0
            assert record["wall_ms"] >= 0.0

    def test_span_record_attrs_are_json_safe(self):
        telemetry = Telemetry()
        span = telemetry.tracer.span("x", track="t", obj=object(), n=3)
        span.finish()
        record = span_record(span)
        json.dumps(record)  # must not raise
        assert record["attrs"]["n"] == 3


class TestFlamegraph:
    def test_summary_renders_expected_rows(self, traced_run):
        telemetry, result = traced_run
        text = flamegraph_summary(telemetry)
        assert "isn.service" in text
        assert "cluster.replay" in text
        assert f"{len(result.records)} query lifecycles" in text

    def test_empty_session(self):
        assert flamegraph_summary(Telemetry()) == "(no spans recorded)"

    def test_row_cap(self, traced_run):
        telemetry, _ = traced_run
        text = flamegraph_summary(telemetry, max_rows=3)
        assert len(text.splitlines()) <= 3 + 6  # header + track labels + footer


#: Digests of one ``repro trace --policy cottage --scale unit --metrics``
#: run, captured before the telemetry session became a per-run argument:
#: the Perfetto JSON bytes, the JSONL spans without ``wall_ms`` and the
#: printed metrics snapshot.  Telemetry plumbing may move; what it records
#: may not.  The metrics digest was re-captured once, when Cottage stopped
#: asking its bank twice per static-row miss: its one moved line is
#: ``bank.prediction_cache.hits`` 120 -> 60 (60 distinct queries).
TRACE_PIN = {
    "perfetto": "0fe5c435c19dd890d18e5ea39f5482b58913d828c38aa5dd1bc59ff57e3e9755",
    "jsonl": "9fd0591ff7e00fe487019823efd88e4f6c0dab1abc0d94680110036a099aa7ef",
    "metrics": "94e51e18a1928fe9051746d066bc25f27ae30251c27fb524e3eb8de54e8977d7",
}


def trace_digests(stem, stdout: str) -> dict[str, str]:
    """The three :data:`TRACE_PIN` digests of one ``repro trace`` run."""

    def sha(text: str | bytes) -> str:
        data = text.encode() if isinstance(text, str) else text
        return hashlib.sha256(data).hexdigest()

    spans = []
    for line in stem.with_suffix(".jsonl").read_text(encoding="utf-8").splitlines():
        record = json.loads(line)
        del record["wall_ms"]
        spans.append(json.dumps(record, sort_keys=True))
    metrics = [
        line for line in stdout.splitlines()
        if re.match(r"\S+ \[(counter|gauge|histogram)\]: ", line)
    ]
    assert len(metrics) == 40
    return {
        "perfetto": sha(stem.with_suffix(".json").read_bytes()),
        "jsonl": sha("\n".join(spans)),
        "metrics": sha("\n".join(metrics)),
    }


def test_cli_trace_output_is_pinned(bank_ok, tmp_path, capsys):
    if not bank_ok:
        pytest.skip("bank differs from the capture; see test_bank_matches_capture")
    from repro.cli import main

    stem = tmp_path / "run"
    argv = ["trace", "--policy", "cottage", "--scale", "unit", "--metrics",
            "--export", "perfetto", "jsonl", "--out", str(stem)]
    assert main(argv) == 0
    assert trace_digests(stem, capsys.readouterr().out) == TRACE_PIN
