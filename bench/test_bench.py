"""Tests of the benchmark harness itself, on ``--smoke`` sizes.

Run explicitly: ``python -m pytest bench -q`` (tier-1's ``testpaths`` does
not include this directory).
"""

from __future__ import annotations

import json
import re

import pytest

from bench import run

run.find_program()

from bench import compare, spec  # noqa: E402
from bench.spans import Recorder  # noqa: E402
from bench.workload import FULL_SIZES, SMOKE_SIZES  # noqa: E402
from bench.search import fingerprint_check, pass_identity_check, rank_check  # noqa: E402
from bench.simulated import (  # noqa: E402
    cache_state_check,
    replay_identity_check,
    serve_accounting_check,
)
from repro.cluster.engine import SearchCluster  # noqa: E402
from repro.core.cottage import CottagePolicy  # noqa: E402
from repro.nn.model import Sequential  # noqa: E402
from repro.retrieval import DistributedSearcher, SearchResult, ShardSearcher  # noqa: E402
from repro.serving import AdmissionController, QueryStream  # noqa: E402
from repro.serving.orchestrator import ServingStats  # noqa: E402

BENCHMARK = json.loads((run.ROOT / "BENCHMARK.json").read_text())
SECONDS = 0.05

PATCH_POINTS = [
    (SearchCluster, "run_trace"), (SearchCluster, "serve"),
    (ShardSearcher, "search"), (DistributedSearcher, "search"),
    (Sequential, "fit"), (CottagePolicy, "prewarm"), (CottagePolicy, "decide"),
    (CottagePolicy, "observe"), (AdmissionController, "admit"),
    (AdmissionController, "on_admit"), (AdmissionController, "on_finalize"),
    (ServingStats, "observe"), (QueryStream, "__iter__"),
]


def own_attributes() -> list[object]:
    """What each patch point's class holds itself (None: inherited)."""
    return [vars(owner).get(attr) for owner, attr in PATCH_POINTS]


@pytest.fixture(scope="module")
def traced(tmp_path_factory) -> dict[str, dict]:
    """One traced smoke record per workload, plus the attribute state around."""
    out_dir = tmp_path_factory.mktemp("traced")
    before = own_attributes()
    records = {
        name: run.run_workload(name, 0, SECONDS, trace=True, smoke=True, out_dir=out_dir)
        for name in spec.WORKLOADS
    }
    records["_restored"] = own_attributes() == before
    records["_out_dir"] = out_dir
    return records


def test_benchmark_json_meets_the_driver_contract():
    name = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
    unit = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")
    assert set(BENCHMARK) == {
        "command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer",
    }
    assert BENCHMARK["paths"] == ["bench"] and BENCHMARK["command"][1] == "bench/run.py"
    assert 2 <= len(BENCHMARK["workloads"]) <= 8
    assert 1 <= len(BENCHMARK["end_to_end"]) <= 16
    assert 1 <= len(BENCHMARK["per_layer"]) <= 128
    for row in BENCHMARK["workloads"]:
        assert set(row) == {"name", "why"} and len(row["why"]) <= 200
    for row in BENCHMARK["end_to_end"]:
        assert set(row) == {"name", "unit", "better", "bound"} and 0 < row["bound"] <= 0.25
    for row in BENCHMARK["per_layer"]:
        assert set(row) == {"name", "unit", "better"}
    rows = BENCHMARK["workloads"] + BENCHMARK["end_to_end"] + BENCHMARK["per_layer"]
    names = [row["name"] for row in rows]
    assert len(set(names)) == len(names) and all(name.fullmatch(n) for n in names)
    for row in BENCHMARK["end_to_end"] + BENCHMARK["per_layer"]:
        assert unit.fullmatch(row["unit"]) and row["better"] in ("lower", "higher")
    assert {"name": "setup_s", "unit": "s", "better": "lower"}.items() <= (
        BENCHMARK["end_to_end"][0].items()
    )
    # What spec.py adds refers only to what BENCHMARK.json names.
    assert set(spec.SIMULATED + spec.SEARCH) == set(spec.WORKLOADS)
    assert set(FULL_SIZES) == set(SMOKE_SIZES) == set(spec.WORKLOADS)
    assert set(spec.EXACT_COUNTS) <= set(spec.PER_LAYER)


@pytest.mark.parametrize("name", list(spec.WORKLOADS))
def test_every_named_metric_is_emitted_with_its_unit(traced, name):
    record = traced[name]
    assert record["comparable"] is False  # smoke sizes
    assert record["failed"] == 0 and record["attempted"] >= 1
    for entry in BENCHMARK["end_to_end"]:
        emitted = record["end_to_end"][entry["name"]]
        assert emitted["unit"] == entry["unit"]
        assert emitted["value"] != 0
    for entry in BENCHMARK["per_layer"]:
        assert record["per_layer"][entry["name"]]["unit"] == entry["unit"]
    for metric_name, declared in spec.END_TO_END.items():
        if name in declared.workloads:
            assert record["end_to_end"][metric_name]["unit"] == declared.unit
    assert set(run.driver_metrics(record)) == set(spec.PER_LAYER)
    assert set(run.driver_metrics({**record, "traced": False})) == {
        entry["name"] for entry in BENCHMARK["end_to_end"]
    }


def test_wrappers_are_restored_after_a_traced_run(traced):
    assert traced["_restored"]
    for owner, attr in PATCH_POINTS:
        assert not hasattr(getattr(owner, attr), "__wrapped__")


def test_wrappers_are_restored_when_the_wrapped_call_raises():
    before = own_attributes()
    rec = Recorder()

    def install(recorder: Recorder) -> None:
        recorder.patch(CottagePolicy, "observe", "core.observe")
        recorder.patch_iter(QueryStream, "serving.stream")

    with pytest.raises(RuntimeError):
        with rec.patched(install):
            assert hasattr(CottagePolicy.observe, "__wrapped__")
            raise RuntimeError("boom")
    assert own_attributes() == before


def test_layer_self_times_sum_to_the_traced_wall(traced):
    for name in spec.WORKLOADS:
        trace = traced[name]["trace"]
        assert trace["layer_self_sum_s"] == pytest.approx(
            trace["traced_unit_wall_s"], rel=0.05
        )
        lines = (traced["_out_dir"] / f"trace_{name}.jsonl").read_text().splitlines()
        assert len(lines) == trace["spans_written"]
        span = json.loads(lines[-1])
        assert set(span) == {"id", "name", "start", "end", "parent", "op"}


def test_workloads_separate_the_layers(traced):
    replay, serve = traced["replay_closed"]["per_layer"], traced["serve_burst"]["per_layer"]
    cold, store = traced["search_cold"]["per_layer"], traced["search_store"]["per_layer"]
    for name, entry in replay.items():
        if name.startswith("serving."):
            assert entry["value"] == 0, name
    assert serve["serving.arrivals"]["value"] > 0
    assert serve["serving.admitted"]["value"] > 0
    assert serve["serving.shed_queue_depth"]["value"] > 0
    for layers in (replay, serve):
        assert layers["retrieval.memo_hit_share"]["value"] == 1.0
        assert layers["retrieval.memo_computations"]["value"] == 0
    for layers in (cold, store):
        assert layers["retrieval.memo_hit_share"]["value"] == 0.0
        assert layers["cluster.events"]["value"] == 0
    assert cold["index.decode_misses"]["value"] == 0
    assert store["index.decode_misses"]["value"] > 0
    assert store["index.compression_ratio"]["value"] > 1.0


def test_same_seed_repeats_the_simulated_clock_exactly(traced, tmp_path):
    for name in spec.WORKLOADS:
        again = run.run_workload(name, 0, SECONDS, trace=False, smoke=True, out_dir=tmp_path)
        assert again["exact"] == traced[name]["exact"]
        rows = compare.compare([traced[name]], [again])
        assert rows and all(
            row["verdict"] == "equal" for row in rows if row["unit"] == "exact"
        )
    other = run.run_workload("search_cold", 1, SECONDS, trace=False, smoke=True, out_dir=tmp_path)
    assert other["exact"] != traced["search_cold"]["exact"]  # the seed reaches the inputs


def test_a_failed_check_fails_the_command(monkeypatch, tmp_path, capsys):
    monkeypatch.setattr("bench.search.same_topk", lambda *_: False)
    code = run.main(["--workload", "search_cold", "--smoke", "--seconds", str(SECONDS),
                     "--out", str(tmp_path / "record.json")])
    last = json.loads(capsys.readouterr().out.splitlines()[-1])
    assert code == run.CHECK_FAILED
    assert last["correct"] is False and last["failed"] > 0
    assert set(last) == {"correct", "attempted", "failed", "metrics"}


def test_a_crashed_child_is_not_read_as_an_earlier_result(monkeypatch, tmp_path, capfd):
    """All-workloads mode, with an earlier run's records lying in the out
    directory: a child that dies (a negative seed raises in numpy) ends the
    run without a result, and nothing of the earlier run is reported."""
    monkeypatch.setattr(run, "OUT", tmp_path)
    stale = json.dumps({"records": [], "stale": True})
    for name in ("record.json", *(f"record_{w}.json" for w in spec.WORKLOADS)):
        (tmp_path / name).write_text(stale)
    code = run.main(["--smoke", "--seed", "-1"])
    out, err = capfd.readouterr()
    assert code not in (0, run.CHECK_FAILED)
    assert "crashed" in err and '"correct"' not in out
    assert (tmp_path / "record.json").read_text() == stale
    assert sorted(p.name for p in tmp_path.iterdir()) == sorted(
        ["record.json", *(f"record_{w}.json" for w in spec.WORKLOADS)]
    )


def test_all_workloads_mode_writes_one_record_file(monkeypatch, tmp_path, capfd):
    monkeypatch.setattr(run, "OUT", tmp_path)
    assert run.main(["--smoke", "--seconds", str(SECONDS), "--seed", "3"]) == 0
    last = json.loads(capfd.readouterr().out.splitlines()[-1])
    assert last["correct"] is True
    assert {name.split("/")[0] for name in last["metrics"]} == set(spec.WORKLOADS)
    # One file, so that compare.py's directory mode loads each run once.
    assert [p.name for p in tmp_path.iterdir()] == ["record.json"]
    records = compare.load(tmp_path)
    assert [(r["workload"], r["seed"]) for r in records] == [(w, 3) for w in spec.WORKLOADS]


# ------------------------------------------------- each check sees corruption


def result(*hits: tuple[int, float]) -> SearchResult:
    return SearchResult(hits=list(hits))


def test_replay_identity_check_catches_a_changed_replay():
    reference = {"wikipedia": (3, "abc", 40)}
    assert replay_identity_check([("wikipedia", 3, "abc", 40)], reference).failed == 0
    for corrupted in (("wikipedia", 2, "abc", 40), ("wikipedia", 3, "abd", 40),
                      ("wikipedia", 3, "abc", 41)):
        assert replay_identity_check([corrupted], reference).failed == 3


def test_serve_accounting_check_catches_lost_queries_and_drift():
    good = {"offered": 10, "admitted": 8, "shed": 2, "sink_shed": 2, "completed": 8,
            "mean_ms": 1.5}
    assert serve_accounting_check([good, dict(good)], 10).failed == 0
    assert serve_accounting_check([{**good, "completed": 7}], 10).failed == 10
    assert serve_accounting_check([{**good, "admitted": 9}], 10).failed == 10
    assert serve_accounting_check([good, {**good, "mean_ms": 1.6}], 10).failed == 10


def test_cache_state_check_catches_a_cold_memo():
    assert cache_state_check(0, 50).failed == 0
    assert cache_state_check(1, 50).failed == 50


def test_pass_identity_check_catches_a_pass_that_differs():
    first = {"digest": "a", "postings_scored": 5}
    assert pass_identity_check([first, dict(first)], 4).failed == 0
    assert pass_identity_check([first, {**first, "postings_scored": 6}], 4).failed == 4


def test_rank_check_catches_a_wrong_ranking():
    oracle = {0: result((1, 2.0), (2, 1.0))}
    assert rank_check([result((1, 2.0 + 1e-12), (2, 1.0))], oracle).failed == 0
    assert rank_check([result((2, 1.0), (1, 2.0))], oracle).failed == 1
    assert rank_check([result((1, 2.0))], oracle).failed == 1


def test_fingerprint_check_catches_a_last_bit_difference():
    expected = {0: result((1, 2.0)).fingerprint()}
    assert fingerprint_check([result((1, 2.0))], expected).failed == 0
    assert fingerprint_check([result((1, 2.0000000000000004))], expected).failed == 1


def test_compare_verdicts():
    def record(qps: float, failed: int = 0, seed: int = 0) -> dict:
        e2e = {name: {"value": 1.0} for name, d in spec.END_TO_END.items()
               if "search_cold" in d.workloads}
        e2e["wall_qps"] = {"value": qps}
        e2e["ops_failed_share"] = {"value": failed / 10}
        return {"workload": "search_cold", "seed": seed, "end_to_end": e2e,
                "exact": {"sim_mean_ms": 3.0}}

    def verdict(a: list[dict], b: list[dict], metric: str = "wall_qps") -> str:
        return next(r["verdict"] for r in compare.compare(a, b) if r["metric"] == metric)

    assert verdict([record(100.0)], [record(95.0)]) == "ok"
    assert verdict([record(100.0)], [record(70.0)]) == "regressed"
    # Seeds are different inputs: runs are paired by seed, never pooled.
    bases = (50.0, 100.0, 200.0, 400.0)
    a = [record(qps, seed=seed) for seed, qps in enumerate(bases)]
    assert verdict(a, [record(qps * 0.98, seed=s) for s, qps in enumerate(bases)]) == "ok"
    assert verdict(a, [record(qps * 0.6, seed=s) for s, qps in enumerate(bases)]) == "regressed"
    noisy = [record(q) for q in (60.0, 100.0, 140.0, 180.0)]
    assert verdict(noisy, [record(118.0)]) == "unresolved"
    assert verdict(noisy, [record(130.0)]) == "unresolved"  # beats A's median, not A's runs
    assert verdict(noisy, [record(200.0)]) == "ok"  # better than every run of A
    assert verdict([record(100.0)], [record(100.0, failed=1)], "ops_failed_share") == "regressed"
    rows = compare.compare([record(100.0)], [{**record(100.0), "exact": {"sim_mean_ms": 3.1}}])
    assert [r["verdict"] for r in rows if r["unit"] == "exact"] == ["DIFFERENT"]
