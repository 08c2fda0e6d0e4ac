"""Tests for the command-line interface."""

import json
import re
import signal
import subprocess
import sys
from pathlib import Path

import pytest

from repro.cli import FIGURES, build_parser, main
from repro.serving.arrivals import ARRIVAL_KINDS


def strict_json(path: Path) -> dict:
    """``path`` parsed as JSON proper: a bare NaN or Infinity token fails."""

    def refuse(token: str) -> None:
        raise ValueError(f"{token} is not a JSON value")

    return json.loads(path.read_text(), parse_constant=refuse)


class TestParser:
    def test_requires_command(self, capsys):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_build_index_args(self):
        args = build_parser().parse_args(
            ["index", "build", "--out", "x", "--scale", "unit"]
        )
        assert args.out == "x"
        assert args.scale == "unit"

    @pytest.mark.parametrize(
        "argv",
        [
            ["search", "dir", "t1", "--workers", "2"],
            ["build-index", "--out", "x"],
            ["index", "pack", "dir", "--out", "x"],
            ["bench", "--scale", "unit"],
            ["select", "sweep"],
        ],
    )
    def test_removed_flags_and_commands_are_usage_errors(self, argv, capsys):
        with pytest.raises(SystemExit) as caught:
            build_parser().parse_args(argv)
        assert caught.value.code == 2

    def test_search_args(self):
        args = build_parser().parse_args(["search", "dir", "a", "b", "-k", "5"])
        assert args.terms == ["a", "b"]
        assert args.k == 5

    def test_figure_registry_covers_evaluation(self):
        for name in ("fig02", "fig10", "fig11", "fig13", "fig14", "fig15",
                     "tables", "headline"):
            assert name in FIGURES


class TestCommands:
    def test_build_index_then_search(self, tmp_path, capsys):
        out = tmp_path / "index"
        assert main(["index", "build", "--scale", "unit", "--out", str(out)]) == 0
        captured = capsys.readouterr().out
        assert "packed 8 store shards" in captured

        assert main(["search", str(out), "t100", "--raw-terms", "-k", "3"]) == 0
        captured = capsys.readouterr().out
        assert "doc" in captured

    def test_search_no_terms_after_analysis(self, tmp_path, capsys):
        out = tmp_path / "index"
        main(["index", "build", "--scale", "unit", "--out", str(out)])
        capsys.readouterr()
        # Pure stopwords analyze to nothing under the standard analyzer.
        assert main(["search", str(out), "the", "and"]) == 1

    def test_unknown_figure(self, capsys):
        assert main(["figure", "fig99"]) == 1
        assert "unknown figure" in capsys.readouterr().err

    def test_unknown_scale(self):
        with pytest.raises(SystemExit):
            main(["figure", "fig04", "--scale", "enormous"])

    @pytest.mark.parametrize("name", ["__init__", "__class__", "mro"])
    @pytest.mark.parametrize(
        "argv",
        [
            ["index", "build", "--out", "{out}"],
            ["compare"],
            ["figure", "fig04"],
            ["paper", "--out", "{out}"],
            ["trace"],
            ["faults"],
            ["serve"],
        ],
    )
    def test_scale_names_only_the_three_scales(self, argv, name, tmp_path):
        # Attribute names of Scale are not scales: one line, never a traceback.
        out = str(tmp_path / "out")
        with pytest.raises(SystemExit) as caught:
            main([arg.format(out=out) for arg in argv] + ["--scale", name])
        assert caught.value.code == f"unknown scale {name!r}; use unit, small or full"

    @pytest.mark.parametrize("name", ["__init__", "bogus"])
    def test_trace_comparison_example_names_only_the_three_scales(self, name):
        example = Path(__file__).resolve().parents[1] / "examples" / "trace_comparison.py"
        run = subprocess.run(
            [sys.executable, str(example), name], capture_output=True, text=True,
            timeout=60,
        )
        assert (run.returncode, run.stdout) == (1, "")
        assert run.stderr == f"unknown scale {name!r}; use unit, small or full\n"

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["search", "{missing}", "foo"], "no shard stores"),
            (["search", "{empty}", "foo"], "no shard stores"),
            (
                ["index", "build", "--scale", "unit", "--out", "{stale}"],
                "shard_8.store: stale shard store",
            ),
            (["search", "{missing}", "t1", "-k", "0"], "-k must be positive"),
            (
                ["search", "{missing}", "t1", "--strategy", "bogus"],
                "unknown strategy 'bogus'",
            ),
            (
                ["compare", "--scale", "unit", "--policies", "cottage", "bogus"],
                "unknown policy 'bogus'",
            ),
            (["search", "{stray}", "foo"], "shard_backup.store: not a shard store name"),
            (["serve", "--max-in-flight", "0"], "max_in_flight must be positive"),
            (["serve", "--deadline-slo-ms", "-1"], "deadline_slo_ms must be positive"),
            (["serve", "--distinct", "0"], "--distinct must be positive"),
            (["serve", "--qps", "nan"], "must be positive and finite"),
            (["serve", "--qps", "inf"], "must be positive and finite"),
            (["faults", "--policies"], "--policies needs at least one name"),
            (
                ["faults", "--response-timeout-ms", "-1"],
                "--response-timeout-ms must be positive",
            ),
            (["faults", "--policies", "nosuch"], "unknown policy 'nosuch'"),
            (["serve", "--deadline-slo-ms", "nan"], "deadline_slo_ms must be positive"),
            (["serve", "--deadline-slo-ms", "inf"], "deadline_slo_ms must be positive"),
            (["search", "{missing}", "t1", "--strategy", "wand"], "unknown strategy"),
            (
                ["search", "{missing}", "t1", "--strategy", "exhaustive_daat"],
                "unknown strategy",
            ),
            (["faults", "--scenarios"], "--scenarios needs at least one name"),
            (
                ["faults", "--response-timeout-ms", "inf"],
                "--response-timeout-ms must be positive, got inf",
            ),
            (["trace", "--policy", "bogus"], "unknown policy 'bogus'"),
            (["trace", "--max-rows", "-1"], "--max-rows must be non-negative, got -1"),
        ],
    )
    def test_hostile_input_exits_one_with_one_line(
        self, argv, message, tmp_path, capsys, monkeypatch
    ):
        # Option values are checked before the index is read or a testbed
        # built, so a missing directory never gets the chance to mask them.
        def no_build(scale):
            raise AssertionError("testbed built before the options were checked")

        monkeypatch.setattr("repro.cli.Testbed.build", no_build)
        paths = {
            "missing": tmp_path / "missing", "empty": tmp_path,
            "stray": tmp_path / "stray", "stale": tmp_path / "stale",
        }
        for name, files in (
            ("stray", ("shard_0.store", "shard_backup.store")),
            # What a 16-shard pack leaves beside unit scale's ids 0-7.
            ("stale", ("shard_7.store", "shard_8.store", "shard_9.store")),
        ):
            paths[name].mkdir()
            for file in files:
                (paths[name] / file).touch()
        assert main([arg.format(**paths) for arg in argv]) == 1
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and message in err

    def test_negative_decode_cache_exits_one_with_one_line(self, tmp_path, capsys):
        from repro.experiments.bench_storage import build_scaled_shards
        from repro.index import pack_shards

        pack_shards(build_scaled_shards(2, 50, 30, seed=3), tmp_path)
        argv = ["search", str(tmp_path), "t001", "--raw-terms", "--decode-cache"]
        assert main(argv + ["-5"]) == 1
        captured = capsys.readouterr()
        assert captured.err.count("\n") == 1 and "non-negative" in captured.err
        assert "decode LRU budget" not in captured.out
        assert main(argv + ["0"]) == 0
        # One entry per shard survives a zero budget, and its bytes show.
        report = capsys.readouterr().out
        assert "2 misses, 0 evictions; 2 entries, " in report
        assert " B retained" in report and "; 2 entries, 0 B" not in report


class TestHostileQueries:
    """``repro search`` over a ``repro index build --scale unit`` store:
    queries that analyze to nothing, repeat one term thousands of times or
    name only unknown tokens each end in one defined outcome."""

    @pytest.fixture(scope="class")
    def index(self, tmp_path_factory):
        out = tmp_path_factory.mktemp("unit") / "index"
        assert main(["index", "build", "--scale", "unit", "--out", str(out)]) == 0
        return str(out)

    @pytest.mark.parametrize("query", ["", "   \t  "])
    def test_empty_query_exits_one(self, index, query, capsys):
        capsys.readouterr()
        assert main(["search", index, query]) == 1
        captured = capsys.readouterr()
        assert captured.err == "query analyzed to no terms\n"
        assert captured.out == ""

    def test_repeated_term_searches_one_term(self, index, capsys):
        capsys.readouterr()
        assert main(["search", index, "t5", "--raw-terms"]) == 0
        single = capsys.readouterr().out
        assert main(["search", index, *["t5"] * 3000, "--raw-terms"]) == 0
        repeated = capsys.readouterr().out
        assert repeated == single
        assert single.startswith("terms: ['t5']  (") and "1. doc" in single

    @pytest.mark.parametrize("raw", [[], ["--raw-terms"]])
    def test_unknown_tokens_find_nothing(self, index, raw, capsys):
        capsys.readouterr()
        assert main(["search", index, "nan", "inf", *raw]) == 0
        captured = capsys.readouterr()
        assert captured.out == "terms: ['nan', 'inf']  (0 docs evaluated)\n"
        assert captured.err == ""


class TestFaultsCommand:
    def test_faults_args(self):
        args = build_parser().parse_args(
            ["faults", "--scenarios", "outage", "slow_replica",
             "--policies", "cottage", "--seed", "9",
             "--out", "m.json"]
        )
        assert args.scenarios == ["outage", "slow_replica"]
        assert args.policies == ["cottage"]
        assert args.seed == 9
        assert args.out == "m.json"

    def test_unknown_scenario_exits_one(self, capsys):
        assert main(["faults", "--scenarios", "meteor_strike"]) == 1
        assert "unknown scenario" in capsys.readouterr().err

    def test_faults_matrix_writes_json(self, tmp_path, capsys):
        out = tmp_path / "faults.json"
        code = main(
            ["faults", "--scale", "unit", "--scenarios", "outage",
             "--policies", "exhaustive", "--out", str(out)]
        )
        assert code == 0
        stdout = capsys.readouterr().out
        assert "scenario" in stdout and "outage" in stdout
        payload = strict_json(out)
        assert payload["scale"] == "unit"
        assert payload["response_timeout_ms"] == 150.0
        # A single-replica baseline plus a cell hedged over two replicas.
        assert [cell["n_replicas"] for cell in payload["cells"]] == [1, 2]
        for cell in payload["cells"]:
            assert cell["scenario"] == "outage"
            assert cell["p99_latency_ms"] > 0.0


class TestServeCommand:
    def test_serve_args(self):
        args = build_parser().parse_args(
            ["serve", "--policy", "cottage", "--qps", "50", "100",
             "--queries", "500", "--arrival", "diurnal", "--seed", "7",
             "--max-in-flight", "64", "--out", "s.json",
             "--fail-knee-tolerance", "0.25"]
        )
        assert args.policy == "cottage"
        assert args.qps == [50.0, 100.0]
        assert args.queries == 500
        assert args.arrival == "diurnal"
        assert args.seed == 7
        assert args.max_in_flight == 64
        assert args.fail_knee_tolerance == 0.25

    def test_unknown_policy_exits_one(self, capsys):
        assert main(["serve", "--policy", "psychic"]) == 1
        assert "unknown policy" in capsys.readouterr().err

    def test_unknown_arrival_is_rejected_by_parser(self):
        for kind in ARRIVAL_KINDS:
            assert build_parser().parse_args(["serve", "--arrival", kind]).arrival == kind
        for kind in ("fractal", "mmpp"):
            with pytest.raises(SystemExit):
                build_parser().parse_args(["serve", "--arrival", kind])

    def test_unknown_scale(self):
        with pytest.raises(SystemExit):
            main(["serve", "--scale", "enormous"])

    def test_invalid_campaign_exits_one(self, capsys):
        assert main(["serve", "--queries", "0"]) == 1
        assert "invalid campaign" in capsys.readouterr().err

    def test_serve_sweep_writes_json_and_gates(self, tmp_path, capsys):
        out = tmp_path / "campaign.json"
        code = main(
            ["serve", "--scale", "unit", "--policy", "exhaustive",
             "--queries", "200", "--distinct", "30", "--out", str(out)]
        )
        assert code == 0
        stdout = capsys.readouterr().out
        assert "measured knee" in stdout and "predicted saturation" in stdout
        # Above saturation the model's mean latency is infinite: null, not
        # a bare Infinity token.
        payload = strict_json(out)
        assert payload["policy"] == "exhaustive"
        assert payload["knee"]["saturated"] is True
        assert payload["points"]
        for point in payload["points"]:
            assert point["completed"] + point["shed"] == point["offered_queries"]

        # An unsaturated sweep (rates far below the knee) fails the gate.
        predicted = payload["predicted_knee_qps"]
        low = str(round(0.2 * predicted, 1))
        code = main(
            ["serve", "--scale", "unit", "--policy", "exhaustive",
             "--queries", "60", "--distinct", "30", "--qps", low,
             "--fail-knee-tolerance", "0.25"]
        )
        assert code == 1
        assert "FAIL" in capsys.readouterr().err

    def test_all_shed_point_reports_no_latency(
        self, tmp_path, capsys, monkeypatch, unit_testbed
    ):
        """A point where every query is shed has no latency to report."""
        monkeypatch.setattr("repro.cli.Testbed.build", lambda scale: unit_testbed)
        out = tmp_path / "shed.json"
        code = main(
            ["serve", "--scale", "unit", "--policy", "exhaustive",
             "--deadline-slo-ms", "0.001", "--queries", "20", "--qps", "50",
             "--out", str(out)]
        )
        assert code == 0
        lines = capsys.readouterr().out.splitlines()
        row = next(line for line in lines if line.split()[:1] == ["50.0"])
        assert row.split()[4:7] == ["20", "-", "-"]  # shed, p50_ms, p99_ms
        payload = strict_json(out)
        (point,) = payload["points"]
        assert point["completed"] == 0 and point["shed"] == 20
        for field in ("mean_latency_ms", "p50_ms", "p95_ms", "p99_ms", "max_latency_ms"):
            assert point[field] is None
        # The deadline rule, not the load, emptied the point: no knee.
        assert payload["knee"]["saturated"] is False
        assert any(line.endswith("sweep never saturated)") for line in lines)


#: ``repro serve`` options and the one line each is rejected with.
HOSTILE_SERVE_KNOBS = [
    (["--queries", "0"], "invalid campaign: queries_per_point must be positive"),
    (["--queries", "-3"], "invalid campaign: queries_per_point must be positive"),
    *(
        (["--qps", qps],
         "invalid campaign: grid rates must be positive and finite")
        for qps in ("-5", "0", "nan", "inf")
    ),
    (["--max-in-flight", "0"], "invalid campaign: max_in_flight must be positive"),
    (["--max-in-flight", "-2"], "invalid campaign: max_in_flight must be positive"),
    *(
        (["--deadline-slo-ms", slo],
         "invalid campaign: deadline_slo_ms must be positive and finite")
        for slo in ("-1", "nan")
    ),
    (["--cache-capacity", "-1"],
     "invalid campaign: cache capacity must be non-negative"),
    (["--distinct", "0"], "--distinct must be positive, got 0"),
    (["--policy", "bogus"],
     "unknown policy 'bogus'; options: exhaustive, aggregation, taily, "
     "rank_s, cottage_without_ml, cottage_isn, cottage"),
    (["--scale", "bogus"], "unknown scale 'bogus'; use unit, small or full"),
    *(
        (["--fail-knee-tolerance", tolerance],
         "invalid campaign: --fail-knee-tolerance must be non-negative "
         f"and finite, got {float(tolerance)}")
        for tolerance in ("-1", "nan", "inf")
    ),
]


class TestHostileServeKnobs:
    """Each hostile ``repro serve`` knob is one line on stderr and exit 1."""

    @staticmethod
    def status(argv, capsys):
        """Exit status and stderr as the interpreter reports them."""
        try:
            code = main(argv)
        except SystemExit as stop:  # a str code is printed, the status is 1
            assert isinstance(stop.code, str)
            print(stop.code, file=sys.stderr)
            code = 1
        return code, capsys.readouterr().err

    @pytest.mark.parametrize(
        "argv, message", HOSTILE_SERVE_KNOBS,
        ids=[" ".join(argv) for argv, _ in HOSTILE_SERVE_KNOBS],
    )
    def test_rejected_before_any_testbed(self, argv, message, capsys, monkeypatch):
        def no_build(scale):
            raise AssertionError("testbed built before the options were checked")

        monkeypatch.setattr("repro.cli.Testbed.build", no_build)
        assert self.status(["serve", *argv], capsys) == (1, message + "\n")

    def test_unreachable_pool_size_fails_fast(self, unit_testbed, capsys, monkeypatch):
        """More distinct queries than the unit corpus yields: one line, exit 1.

        An unbounded draw loop spins for many minutes here, so a timer
        turns a hang into a failure instead of stalling the suite.
        """

        def hang(signum, frame):
            raise TimeoutError("repro serve --distinct 1000000 still drawing after 60 s")

        monkeypatch.setattr("repro.cli.Testbed.build", lambda scale: unit_testbed)
        previous = signal.signal(signal.SIGALRM, hang)
        signal.setitimer(signal.ITIMER_REAL, 60.0)
        try:
            code, err = self.status(
                ["serve", "--scale", "unit", "--queries", "200",
                 "--distinct", "1000000"], capsys,
            )
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0.0)
            signal.signal(signal.SIGALRM, previous)
        assert code == 1 and err.count("\n") == 1
        assert err.startswith(
            "n_distinct_queries=1000000 is more than this corpus's query model "
            "yields: "
        )
        # Imported here, so that without the bound the test fails by its
        # timer rather than at import.
        from repro.workloads.traces import MAX_REPEATED_DRAWS

        found, draws = (int(n) for n in re.findall(r"\d+", err.partition("yields:")[2]))
        assert draws - found == MAX_REPEATED_DRAWS + 1

#: Coordination code importing the serving layer above it: one ARCH-LAYER
#: finding, line 2.
UPWARD_IMPORT = '"""Core reaching up."""\nfrom repro.serving import ServingPlane\n'


class TestLintCommand:
    """The `repro lint` exit-code contract: 0 clean, 1 findings, 2 error."""

    def write(self, tmp_path, name, source):
        target = tmp_path / "repro" / "core" / name
        target.parent.mkdir(parents=True, exist_ok=True)
        target.write_text(source)
        return target

    def lint(self, tmp_path, *extra):
        return main(
            ["lint", str(tmp_path / "repro"), "--root", str(tmp_path), *extra]
        )

    def test_exit_zero_on_clean_tree(self, tmp_path, capsys):
        self.write(tmp_path, "clean.py", "def f(x):\n    return x + 1\n")
        assert self.lint(tmp_path) == 0
        assert "0 finding(s)" in capsys.readouterr().out

    def test_exit_one_on_findings(self, tmp_path, capsys):
        self.write(tmp_path, "dirty.py", UPWARD_IMPORT)
        assert self.lint(tmp_path) == 1
        out = capsys.readouterr().out
        assert "ARCH-LAYER" in out and "dirty.py:2" in out

    def test_exit_two_on_syntax_error(self, tmp_path, capsys):
        self.write(tmp_path, "broken.py", "def broken(:\n")
        assert self.lint(tmp_path) == 2
        assert "syntax error" in capsys.readouterr().err

    def test_exit_two_on_missing_path(self, tmp_path, capsys):
        code = main(["lint", str(tmp_path / "nope"), "--root", str(tmp_path)])
        assert code == 2
        assert "internal error" in capsys.readouterr().err

    def test_exit_two_on_unknown_rule(self, tmp_path, capsys):
        self.write(tmp_path, "clean.py", "x = 1\n")
        assert self.lint(tmp_path, "--rules", "NO-SUCH-RULE") == 2
        assert "unknown rule" in capsys.readouterr().err

    def test_github_format_emits_annotations(self, tmp_path, capsys):
        self.write(tmp_path, "dirty.py", UPWARD_IMPORT)
        assert self.lint(tmp_path, "--format", "github") == 1
        out = capsys.readouterr().out
        assert "::error file=" in out and "title=simlint ARCH-LAYER" in out

    def test_rule_subset_filter(self, tmp_path):
        self.write(tmp_path, "dirty.py", UPWARD_IMPORT)
        assert self.lint(tmp_path, "--rules", "ARCH-LAYER") == 1
        assert self.lint(tmp_path, "--rules", "FLOAT-ORDER") == 0
