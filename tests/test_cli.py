"""Tests for the command-line interface."""

import pytest

from repro.cli import FIGURES, build_parser, main


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
            (["faults", "--replicas", "0"], "need at least one replica"),
            (
                ["faults", "--response-timeout-ms", "-1"],
                "--response-timeout-ms must be positive",
            ),
            (["faults", "--policies", "nosuch"], "unknown policy 'nosuch'"),
            (["serve", "--deadline-slo-ms", "nan"], "deadline_slo_ms must be positive"),
            (["serve", "--deadline-slo-ms", "inf"], "deadline_slo_ms must be positive"),
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
        from repro.experiments.oracle_sweep import build_corpus
        from repro.index import pack_shards

        pack_shards(build_corpus(2, 50, 30, seed=3), tmp_path)
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


class TestFaultsCommand:
    def test_faults_args(self):
        args = build_parser().parse_args(
            ["faults", "--scenarios", "outage", "slow_replica",
             "--policies", "cottage", "--replicas", "3", "--seed", "9",
             "--out", "m.json"]
        )
        assert args.scenarios == ["outage", "slow_replica"]
        assert args.policies == ["cottage"]
        assert args.replicas == 3
        assert args.seed == 9
        assert args.out == "m.json"

    def test_unknown_scenario_exits_one(self, capsys):
        assert main(["faults", "--scenarios", "meteor_strike"]) == 1
        assert "unknown scenario" in capsys.readouterr().err

    def test_faults_matrix_writes_json(self, tmp_path, capsys):
        import json

        out = tmp_path / "faults.json"
        code = main(
            ["faults", "--scale", "unit", "--scenarios", "outage",
             "--policies", "exhaustive", "--out", str(out)]
        )
        assert code == 0
        stdout = capsys.readouterr().out
        assert "scenario" in stdout and "outage" in stdout
        payload = json.loads(out.read_text())
        assert payload["scale"] == "unit"
        assert payload["response_timeout_ms"] == 150.0
        # One primary baseline plus hedged and tied cells.
        assert len(payload["cells"]) == 3
        modes = {cell["mode"] for cell in payload["cells"]}
        assert modes == {"primary", "hedged", "tied"}
        for cell in payload["cells"]:
            assert cell["scenario"] == "outage"
            assert cell["p99_latency_ms"] > 0.0


class TestServeCommand:
    def test_serve_args(self):
        args = build_parser().parse_args(
            ["serve", "--policy", "cottage", "--qps", "50", "100",
             "--queries", "500", "--arrival", "mmpp", "--seed", "7",
             "--max-in-flight", "64", "--out", "s.json",
             "--fail-knee-tolerance", "0.25"]
        )
        assert args.policy == "cottage"
        assert args.qps == [50.0, 100.0]
        assert args.queries == 500
        assert args.arrival == "mmpp"
        assert args.seed == 7
        assert args.max_in_flight == 64
        assert args.fail_knee_tolerance == 0.25

    def test_unknown_policy_exits_one(self, capsys):
        assert main(["serve", "--policy", "psychic"]) == 1
        assert "unknown policy" in capsys.readouterr().err

    def test_unknown_arrival_is_rejected_by_parser(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["serve", "--arrival", "fractal"])

    def test_unknown_scale(self):
        with pytest.raises(SystemExit):
            main(["serve", "--scale", "enormous"])

    def test_invalid_campaign_exits_one(self, capsys):
        assert main(["serve", "--queries", "0"]) == 1
        assert "invalid campaign" in capsys.readouterr().err

    def test_serve_sweep_writes_json_and_gates(self, tmp_path, capsys):
        import json

        out = tmp_path / "campaign.json"
        code = main(
            ["serve", "--scale", "unit", "--policy", "exhaustive",
             "--queries", "200", "--distinct", "30", "--out", str(out)]
        )
        assert code == 0
        stdout = capsys.readouterr().out
        assert "measured knee" in stdout and "predicted saturation" in stdout
        payload = json.loads(out.read_text())
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
        self.write(tmp_path, "dirty.py", "import random\nx = random.random()\n")
        assert self.lint(tmp_path) == 1
        out = capsys.readouterr().out
        assert "DET-RNG" in out and "dirty.py:2" in out

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
        self.write(tmp_path, "dirty.py", "import random\nx = random.random()\n")
        assert self.lint(tmp_path, "--format", "github") == 1
        out = capsys.readouterr().out
        assert "::error file=" in out and "title=simlint DET-RNG" in out

    def test_rule_subset_filter(self, tmp_path):
        self.write(
            tmp_path, "dirty.py",
            "import random\nx = random.random()\ndef f(a=[]):\n    return a\n",
        )
        assert self.lint(tmp_path, "--rules", "MUT-DEFAULT") == 1
        assert self.lint(tmp_path, "--rules", "DET-CLOCK") == 0
