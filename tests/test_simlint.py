"""Fixture-driven self-tests for the simlint static analyzer.

Every rule gets at least one known-bad snippet it must fire on and one
known-clean snippet it must stay silent on; plus engine-level coverage
for pragma suppression, the layer contract, and a meta-test asserting
the tree as committed is lint-clean.
"""

from pathlib import Path

import pytest

from repro.analysis import (
    LintEngine,
    all_rules,
    discover_files,
    get_rules,
    module_path_of,
    parse_pragmas,
    run_lint,
)
from repro.analysis.layers import layer_of

REPO_ROOT = Path(__file__).resolve().parents[1]

RULE_IDS = {"FLOAT-ORDER", "ARCH-LAYER"}


#: A module inside FLOAT-ORDER's scope, where ``sum(...)`` is a finding.
KERNELS = "retrieval/kernels.py"


def lint_snippet(tmp_path, source, module_path="core/snippet.py", rules=None):
    """Write ``source`` at ``repro/<module_path>`` and lint it."""
    target = tmp_path / "repro" / module_path
    target.parent.mkdir(parents=True, exist_ok=True)
    target.write_text(source)
    engine = LintEngine(root=tmp_path, rules=get_rules(rules) if rules else ())
    return engine.run([target])


def rule_hits(report, rule_id):
    return [f for f in report.findings if f.rule == rule_id]


class TestRegistry:
    def test_all_rules_registered(self):
        assert {rule.id for rule in all_rules()} == RULE_IDS

    def test_rules_have_docs(self):
        for rule in all_rules():
            assert rule.summary, rule.id
            assert rule.rationale, rule.id

    def test_unknown_rule_rejected(self):
        with pytest.raises(KeyError, match="NO-SUCH-RULE"):
            get_rules(["NO-SUCH-RULE"])

    def test_module_path_of(self):
        assert module_path_of("src/repro/core/budget.py") == "core/budget.py"
        assert module_path_of("repro/retrieval/kernels.py") == "retrieval/kernels.py"
        assert module_path_of("elsewhere/thing.py") == "elsewhere/thing.py"


class TestFloatOrder:
    def test_fires_on_builtin_sum_in_kernels(self, tmp_path):
        report = lint_snippet(
            tmp_path,
            "def upper_bound(scores):\n"
            "    return sum(scores)\n",
            module_path="retrieval/kernels.py",
        )
        assert len(rule_hits(report, "FLOAT-ORDER")) == 1

    def test_fires_on_np_sum_in_arena(self, tmp_path):
        report = lint_snippet(
            tmp_path,
            "import numpy as np\n"
            "def total(col):\n"
            "    return np.sum(col)\n",
            module_path="index/arena.py",
        )
        assert len(rule_hits(report, "FLOAT-ORDER")) == 1

    def test_clean_on_explicit_loop(self, tmp_path):
        report = lint_snippet(
            tmp_path,
            "def upper_bound(scores):\n"
            "    acc = 0.0\n"
            "    for s in scores:\n"
            "        acc += float(s)\n"
            "    return acc\n",
            module_path="retrieval/kernels.py",
        )
        assert not rule_hits(report, "FLOAT-ORDER")

    def test_sum_outside_kernel_scope_not_checked(self, tmp_path):
        report = lint_snippet(
            tmp_path,
            "def total(xs):\n"
            "    return sum(xs)\n",
            module_path="metrics/summary2.py",
        )
        assert not rule_hits(report, "FLOAT-ORDER")


class TestPragmas:
    def test_parse(self):
        pragmas = parse_pragmas(
            [
                "x = 1",
                "y = sum(xs)  # simlint: disable=FLOAT-ORDER -- integer counts",
                "z = f()  # simlint: disable=ARCH-LAYER,FLOAT-ORDER",
                "w = g()  # simlint: disable=all",
            ]
        )
        assert pragmas == {
            2: frozenset({"FLOAT-ORDER"}),
            3: frozenset({"ARCH-LAYER", "FLOAT-ORDER"}),
            4: frozenset({"ALL"}),
        }

    def test_suppresses_matching_rule_only(self, tmp_path):
        report = lint_snippet(
            tmp_path,
            "a = sum(xs)  # simlint: disable=FLOAT-ORDER -- fixture\n"
            "b = sum(xs)  # simlint: disable=ARCH-LAYER -- wrong rule\n"
            "c = sum(xs)\n",
            module_path=KERNELS,
        )
        assert len(rule_hits(report, "FLOAT-ORDER")) == 2
        assert report.pragma_suppressed == 1

    def test_disable_all(self, tmp_path):
        report = lint_snippet(
            tmp_path,
            "a = sum(xs)  # simlint: disable=all -- fixture\n",
            module_path=KERNELS,
        )
        assert not report.findings
        assert report.pragma_suppressed == 1

    def test_pragma_on_any_line_of_multiline_statement(self, tmp_path):
        # The finding anchors to the call line; the pragma sits on the
        # closing-paren line.  Both live inside one statement span, so
        # the pragma governs the whole statement.
        report = lint_snippet(
            tmp_path,
            "x = sum(\n"
            "    xs\n"
            ")  # simlint: disable=FLOAT-ORDER -- fixture\n",
            module_path=KERNELS,
        )
        assert not rule_hits(report, "FLOAT-ORDER")
        assert report.pragma_suppressed == 1

    def test_pragma_covers_whole_parenthesized_statement(self, tmp_path):
        # One pragma inside a bracketed literal suppresses every finding
        # the statement produces — the span is the statement, not a line.
        report = lint_snippet(
            tmp_path,
            "vals = [\n"
            "    sum(xs),  # simlint: disable=FLOAT-ORDER -- fixture\n"
            "    sum(ys),\n"
            "]\n",
            module_path=KERNELS,
        )
        assert not rule_hits(report, "FLOAT-ORDER")
        assert report.pragma_suppressed == 2

    def test_pragma_on_decorated_def_header(self, tmp_path):
        # A compound statement's pragma span is the *header* only
        # (decorators through the def line), so a pragma on either the
        # decorator or the signature suppresses a header finding.
        for pragma_line in (
            "@functools.lru_cache  # simlint: disable=FLOAT-ORDER -- fixture\n"
            "def config(total=sum(())):\n",
            "@functools.lru_cache\n"
            "def config(total=sum(())):  # simlint: disable=FLOAT-ORDER -- fixture\n",
        ):
            report = lint_snippet(
                tmp_path,
                "import functools\n" + pragma_line + "    return total\n",
                module_path=KERNELS,
            )
            assert not rule_hits(report, "FLOAT-ORDER"), pragma_line
            assert report.pragma_suppressed == 1

    def test_body_pragma_does_not_leak_to_header(self, tmp_path):
        # A pragma on a body statement has its own (body-statement) span;
        # it must not swallow findings anchored to the def header.
        report = lint_snippet(
            tmp_path,
            "def config(total=sum(())):\n"
            "    return total  # simlint: disable=FLOAT-ORDER -- wrong place\n",
            module_path=KERNELS,
        )
        assert len(rule_hits(report, "FLOAT-ORDER")) == 1
        assert report.pragma_suppressed == 0

    def test_unknown_rule_id_warns_without_failing(self, tmp_path):
        report = lint_snippet(
            tmp_path,
            "x = 1  # simlint: disable=FLOAT-ORDR -- typo\n",
        )
        assert not report.findings
        assert len(report.warnings) == 1
        warning = report.warnings[0]
        assert "FLOAT-ORDR" in warning.message
        assert warning.line == 1
        assert report.exit_code() == 0

    def test_known_rule_and_all_do_not_warn(self, tmp_path):
        report = lint_snippet(
            tmp_path,
            "a = sum(xs)  # simlint: disable=FLOAT-ORDER -- fixture\n"
            "b = sum(xs)  # simlint: disable=all -- fixture\n",
            module_path=KERNELS,
        )
        assert not report.warnings


def lint_tree(tmp_path, files):
    """Write ``files`` (module path -> source) under ``repro/`` and lint it."""
    for rel, source in files.items():
        target = tmp_path / "repro" / rel
        target.parent.mkdir(parents=True, exist_ok=True)
        target.write_text(source)
    return run_lint([tmp_path / "repro"], root=tmp_path)


LAYER_BAD = {
    "__init__.py": "",
    "index/__init__.py": "",
    "index/store.py": "from repro.retrieval.kernels import score\n",
    "retrieval/__init__.py": "",
    "retrieval/kernels.py": "def score(x):\n    return x\n",
}


class TestArchLayer:
    def test_back_edge_flagged(self, tmp_path):
        report = lint_tree(tmp_path, LAYER_BAD)
        hits = rule_hits(report, "ARCH-LAYER")
        assert len(hits) == 1
        finding = hits[0]
        assert finding.path == "repro/index/store.py"
        assert "retrieval" in finding.message

    def test_relative_and_promoted_submodule_back_edges_flagged(self, tmp_path):
        tree = dict(LAYER_BAD)
        tree["index/store.py"] = "from ..retrieval import kernels\n"
        # cluster/scenarios.py is ranked above its package: only the
        # ``pkg.name`` reading of ``from pkg import name`` sees it.
        tree["cluster/engine.py"] = "from repro.cluster import scenarios\n"
        hits = rule_hits(lint_tree(tmp_path, tree), "ARCH-LAYER")
        assert [f.path for f in hits] == [
            "repro/cluster/engine.py", "repro/index/store.py",
        ]
        assert "repro.cluster.scenarios" in hits[0].message

    def test_downward_edge_clean(self, tmp_path):
        tree = {
            "__init__.py": "",
            "index/__init__.py": "",
            "index/store.py": "def load():\n    return ()\n",
            "retrieval/__init__.py": "",
            "retrieval/kernels.py": "from repro.index.store import load\n",
        }
        report = lint_tree(tmp_path, tree)
        assert not rule_hits(report, "ARCH-LAYER")

    def test_type_checking_and_lazy_imports_sanctioned(self, tmp_path):
        tree = dict(LAYER_BAD)
        tree["index/store.py"] = (
            "from typing import TYPE_CHECKING\n"
            "\n"
            "if TYPE_CHECKING:\n"
            "    from repro.retrieval.kernels import score\n"
            "\n"
            "\n"
            "def rescore(x):\n"
            "    from repro.retrieval.kernels import score\n"
            "    return score(x)\n"
        )
        report = lint_tree(tmp_path, tree)
        assert not rule_hits(report, "ARCH-LAYER")

    def test_facade_self_import_sanctioned(self, tmp_path):
        tree = {
            "cluster/__init__.py": "from repro.cluster import scenarios\n",
            "cluster/scenarios.py": "",
        }
        report = lint_tree(tmp_path, tree)
        assert not rule_hits(report, "ARCH-LAYER")

    def test_layer_contract_holds_on_src_repro(self):
        engine = LintEngine(root=REPO_ROOT, rules=get_rules(["ARCH-LAYER"]))
        report = engine.run([REPO_ROOT / "src" / "repro"])
        assert not report.findings, [f.render() for f in report.findings]

    def test_every_module_has_a_layer(self):
        """A new top-level package must be added to LAYERS to be checked."""
        package = REPO_ROOT / "src" / "repro"
        unassigned = [
            path.relative_to(package).as_posix()
            for path in discover_files([package])
            if layer_of(path.relative_to(package).as_posix()) is None
        ]
        assert not unassigned


class TestErrors:
    def test_syntax_error_is_error_not_finding(self, tmp_path):
        target = tmp_path / "repro" / "core" / "broken.py"
        target.parent.mkdir(parents=True)
        target.write_text("def broken(:\n")
        report = LintEngine(root=tmp_path).run([target])
        assert not report.findings
        assert len(report.errors) == 1
        assert report.exit_code() == 2

    def test_missing_path_raises(self, tmp_path):
        engine = LintEngine(root=tmp_path)
        with pytest.raises(FileNotFoundError):
            engine.run([tmp_path / "does-not-exist"])


class TestTreeIsClean:
    def test_repro_lint_src_repro_exits_zero(self):
        """The tree as committed carries no findings."""
        from repro.cli import main

        code = main(
            ["lint", str(REPO_ROOT / "src" / "repro"), "--root", str(REPO_ROOT)]
        )
        assert code == 0

    def test_run_lint_api_matches(self):
        report = run_lint([REPO_ROOT / "src" / "repro"], root=REPO_ROOT)
        assert report.clean
        assert report.files_scanned > 100
