"""The simlint engine: discover files, parse each once, run the rules.

One phase, one file at a time::

    read -> ast.parse -> run applicable rules -> drop pragma-suppressed

and per run: the findings of every file, sorted.  Nothing is carried
from one file to the next and nothing is kept between runs.

Pragma semantics live in :mod:`repro.analysis.pragmas`: a pragma governs
the smallest enclosing *statement* (header-only for compound
statements), and pragmas naming unknown rule ids produce warnings.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Sequence

from repro.analysis.findings import Finding, LintError, LintReport
from repro.analysis.pragmas import (
    expand_pragmas,
    parse_pragmas,
    unknown_rule_warnings,
)
from repro.analysis.registry import FileContext, Rule, all_rules

#: directories never worth descending into
_SKIP_DIRS = frozenset({"__pycache__", ".git", ".hypothesis"})


def _suppressed(finding: Finding, pragmas: dict[int, frozenset[str]]) -> bool:
    rules = pragmas.get(finding.line)
    return rules is not None and ("ALL" in rules or finding.rule.upper() in rules)


def module_path_of(rel_path: str) -> str:
    """Path inside the ``repro`` package, used for rule scoping.

    ``src/repro/core/budget.py`` -> ``core/budget.py``; paths without a
    ``repro`` component (fixture trees in tests) are used as-is.
    """
    parts = rel_path.split("/")
    for index in range(len(parts) - 1, -1, -1):
        if parts[index] == "repro":
            return "/".join(parts[index + 1 :])
    return rel_path


def discover_files(paths: Iterable[Path]) -> list[Path]:
    """Expand files/directories into a sorted list of ``.py`` files."""
    found: set[Path] = set()
    for path in paths:
        if path.is_dir():
            for candidate in path.rglob("*.py"):
                parts = set(candidate.parts)
                if parts & _SKIP_DIRS or any(
                    part.endswith(".egg-info") for part in candidate.parts
                ):
                    continue
                found.add(candidate)
        elif path.is_file():
            found.add(path)
        else:
            raise FileNotFoundError(f"no such file or directory: {path}")
    return sorted(found)


@dataclass
class LintEngine:
    """One configured analysis run.

    ``root`` anchors the repo-relative paths findings report; ``rules``
    defaults to the full registry.
    """

    root: Path
    rules: tuple[Rule, ...] = ()

    def __post_init__(self) -> None:
        self.root = self.root.resolve()
        if not self.rules:
            self.rules = all_rules()

    def rel_path(self, path: Path) -> str:
        resolved = path.resolve()
        try:
            return resolved.relative_to(self.root).as_posix()
        except ValueError:
            return resolved.as_posix()

    def check_file(self, path: Path, report: LintReport) -> None:
        """Analyze one file and add what it produced to ``report``."""
        rel = self.rel_path(path)
        report.files_scanned += 1
        try:
            source = path.read_text(encoding="utf-8")
        except (OSError, UnicodeDecodeError) as exc:
            report.errors.append(LintError(rel, f"unreadable: {exc}"))
            return
        try:
            tree = ast.parse(source, filename=rel)
        except SyntaxError as exc:
            lineno = exc.lineno or 1
            report.errors.append(
                LintError(rel, f"syntax error at line {lineno}: {exc.msg}")
            )
            return
        lines = source.splitlines()
        raw_pragmas = parse_pragmas(lines)
        pragmas = expand_pragmas(tree, raw_pragmas)
        report.warnings.extend(
            unknown_rule_warnings(rel, raw_pragmas, [rule.id for rule in all_rules()])
        )
        module_path = module_path_of(rel)
        ctx = FileContext(
            path=rel, module_path=module_path, source=source, tree=tree, lines=lines
        )
        for rule in self.rules:
            if not rule.applies_to(module_path):
                continue
            for finding in rule.check(ctx):
                if _suppressed(finding, pragmas):
                    report.pragma_suppressed += 1
                else:
                    report.findings.append(finding)

    def run(self, paths: Iterable[Path]) -> LintReport:
        """Lint ``paths`` (files or directory trees)."""
        report = LintReport()
        for path in discover_files(paths):
            self.check_file(path, report)
        report.findings.sort()
        report.warnings.sort(key=lambda w: (w.path, w.line, w.message))
        return report


def run_lint(
    paths: Sequence[Path | str],
    *,
    root: Path | str | None = None,
    rules: tuple[Rule, ...] | None = None,
) -> LintReport:
    """One-call API: lint ``paths``; ``root`` defaults to the current directory."""
    engine = LintEngine(
        root=Path(root) if root is not None else Path.cwd(), rules=rules or ()
    )
    return engine.run([Path(p) for p in paths])
