"""Pragma parsing and statement-aware expansion.

Suppression is part of the file content::

    n = sum(counts)  # simlint: disable=FLOAT-ORDER -- integer counts
    another()        # simlint: disable=FLOAT-ORDER,ARCH-LAYER
    anything()       # simlint: disable=all -- escape hatch

A pragma suppresses findings anchored anywhere on the *statement* it
sits on, not just its own physical line.  That matters for multi-line
statements (implicit continuation puts the pragma on the closing line
while the finding anchors on the opening one) and for decorated defs
(the finding anchors on a default-argument line inside the signature).
Expansion is deliberately bounded: for compound statements (defs,
loops, ``with``/``try`` blocks) only the *header* — decorators through
the line before the first body statement — is covered, so a pragma on a
``def`` line never blankets the whole function body.

Pragmas naming rule ids the registry does not know are reported as
warnings instead of silently suppressing nothing (a typo'd id would
otherwise look like a working exemption).
"""

from __future__ import annotations

import ast
import re
from typing import Iterable, Sequence

from repro.analysis.findings import LintWarning

_PRAGMA_RE = re.compile(r"#\s*simlint:\s*disable=([A-Za-z0-9_\-,\s]+?)(?:--.*)?$")


def parse_pragmas(lines: Sequence[str]) -> dict[int, frozenset[str]]:
    """Map 1-based line number -> rule ids disabled on that line."""
    pragmas: dict[int, frozenset[str]] = {}
    for lineno, line in enumerate(lines, start=1):
        if "simlint" not in line:
            continue
        match = _PRAGMA_RE.search(line)
        if match is None:
            continue
        rules = frozenset(
            token.strip().upper()
            for token in match.group(1).split(",")
            if token.strip()
        )
        if rules:
            pragmas[lineno] = rules
    return pragmas


def _statement_spans(tree: ast.Module) -> list[tuple[int, int]]:
    """(start, end) line spans a pragma may govern, smallest-first lookup.

    Simple statements span their full extent; compound statements span
    only their header (decorators included, body excluded).
    """
    spans: list[tuple[int, int]] = []
    for node in ast.walk(tree):
        if not isinstance(node, ast.stmt):
            continue
        end = getattr(node, "end_lineno", None) or node.lineno
        start = node.lineno
        body = getattr(node, "body", None)
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            for decorator in node.decorator_list:
                start = min(start, decorator.lineno)
        if isinstance(body, list) and body and isinstance(body[0], ast.stmt):
            # compound statement: cover decorators + signature/header only
            end = max(start, body[0].lineno - 1)
        spans.append((start, end))
    return spans


def expand_pragmas(
    tree: ast.Module, pragmas: dict[int, frozenset[str]]
) -> dict[int, frozenset[str]]:
    """Spread each pragma over the smallest statement span containing it."""
    if not pragmas:
        return {}
    spans = _statement_spans(tree)
    expanded: dict[int, set[str]] = {}
    for lineno, rules in pragmas.items():
        best: tuple[int, int] | None = None
        for start, end in spans:
            if start <= lineno <= end:
                if best is None or (end - start) < (best[1] - best[0]):
                    best = (start, end)
        covered = range(best[0], best[1] + 1) if best is not None else (lineno,)
        for line in covered:
            expanded.setdefault(line, set()).update(rules)
    return {line: frozenset(rules) for line, rules in expanded.items()}


def unknown_rule_warnings(
    path: str, pragmas: dict[int, frozenset[str]], known_ids: Iterable[str]
) -> list[LintWarning]:
    """Warn on pragma tokens that name no registered rule (typo guard)."""
    known = {rule_id.upper() for rule_id in known_ids} | {"ALL"}
    warnings: list[LintWarning] = []
    for lineno in sorted(pragmas):
        for token in sorted(pragmas[lineno]):
            if token not in known:
                warnings.append(
                    LintWarning(
                        path=path,
                        line=lineno,
                        message=(
                            f"pragma disables unknown rule {token!r}; it "
                            "suppresses nothing (known rules: "
                            + ", ".join(sorted(known - {"ALL"}))
                            + ")"
                        ),
                    )
                )
    return warnings
