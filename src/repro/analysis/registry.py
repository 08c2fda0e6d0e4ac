"""Rule base class and registry.

A rule is a small object with an identifier, a rationale, and a
``check`` method that walks one parsed file and yields findings.  Rules
self-register via the :func:`register` decorator, which makes the
registry the one list the engine and the CLI's ``--rules`` filter read:
drop a new class in ``rules.py`` — or any imported module — and both
pick it up without further wiring.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass
from typing import Iterable, Iterator, Sequence, TypeVar

from repro.analysis.findings import Finding


@dataclass
class FileContext:
    """Everything a rule may inspect about one file, parsed once."""

    path: str  # repo-relative POSIX path ("src/repro/core/budget.py")
    module_path: str  # path inside the repro package ("core/budget.py")
    source: str
    tree: ast.Module
    lines: list[str]

    def finding(self, rule: str, node: ast.AST, message: str) -> Finding:
        return Finding(
            path=self.path,
            line=getattr(node, "lineno", 1),
            col=getattr(node, "col_offset", 0),
            rule=rule,
            message=message,
        )


class Rule:
    """One invariant, checked syntactically.

    Subclasses set ``id`` / ``summary`` / ``rationale`` and implement
    :meth:`check`.  ``scope`` is a tuple of prefixes matched
    against :attr:`FileContext.module_path`; empty means every file.
    """

    id: str = ""
    summary: str = ""
    rationale: str = ""
    #: module-path prefixes (``"retrieval/"``) or exact files this rule
    #: runs on.
    scope: tuple[str, ...] = ()

    def applies_to(self, module_path: str) -> bool:
        return not self.scope or _matches_any(module_path, self.scope)

    def check(self, ctx: FileContext) -> Iterator[Finding]:
        raise NotImplementedError

    def __repr__(self) -> str:
        return f"<Rule {self.id}>"


def _matches_any(module_path: str, patterns: Sequence[str]) -> bool:
    return any(module_path.startswith(pattern) for pattern in patterns)


R = TypeVar("R", bound=type[Rule])

_REGISTRY: dict[str, Rule] = {}


def register(rule_cls: R) -> R:
    """Class decorator: instantiate the rule and add it to the registry."""
    rule = rule_cls()
    if not rule.id:
        raise ValueError(f"{rule_cls.__name__} has no rule id")
    if rule.id in _REGISTRY:
        raise ValueError(f"duplicate rule id {rule.id!r}")
    _REGISTRY[rule.id] = rule
    return rule_cls


def all_rules() -> tuple[Rule, ...]:
    """Every registered rule, in stable (sorted-by-id) order."""
    return tuple(_REGISTRY[rule_id] for rule_id in sorted(_REGISTRY))


def get_rules(ids: Iterable[str] | None = None) -> tuple[Rule, ...]:
    """Resolve an id selection (``None`` = all), rejecting unknown ids."""
    if ids is None:
        return all_rules()
    selected = []
    for rule_id in ids:
        if rule_id not in _REGISTRY:
            known = ", ".join(sorted(_REGISTRY))
            raise KeyError(f"unknown rule {rule_id!r}; known rules: {known}")
        selected.append(_REGISTRY[rule_id])
    return tuple(sorted(selected, key=lambda r: r.id))


def dotted_name(node: ast.expr) -> str | None:
    """``np.random.default_rng`` -> that string; None for non-name chains."""
    parts: list[str] = []
    current: ast.expr = node
    while isinstance(current, ast.Attribute):
        parts.append(current.attr)
        current = current.value
    if isinstance(current, ast.Name):
        parts.append(current.id)
        return ".".join(reversed(parts))
    return None

