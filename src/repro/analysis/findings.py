"""Finding: one rule violation at one source location.

Findings are value objects — frozen, hashable, order-comparable — so the
engine can sort them and render them in either output format.
"""

from __future__ import annotations

from dataclasses import dataclass, field


@dataclass(frozen=True, order=True)
class Finding:
    """One rule violation: where it is, which rule, and why it matters."""

    path: str  # repo-relative POSIX path
    line: int  # 1-based, as ``ast`` reports it
    col: int  # 0-based, as ``ast`` reports it
    rule: str  # rule identifier, e.g. ``ARCH-LAYER``
    message: str  # human-readable explanation with the offending construct

    def render(self) -> str:
        """The classic compiler one-liner: ``path:line:col: RULE message``."""
        return f"{self.path}:{self.line}:{self.col}: {self.rule} {self.message}"

    def render_github(self) -> str:
        """GitHub Actions workflow-command annotation for this finding."""
        # '::' and newlines would terminate the workflow command early.
        safe = self.message.replace("\n", " ").replace("::", ":")
        return (
            f"::error file={self.path},line={self.line},"
            f"col={self.col + 1},title=simlint {self.rule}::{safe}"
        )


@dataclass(frozen=True)
class LintWarning:
    """A non-fatal diagnostic (e.g. a pragma naming an unknown rule id).

    Warnings never affect the exit code: they flag linter *usage*
    problems, not determinism-contract violations.
    """

    path: str
    line: int
    message: str

    def render(self) -> str:
        return f"{self.path}:{self.line}: warning: {self.message}"


@dataclass(frozen=True)
class LintError:
    """A file the engine could not analyze (syntax error, IO failure).

    Errors are *not* findings: they mean the determinism contract could
    not be checked at all, so the CLI maps them to exit code 2, never 1.
    """

    path: str
    message: str

    def render(self) -> str:
        return f"{self.path}: error: {self.message}"


@dataclass
class LintReport:
    """Everything one engine run produced."""

    findings: list[Finding] = field(default_factory=list)
    errors: list[LintError] = field(default_factory=list)
    warnings: list[LintWarning] = field(default_factory=list)
    files_scanned: int = 0
    pragma_suppressed: int = 0

    @property
    def clean(self) -> bool:
        return not self.findings and not self.errors

    def exit_code(self) -> int:
        """The CLI contract: 0 clean, 1 findings, 2 internal error."""
        if self.errors:
            return 2
        return 1 if self.findings else 0
