"""simlint — static analysis for what the test suite cannot see.

The evaluation only means something because every run is a pure function
of (seed, configuration).  A slip that breaks that on this interpreter
fails the run-twice tests and the pinned digests; ``repro.analysis``
checks the rest as machine-checked rules — float accumulation order in
the bit-identity kernels (``FLOAT-ORDER``) and the layer contract
(``ARCH-LAYER``).
One ``ast`` pass per file (:mod:`repro.analysis.rules` plus
:mod:`repro.analysis.layers`), a rule registry, and statement-scoped
pragma suppression.  A finding is fixed or pragma'd in place; nothing is
cached or grandfathered.

Run it as ``repro lint src/repro`` (exit 0 clean / 1 findings /
2 internal error), or call :func:`run_lint` directly.
"""

from __future__ import annotations

from repro.analysis import layers as _layers  # noqa: F401  (registers ARCH-LAYER)
from repro.analysis import rules as _rules  # noqa: F401  (registers the catalogue)
from repro.analysis.engine import (
    LintEngine,
    discover_files,
    module_path_of,
    run_lint,
)
from repro.analysis.findings import Finding, LintError, LintReport, LintWarning
from repro.analysis.pragmas import expand_pragmas, parse_pragmas
from repro.analysis.registry import (
    FileContext,
    Rule,
    all_rules,
    get_rules,
    register,
)

__all__ = [
    "FileContext",
    "Finding",
    "LintEngine",
    "LintError",
    "LintReport",
    "LintWarning",
    "Rule",
    "all_rules",
    "discover_files",
    "expand_pragmas",
    "get_rules",
    "module_path_of",
    "parse_pragmas",
    "register",
    "run_lint",
]
