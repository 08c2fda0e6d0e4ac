"""The layer contract: ``docs/architecture.md`` as an import DAG.

The architecture document describes the package as a stack — foundation
side-cars at the bottom, the serving plane and experiment drivers at the
top — but until now nothing *enforced* it: a convenience import from
``index/`` into ``retrieval/`` would type-check, pass every test, and
quietly invert the dependency story.  ``ARCH-LAYER`` turns the prose
into a checked invariant: a module may import (at top level, at runtime)
only modules in its own layer or below.

Two escape hatches are deliberate and documented:

* ``if TYPE_CHECKING:`` imports — annotation-only upward references are
  fine because they never execute.
* Function-local (lazy) imports — an upward reference inside a function
  body is the sanctioned pattern for optional integration points (e.g.
  ``cluster/engine.py`` lazily importing the serving plane).

Neither is a direct statement of the module body, which is all the rule
reads.  Same-rank imports are unchecked: layers constrain the *stack*,
not siblings within a band.
"""

from __future__ import annotations

import ast
from typing import Iterator

from repro.analysis.findings import Finding
from repro.analysis.registry import FileContext, Rule, dotted_name, register

#: (rank, layer name, module-path prefixes) — longest prefix wins, so the
#: ``cluster/scenarios.py`` override beats the ``cluster/`` band.  Keep in
#: sync with the "Layer contract" table in ``docs/architecture.md``.
LAYERS: tuple[tuple[int, str, tuple[str, ...]], ...] = (
    (0, "foundation", (
        "telemetry/", "reporting/", "analysis/", "text/", "scoring/", "nn/",
    )),
    (1, "index", ("index/",)),
    (2, "retrieval", ("retrieval/",)),
    (3, "workloads", ("workloads/",)),
    (4, "cluster", ("cluster/",)),
    (5, "coordination", ("core/", "policies/", "predictors/", "metrics/")),
    (6, "serving", ("serving/",)),
    (7, "app", (
        "experiments/", "cli.py", "__main__.py", "__init__.py",
        # scenarios wire cluster runs to metrics ground truth; they are
        # drivers living in cluster/ for discoverability, not sim code.
        "cluster/scenarios.py",
    )),
)


def layer_of(module_path: str) -> tuple[int, str] | None:
    """Longest-prefix layer lookup; ``None`` for unassigned modules."""
    best: tuple[int, tuple[int, str]] | None = None
    for rank, name, prefixes in LAYERS:
        for prefix in prefixes:
            if module_path == prefix or (
                prefix.endswith("/") and module_path.startswith(prefix)
            ):
                if best is None or len(prefix) > best[0]:
                    best = (len(prefix), (rank, name))
    return best[1] if best is not None else None


def _layer_of_import(target: str) -> tuple[int, str] | None:
    """Layer of an absolute ``repro...`` import target, module or package."""
    if target == "repro":
        return layer_of("__init__.py")
    if not target.startswith("repro."):
        return None
    inner = target[len("repro."):].replace(".", "/")
    return layer_of(inner + ".py") or layer_of(inner + "/")


def _top_level_imports(body: list[ast.stmt]) -> Iterator[ast.Import | ast.ImportFrom]:
    """Imports that run when the module is imported."""
    for stmt in body:
        if isinstance(stmt, (ast.Import, ast.ImportFrom)):
            yield stmt
        elif isinstance(stmt, ast.If):
            name = dotted_name(stmt.test)
            if name is not None and name.split(".")[-1] == "TYPE_CHECKING":
                yield from _top_level_imports(stmt.orelse)


def _import_targets(
    node: ast.Import | ast.ImportFrom, package: list[str]
) -> Iterator[str]:
    """The dotted modules one import statement may load.

    ``from pkg import name`` yields both ``pkg`` and ``pkg.name``: the
    file alone cannot tell a submodule from a member, and the table may
    rank a submodule above its package.
    """
    if isinstance(node, ast.Import):
        for alias in node.names:
            yield alias.name
        return
    base = node.module or ""
    if node.level:
        anchor = package[: len(package) - (node.level - 1)]
        base = ".".join(anchor + ([base] if base else []))
    yield base
    for alias in node.names:
        yield f"{base}.{alias.name}"


@register
class ArchLayerRule(Rule):
    """No top-level runtime import may point up the layer stack."""

    id = "ARCH-LAYER"
    summary = "import edge pointing up the architecture layer stack"
    rationale = (
        "The layer DAG (foundation -> index -> retrieval -> workloads -> "
        "cluster -> coordination -> serving -> app) is what keeps the sim "
        "core importable without the serving plane and the side-cars free "
        "of sim dependencies; a back-edge couples build, test, and "
        "startup costs in the wrong direction.  Use a TYPE_CHECKING or "
        "function-local import for sanctioned upward references."
    )

    def check(self, ctx: FileContext) -> Iterator[Finding]:
        source_layer = layer_of(ctx.module_path)
        if source_layer is None:
            return
        # the package this file's relative imports resolve against; a
        # package facade re-exports its own submodules, including ones the
        # table promotes (cluster/scenarios.py -> app).
        package = ["repro", *ctx.module_path.split("/")[:-1]]
        facade_prefix = (
            ".".join(package) + "."
            if ctx.module_path.endswith("__init__.py")
            else None
        )
        for node in _top_level_imports(ctx.tree.body):
            flagged: list[str] = []
            for target in _import_targets(node, package):
                if facade_prefix is not None and target.startswith(facade_prefix):
                    continue
                target_layer = _layer_of_import(target)
                if target_layer is None or target_layer[0] <= source_layer[0]:
                    continue
                if any(target.startswith(seen + ".") for seen in flagged):
                    continue  # a name under an already-flagged package adds nothing
                flagged.append(target)
                yield ctx.finding(
                    self.id, node,
                    f"{source_layer[1]}-layer module imports "
                    f"{target} from the higher {target_layer[1]} "
                    "layer; invert the dependency, or make it a "
                    "TYPE_CHECKING/function-local import if it is an "
                    "annotation or optional integration point",
                )
