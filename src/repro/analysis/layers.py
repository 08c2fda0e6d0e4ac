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

Both arrive in the graph as ``top_level=False`` edges and are skipped.
Same-rank imports are unchecked: layers constrain the *stack*, not
siblings within a band.
"""

from __future__ import annotations

from typing import Iterator

from repro.analysis.findings import Finding
from repro.analysis.graph import ProjectContext, module_path_from_dotted
from repro.analysis.registry import ProjectRule, register

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


@register
class ArchLayerRule(ProjectRule):
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

    def check_project(self, project: ProjectContext) -> Iterator[Finding]:
        for module in sorted(project.edges):
            facts = project.modules.get(module)
            if facts is None:
                continue
            source_layer = layer_of(facts.module_path)
            if source_layer is None:
                continue
            # a package facade re-exports its own submodules, including
            # ones the table promotes (cluster/scenarios.py -> app).
            own_prefix = (
                module + "."
                if facts.module_path.endswith("__init__.py")
                else None
            )
            for edge in project.edges[module]:
                if not edge.top_level:
                    continue
                if own_prefix is not None and edge.target.startswith(own_prefix):
                    continue
                target_facts = project.modules.get(edge.target)
                target_path = (
                    target_facts.module_path
                    if target_facts is not None
                    else module_path_from_dotted(edge.target)
                )
                target_layer = layer_of(target_path)
                if target_layer is None or target_layer[0] <= source_layer[0]:
                    continue
                yield Finding(
                    path=facts.rel_path,
                    line=edge.lineno,
                    col=edge.col,
                    rule=self.id,
                    message=(
                        f"{source_layer[1]}-layer module imports "
                        f"{edge.target} from the higher {target_layer[1]} "
                        "layer; invert the dependency, or make it a "
                        "TYPE_CHECKING/function-local import if it is an "
                        "annotation or optional integration point"
                    ),
                )
