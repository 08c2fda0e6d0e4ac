"""The two static invariants behind the simulated clock, read from the source.

Every claim here is measured on a simulated clock, which holds only while

* the layer stack holds: every import in a module, at every scope —
  module body, function bodies, ``if TYPE_CHECKING:`` blocks, package
  facades included — names only modules of its own layer or below
  (``LAYERS``, the table in ``docs/architecture.md``'s "Layer contract"),
  so the sim core stays importable without the serving plane and the
  side-cars free of sim code;
* the bit-identity kernels keep their accumulation order: in
  ``retrieval/kernels.py`` and ``index/arena.py`` float addition is part of
  the kernel-vs-scalar-reference contract, and ``sum``/``np.sum``/``.sum()``
  hide that order (numpy's pairwise sum blocks at eight elements, CPython
  3.12 compensates its float ``sum``).  Tier-1's queries have fewer than
  eight terms, so no run-twice test sees such a slip on 3.11.

Both checks are syntactic and local: no type inference, nothing followed
across files.  One runtime test backs the first: a closed-loop replay, in
a fresh interpreter, loads no ``repro.serving`` module.
"""

import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "repro"

#: (rank, layer name, module-path prefixes): a module's layer is its
#: package's, and the package root's own modules are ranked one by one.
LAYERS = (
    (0, "foundation", (
        "telemetry/", "reporting/", "text/", "scoring/", "nn/", "host.py",
    )),
    (1, "index", ("index/",)),
    (2, "retrieval", ("retrieval/",)),
    (3, "workloads", ("workloads/",)),
    (4, "cluster", ("cluster/",)),
    (5, "coordination", ("core/", "policies/", "predictors/", "metrics/")),
    (6, "serving", ("serving/",)),
    (7, "app", ("experiments/", "cli.py", "__main__.py", "__init__.py")),
)

#: The modules whose float reductions must be explicit ordered loops.
FLOAT_ORDER_SCOPE = ("retrieval/kernels.py", "index/arena.py")

#: Integer reductions, order-insensitive, exempt by (module, enclosing
#: function, the call's exact text): the same text elsewhere, or another
#: sum in the same function, is still flagged.
INTEGER_SUMS = (
    ("retrieval/kernels.py", "maxscore_search_kernel",
     "sum(run.size for run in runs)"),
    ("retrieval/kernels.py", "maxscore_search_kernel",
     "scored_cnt[: stop + 1].sum()"),
    ("index/arena.py", "packed_nbytes", """sum(
        int(getattr(self, name).nbytes)
        for name in (
            "offsets", "first_docs",
            "doc_widths", "doc_words", "doc_word_offsets",
            "score_kinds", "score_widths",
            "score_raw", "score_raw_offsets",
            "score_books", "score_book_offsets",
            "score_words", "score_word_offsets",
        )
    )"""),
)
# ``ast.unparse`` of the parsed text, so layout and the interpreter's own
# unparse style do not matter.
EXEMPT = {
    (module, function, ast.unparse(ast.parse(text, mode="eval").body))
    for module, function, text in INTEGER_SUMS
}


def layer_of(module_path):
    """``(rank, name)`` of a path inside ``repro``; ``None`` if unassigned."""
    for rank, name, prefixes in LAYERS:
        for prefix in prefixes:
            if module_path == prefix or (
                prefix.endswith("/") and module_path.startswith(prefix)
            ):
                return rank, name
    return None


def _layer_of_import(target):
    """Layer of an absolute ``repro...`` import target, module or package."""
    if target == "repro":
        return layer_of("__init__.py")
    if not target.startswith("repro."):
        return None
    inner = target[len("repro."):].replace(".", "/")
    return layer_of(inner + ".py") or layer_of(inner + "/")


def _import_targets(node, package):
    """The dotted modules one import names (``from pkg import name``: ``pkg``)."""
    if isinstance(node, ast.Import):
        return [alias.name for alias in node.names]
    base = node.module or ""
    if node.level:
        anchor = package[: len(package) - (node.level - 1)]
        base = ".".join(anchor + ([base] if base else []))
    return [base]


def upward_imports(module_path, source):
    """Import targets of ``module_path``, at any scope, in a higher layer."""
    source_layer = layer_of(module_path)
    if source_layer is None:
        return []  # test_every_module_has_a_layer reports it
    rank = source_layer[0]
    package = ["repro", *module_path.split("/")[:-1]]
    imports = sorted(
        (
            node for node in ast.walk(ast.parse(source))
            if isinstance(node, (ast.Import, ast.ImportFrom))
        ),
        key=lambda node: (node.lineno, node.col_offset),
    )
    flagged = []
    for node in imports:
        for target in _import_targets(node, package):
            target_layer = _layer_of_import(target)
            if target_layer is None or target_layer[0] <= rank:
                continue
            # a name under an already-flagged package adds nothing
            if not any(
                target == seen or target.startswith(seen + ".") for seen in flagged
            ):
                flagged.append(target)
    return flagged


def order_hiding_sums(module_path, source):
    """``function: call`` for each non-exempt sum in a bit-identity module."""
    if module_path not in FLOAT_ORDER_SCOPE:
        return []
    found = []

    def visit(node, function):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.Call) and (
                (isinstance(child.func, ast.Name) and child.func.id == "sum")
                or (isinstance(child.func, ast.Attribute) and child.func.attr == "sum")
            ):
                text = ast.unparse(child)
                if (module_path, function, text) not in EXEMPT:
                    found.append(f"{function}: {text}")
            inner = isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef))
            visit(child, child.name if inner else function)

    visit(ast.parse(source), "<module>")
    return found


def modules():
    """``(module path inside repro, source)`` of every ``.py`` under src/repro."""
    return [
        (path.relative_to(PACKAGE).as_posix(), path.read_text(encoding="utf-8"))
        for path in sorted(PACKAGE.rglob("*.py"))
    ]


def test_every_module_has_a_layer():
    """A new package must join LAYERS, or the import check cannot rank it."""
    assert [path for path, _ in modules() if layer_of(path) is None] == []


def test_no_module_imports_up_the_stack():
    upward = {
        path: targets
        for path, source in modules()
        if (targets := upward_imports(path, source))
    }
    assert upward == {}


def test_closed_loop_run_loads_no_serving_module():
    code = (
        "import sys; "
        "from repro.experiments import Scale, Testbed; "
        "bed = Testbed.build(Scale.unit()); "
        "bed.cluster.run_trace(bed.wikipedia_trace, bed.make_policy('cottage')); "
        "print(sorted(m for m in sys.modules if m.startswith('repro.serving')))"
    )
    done = subprocess.run(
        [sys.executable, "-c", code],
        env={**os.environ, "PYTHONPATH": str(PACKAGE.parent)},
        capture_output=True, text=True, timeout=300,
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "[]"


def test_kernel_sums_are_explicit():
    found = {
        path: order_hiding_sums(path, (PACKAGE / path).read_text(encoding="utf-8"))
        for path in FLOAT_ORDER_SCOPE
    }
    assert found == {path: [] for path in FLOAT_ORDER_SCOPE}


TYPE_CHECKING_AND_LOCAL = """\
from typing import TYPE_CHECKING

if TYPE_CHECKING:
    from repro.retrieval.result import SearchResult


def rescore(x):
    from repro.retrieval.kernels import score
    return score(x)
"""

TRY_WRAPPED = """\
try:
    from repro.serving import run_campaign
except ImportError:
    from repro.serving.stream import QueryStream
else:
    import repro.experiments
finally:
    pass
"""

IF_WRAPPED = """\
import sys

if sys.version_info >= (3, 11):
    from repro.serving import run_campaign
else:
    with open(__file__):
        from repro.experiments import testbed


class Plane:
    from repro.cli import main
"""

EXPLICIT_LOOP = """\
def upper_bound(scores):
    acc = 0.0
    for s in scores:
        acc += float(s)
    return acc
"""


@pytest.mark.parametrize(("module_path", "source", "expected"), [
    pytest.param(
        "index/store.py", "from repro.retrieval.kernels import score\n",
        ["repro.retrieval.kernels"], id="absolute-back-edge"),
    pytest.param(
        "core/budget.py", "from repro.serving import run_campaign\n",
        ["repro.serving"], id="coordination-imports-serving"),
    pytest.param(
        "index/store.py", "from ..retrieval import kernels\n",
        ["repro.retrieval"], id="relative-back-edge"),
    pytest.param(
        "core/budget.py", TRY_WRAPPED,
        ["repro.serving", "repro.experiments"], id="try-wrapped-back-edges"),
    pytest.param(
        "core/budget.py", IF_WRAPPED,
        ["repro.serving", "repro.experiments", "repro.cli"],
        id="if-with-and-class-wrapped-back-edges"),
    pytest.param(
        "retrieval/kernels.py", "from repro.index.store import load\n",
        [], id="downward-import"),
    pytest.param(
        "index/store.py", TYPE_CHECKING_AND_LOCAL,
        ["repro.retrieval.result", "repro.retrieval.kernels"],
        id="type-checking-and-function-local"),
    pytest.param(
        "cluster/__init__.py", "from repro.cluster import scenarios\n",
        [], id="facade-self-import"),
    pytest.param(
        "retrieval/kernels.py", "def upper_bound(scores):\n    return sum(scores)\n",
        ["upper_bound: sum(scores)"], id="builtin-sum"),
    pytest.param(
        "index/arena.py",
        "import numpy as np\n"
        "def total(col):\n"
        "    return np.sum(col) + numpy.sum(col)\n",
        ["total: np.sum(col)", "total: numpy.sum(col)"], id="np-sum"),
    pytest.param(
        "retrieval/kernels.py", "def total(col):\n    return col[:3].sum()\n",
        ["total: col[:3].sum()"], id="method-sum"),
    pytest.param(
        "retrieval/kernels.py",
        "def maxscore_search_kernel(runs, ubs):\n"
        "    n = sum(run.size for run in runs)\n"
        "    return n + np.sum(ubs)\n",
        ["maxscore_search_kernel: np.sum(ubs)"], id="exempt-call-beside-a-plant"),
    pytest.param(
        "retrieval/kernels.py",
        "def other(scored_cnt, stop):\n    return scored_cnt[: stop + 1].sum()\n",
        ["other: scored_cnt[:stop + 1].sum()"], id="exempt-text-in-another-function"),
    pytest.param(
        "retrieval/kernels.py", EXPLICIT_LOOP, [], id="explicit-loop"),
    pytest.param(
        "metrics/summary.py", "def total(xs):\n    return sum(xs)\n",
        [], id="sum-outside-scope"),
])
def test_checker(module_path, source, expected):
    assert upward_imports(module_path, source) + order_hiding_sums(
        module_path, source
    ) == expected
