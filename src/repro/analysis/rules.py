"""The simlint rule catalogue.

A rule stays only while it catches what the tier-1 suite cannot.  A slip
that moves a simulated outcome on this interpreter — a wall-clock read,
a process-global RNG draw, hash-ordered iteration, a mutable default
shared across calls — already fails the run-twice tests and the pinned
digests, so it has no rule (DESIGN.md's audit holds the planted-violation
evidence).  What is left:

* ``FLOAT-ORDER`` — a reduction whose order matches the scalar reference
  today and stops matching later: numpy's pairwise sum blocks at eight
  elements, CPython 3.12 compensates its float ``sum``, and tier-1's
  queries have fewer than eight terms on 3.11;
* ``TEL-BIND`` — a telemetry bind leaked on an exception path no passing
  run exercises.

``ARCH-LAYER`` lives in :mod:`repro.analysis.layers`.  Rules are
syntactic and local by design: no type inference, no cross-file
dataflow; the pragma mechanism documents what is intentionally exempt.
"""

from __future__ import annotations

import ast
from typing import Iterator

from repro.analysis.findings import Finding
from repro.analysis.registry import (
    FileContext,
    Rule,
    dotted_name,
    register,
)

__all__ = ["FloatOrderRule", "TelBindRule"]


# --------------------------------------------------------------------------
# FLOAT-ORDER
# --------------------------------------------------------------------------


@register
class FloatOrderRule(Rule):
    """No order-hiding reductions in bit-identity float kernels.

    ``retrieval/kernels.py`` and ``index/arena.py`` promise results
    bit-identical to their scalar reference implementations, and
    float addition is not associative — the *accumulation order* is part
    of the contract.  ``sum(...)`` (and ``np.sum``/``.sum()`` with their
    pairwise reduction) hide that order behind an implementation detail;
    write the explicit ordered loop, or pragma an integer reduction with
    a justification.
    """

    id = "FLOAT-ORDER"
    summary = "order-hiding reduction in a bit-identity kernel"
    rationale = (
        "Float accumulation order is part of the kernel-vs-reference "
        "bit-identity contract; sum() makes it implicit and fragile."
    )
    scope = ("retrieval/kernels.py", "index/arena.py")

    def check(self, ctx: FileContext) -> Iterator[Finding]:
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.Call):
                continue
            name = dotted_name(node.func)
            if name == "sum":
                yield ctx.finding(
                    self.id, node,
                    "builtin sum() hides accumulation order in a "
                    "bit-identity kernel; use an explicit ordered loop "
                    "(or pragma an order-insensitive integer reduction)",
                )
            elif name in ("np.sum", "numpy.sum"):
                yield ctx.finding(
                    self.id, node,
                    f"{name}() uses pairwise reduction whose split points "
                    "depend on array layout; make the accumulation order "
                    "explicit in this bit-identity kernel",
                )


# --------------------------------------------------------------------------
# TEL-BIND
# --------------------------------------------------------------------------


@register
class TelBindRule(Rule):
    """Every ``bind_telemetry`` swap must be restored in a ``finally``.

    The discipline PR 3 established: a run binds live telemetry into
    long-lived objects (searchers, policies, predictor bank)
    and *must* rebind the disabled session on the way out, or a crashed
    run leaves stale tracers recording into a dead session — and the
    next run's spans interleave with them.  Delegating binders (a
    ``bind_telemetry`` method forwarding to children) are exempt: their
    caller owns the restore.
    """

    id = "TEL-BIND"
    summary = "bind_telemetry without a finally restore"
    rationale = (
        "A bind without a guaranteed rebind leaks a live telemetry "
        "session into the next run on any exception path."
    )

    def check(self, ctx: FileContext) -> Iterator[Finding]:
        for scope, name in _iter_bind_scopes(ctx.tree):
            if name == "bind_telemetry":
                continue  # delegation inside a binder; caller restores
            binds = _bind_calls(scope)
            if not binds:
                continue
            in_finally = _calls_in_finally_blocks(scope)
            unguarded = [call for call in binds if id(call) not in in_finally]
            if not unguarded:
                continue
            # A scope that *does* restore in some finally covers its
            # earlier binds (the engine.run_trace shape).
            if any(id(call) in in_finally for call in binds):
                continue
            for call in unguarded:
                yield ctx.finding(
                    self.id, call,
                    "bind_telemetry(...) swap has no finally that rebinds "
                    "the prior session; wrap the run in try/finally and "
                    "restore NO_TELEMETRY (or the previous binding)",
                )


def _iter_bind_scopes(tree: ast.Module) -> Iterator[tuple[ast.AST, str]]:
    """Yield (scope, scope_name) for the module and each function, where
    the scope's *direct* body excludes nested function bodies."""
    yield tree, "<module>"
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            yield node, node.name


def _direct_walk(scope: ast.AST) -> Iterator[ast.AST]:
    """Walk a scope without descending into nested function definitions."""
    body = scope.body if isinstance(scope, (ast.Module, ast.FunctionDef, ast.AsyncFunctionDef)) else []
    stack: list[ast.AST] = list(body)
    while stack:
        node = stack.pop()
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            continue  # a nested scope of its own
        yield node
        stack.extend(ast.iter_child_nodes(node))


def _is_bind_call(node: ast.AST) -> bool:
    return (
        isinstance(node, ast.Call)
        and isinstance(node.func, ast.Attribute)
        and node.func.attr == "bind_telemetry"
    )


def _bind_calls(scope: ast.AST) -> list[ast.Call]:
    return [node for node in _direct_walk(scope) if _is_bind_call(node)]


def _calls_in_finally_blocks(scope: ast.AST) -> set[int]:
    """ids of bind calls lexically inside any finally block of the scope."""
    inside: set[int] = set()
    for node in _direct_walk(scope):
        if isinstance(node, (ast.Try, getattr(ast, "TryStar", ast.Try))):
            for stmt in node.finalbody:
                for sub in ast.walk(stmt):
                    if _is_bind_call(sub):
                        inside.add(id(sub))
    return inside
