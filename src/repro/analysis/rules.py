"""The simlint rule catalogue.

A rule stays only while it catches what the tier-1 suite cannot.  A slip
that moves a simulated outcome on this interpreter — a wall-clock read,
a process-global RNG draw, hash-ordered iteration, a mutable default
shared across calls — already fails the run-twice tests and the pinned
digests, so it has no rule (DESIGN.md's audit holds the planted-violation
evidence).  What is left is ``FLOAT-ORDER``: a reduction whose order
matches the scalar reference today and stops matching later — numpy's
pairwise sum blocks at eight elements, CPython 3.12 compensates its
float ``sum``, and tier-1's queries have fewer than eight terms on 3.11.
A telemetry session is a per-run argument, so no bind can leak and no
rule polices one.

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

__all__ = ["FloatOrderRule"]


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
