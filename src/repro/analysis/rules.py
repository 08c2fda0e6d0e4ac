"""The simlint rule catalogue.

Each rule encodes one of the repo's determinism / simulation-safety
invariants as a syntactic check.  The common theme: the simulator's
outputs (latency, quality, power — Figs. 10-15) are only comparable
across runs and across policy/kernel variants because every run is a
pure function of (workload seed, configuration).  Anything that lets
wall-clock time, process-global RNG state or hash ordering leak into a
result breaks that contract silently — exactly the class of bug a
Hypothesis suite only catches when it happens to sample one.

Rules are syntactic and local by design: no type inference, no
cross-file dataflow.  Where that under-approximates (a set bound to a
variable), the fixture suite pins what *is* caught, and the pragma
mechanism documents what is intentionally exempt.
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

__all__ = [
    "DetRngRule",
    "DetClockRule",
    "DetOrderRule",
    "FloatOrderRule",
    "TelBindRule",
    "MutDefaultRule",
]


def _import_aliases(tree: ast.Module) -> dict[str, str]:
    """Local name -> the dotted name the file's own imports bound it to.

    ``import time as _t`` gives ``{"_t": "time"}``; ``from numpy import
    random as nr`` gives ``{"nr": "numpy.random"}``; ``from time import
    perf_counter`` gives ``{"perf_counter": "time.perf_counter"}``.
    """
    aliases: dict[str, str] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                if alias.asname is not None:
                    aliases[alias.asname] = alias.name
        elif isinstance(node, ast.ImportFrom) and node.module and not node.level:
            for alias in node.names:
                aliases[alias.asname or alias.name] = f"{node.module}.{alias.name}"
    return aliases


def _resolve_alias(name: str, aliases: dict[str, str]) -> str:
    """Rewrite the head of a dotted name through the file's import aliases."""
    head, dot, rest = name.partition(".")
    return aliases[head] + dot + rest if head in aliases else name


# --------------------------------------------------------------------------
# DET-RNG
# --------------------------------------------------------------------------

#: ``random.<fn>`` module-level functions drawing from the process-global
#: Mersenne Twister.  ``random.Random(seed)`` instances are fine.
_GLOBAL_RANDOM_FNS = frozenset(
    {
        "random", "randint", "randrange", "choice", "choices", "shuffle",
        "sample", "uniform", "gauss", "normalvariate", "lognormvariate",
        "expovariate", "betavariate", "gammavariate", "paretovariate",
        "weibullvariate", "vonmisesvariate", "triangular", "seed",
        "getrandbits", "randbytes", "binomialvariate",
    }
)

#: Legacy numpy global-state API (``np.random.<fn>`` on the shared
#: ``RandomState``).  ``np.random.default_rng(seed)`` / ``Generator``
#: methods are the sanctioned replacement.
_NP_GLOBAL_RANDOM_FNS = frozenset(
    {
        "seed", "rand", "randn", "randint", "random", "random_sample",
        "choice", "shuffle", "permutation", "uniform", "normal", "standard_normal",
        "poisson", "exponential", "binomial", "beta", "gamma", "sample",
    }
)


@register
class DetRngRule(Rule):
    """No process-global or unseeded randomness.

    RNGs must flow in as explicitly seeded ``random.Random`` /
    ``np.random.Generator`` parameters, the way ``workloads/`` and
    ``nn/`` already do — otherwise two runs of the same configuration
    can differ, and the repo's bit-identity CI gates are meaningless.
    """

    id = "DET-RNG"
    summary = "process-global or unseeded RNG"
    rationale = (
        "Runs must be a pure function of (seed, config); module-level "
        "random.* and unseeded default_rng() draw from process state."
    )

    def check(self, ctx: FileContext) -> Iterator[Finding]:
        aliases = _import_aliases(ctx.tree)
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.Call):
                continue
            name = dotted_name(node.func)
            if name is None:
                continue
            head, _, tail = _resolve_alias(name, aliases).rpartition(".")
            if head == "random" and tail in _GLOBAL_RANDOM_FNS:
                yield ctx.finding(
                    self.id, node,
                    f"{name}() uses the process-global RNG; thread a seeded "
                    "random.Random / np.random.Generator parameter through instead",
                )
            elif head in ("np.random", "numpy.random") and tail in _NP_GLOBAL_RANDOM_FNS:
                yield ctx.finding(
                    self.id, node,
                    f"{name}() mutates numpy's global RandomState; use a "
                    "seeded np.random.default_rng(seed) Generator instead",
                )
            elif tail == "default_rng" and not node.args and not node.keywords:
                yield ctx.finding(
                    self.id, node,
                    "default_rng() without a seed draws OS entropy; pass "
                    "an explicit seed (or accept a Generator parameter)",
                )


# --------------------------------------------------------------------------
# DET-CLOCK
# --------------------------------------------------------------------------

_WALL_CLOCK_TIME_FNS = frozenset(
    {
        "time", "time_ns", "monotonic", "monotonic_ns", "perf_counter",
        "perf_counter_ns", "process_time", "process_time_ns", "thread_time",
        "thread_time_ns",
    }
)
_WALL_CLOCK_DATETIME = frozenset(
    {
        "datetime.now", "datetime.utcnow", "datetime.today",
        "datetime.datetime.now", "datetime.datetime.utcnow",
        "datetime.date.today", "date.today",
    }
)


@register
class DetClockRule(Rule):
    """No wall-clock reads outside the measurement allowlist.

    Everything inside the simulated cluster must tell time via the
    sim-clock (``sim.now`` / event timestamps).  Wall clocks are only
    legitimate where real elapsed time *is* the measurement: the
    telemetry tracer's dual-clock spans.
    """

    id = "DET-CLOCK"
    summary = "wall-clock read in sim-clock territory"
    rationale = (
        "Wall time contaminating the sim-clock makes latency/power "
        "numbers irreproducible across hosts and runs."
    )
    exempt = ("telemetry/trace.py",)  # dual-clock spans: wall time is the point

    def check(self, ctx: FileContext) -> Iterator[Finding]:
        aliases = _import_aliases(ctx.tree)
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.Call):
                continue
            name = dotted_name(node.func)
            if name is None:
                continue
            resolved = _resolve_alias(name, aliases)
            head, _, tail = resolved.rpartition(".")
            if (
                head == "time" and tail in _WALL_CLOCK_TIME_FNS
            ) or resolved in _WALL_CLOCK_DATETIME:
                yield ctx.finding(
                    self.id, node,
                    f"{name}() reads the wall clock; simulation code must "
                    "use the sim-clock, and measurement code belongs in the "
                    "telemetry allowlist",
                )


# --------------------------------------------------------------------------
# DET-ORDER
# --------------------------------------------------------------------------


@register
class DetOrderRule(Rule):
    """Iteration over unordered collections must pass through sorted().

    In ``retrieval/``, ``cluster/``, ``core/`` and ``serving/``, anything
    iterated can feed result construction (merge order, event scheduling,
    budget walks, admission), where tie-order is part of the bit-identity
    contract.  Set iteration order depends on hash seeding; ``dict.keys``
    order is insertion order, i.e. whatever construction path ran first —
    both leak incidental order into results.
    """

    id = "DET-ORDER"
    summary = "unsorted set/dict-view iteration"
    rationale = (
        "Hash/insertion order leaking into result construction breaks "
        "tie-order bit-identity between strategies and runs."
    )
    scope = ("retrieval/", "cluster/", "core/", "serving/")

    #: one wrapper level that preserves (arbitrary) element order and is
    #: therefore just as unordered as the collection itself.
    _TRANSPARENT_WRAPPERS = frozenset({"list", "tuple", "enumerate", "reversed", "iter"})

    def check(self, ctx: FileContext) -> Iterator[Finding]:
        for node in ast.walk(ctx.tree):
            iters: list[ast.expr] = []
            if isinstance(node, (ast.For, ast.AsyncFor)):
                iters.append(node.iter)
            elif isinstance(node, (ast.ListComp, ast.SetComp, ast.DictComp, ast.GeneratorExp)):
                iters.extend(gen.iter for gen in node.generators)
            for it in iters:
                offender = self._unordered(it)
                if offender is not None:
                    yield ctx.finding(
                        self.id, it,
                        f"iterating {offender} in arbitrary order; wrap the "
                        "iterable in sorted(...) so tie-order is deterministic",
                    )

    def _unordered(self, expr: ast.expr) -> str | None:
        """Describe ``expr`` if it is (a transparent wrap of) an unordered
        collection, else None.  ``sorted(...)`` sanctifies anything."""
        if isinstance(expr, (ast.Set, ast.SetComp)):
            return "a set literal" if isinstance(expr, ast.Set) else "a set comprehension"
        if isinstance(expr, ast.Call):
            name = dotted_name(expr.func)
            if name in ("set", "frozenset"):
                return f"{name}(...)"
            if isinstance(expr.func, ast.Attribute) and expr.func.attr in ("keys", "values"):
                return f".{expr.func.attr}() view"
            if name in self._TRANSPARENT_WRAPPERS and expr.args:
                inner = self._unordered(expr.args[0])
                if inner is not None:
                    return f"{name}({inner})"
        return None


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


# --------------------------------------------------------------------------
# MUT-DEFAULT
# --------------------------------------------------------------------------

_MUTABLE_FACTORIES = frozenset(
    {
        "list", "dict", "set", "bytearray", "defaultdict", "OrderedDict",
        "Counter", "deque", "collections.defaultdict", "collections.OrderedDict",
        "collections.Counter", "collections.deque",
    }
)


@register
class MutDefaultRule(Rule):
    """No mutable default arguments.

    A mutable default is evaluated once at ``def`` time and shared by
    every call — cross-query, cross-run state smuggled through a
    signature.  In a simulator whose contract is "pure function of
    (seed, config)", that is a determinism bug waiting for its second
    caller.  Use ``None`` plus an in-body default.
    """

    id = "MUT-DEFAULT"
    summary = "mutable default argument"
    rationale = (
        "def-time-evaluated defaults are shared state across calls and "
        "runs; they silently couple queries to each other."
    )

    def check(self, ctx: FileContext) -> Iterator[Finding]:
        for node in ast.walk(ctx.tree):
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
                continue
            args = node.args
            defaults = list(args.defaults) + [d for d in args.kw_defaults if d is not None]
            for default in defaults:
                desc = self._mutable(default)
                if desc is not None:
                    func = node.name if not isinstance(node, ast.Lambda) else "<lambda>"
                    yield ctx.finding(
                        self.id, default,
                        f"{func}() has {desc} as a default argument — "
                        "evaluated once and shared across every call; use "
                        "None and construct inside the body",
                    )

    def _mutable(self, node: ast.expr) -> str | None:
        if isinstance(node, ast.List):
            return "a list literal"
        if isinstance(node, ast.Dict):
            return "a dict literal"
        if isinstance(node, ast.Set):
            return "a set literal"
        if isinstance(node, (ast.ListComp, ast.DictComp, ast.SetComp)):
            return "a comprehension"
        if isinstance(node, ast.Call):
            name = dotted_name(node.func)
            if name in _MUTABLE_FACTORIES:
                return f"{name}(...)"
        return None
