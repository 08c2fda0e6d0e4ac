"""The simlint rule catalogue.

Each rule encodes one of the repo's determinism / simulation-safety
invariants as a syntactic check.  The common theme: the simulator's
outputs (latency, quality, power — Figs. 10-15) are only comparable
across runs and across policy/kernel variants because every run is a
pure function of (workload seed, configuration).  Anything that lets
wall-clock time, process-global RNG state, hash ordering, or racy shared
mutation leak into a result breaks that contract silently — exactly the
class of bug a Hypothesis suite only catches when it happens to sample
one.

Rules are syntactic and local by design: no type inference, no
cross-file dataflow.  Where that under-approximates (a set bound to a
variable, a closure smuggled through a helper), the fixture suite pins
what *is* caught, and the pragma mechanism documents what is
intentionally exempt.
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
    "ParSharedRule",
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
    telemetry tracer's dual-clock spans, the executor's ``FanoutStats``,
    and the ``experiments/bench_*`` microbenchmarks.
    """

    id = "DET-CLOCK"
    summary = "wall-clock read in sim-clock territory"
    rationale = (
        "Wall time contaminating the sim-clock makes latency/power "
        "numbers irreproducible across hosts and runs."
    )
    exempt = (
        "telemetry/trace.py",  # dual-clock spans: wall time is the point
        "retrieval/executor.py",  # FanoutStats measures real fan-out time
        "experiments/bench_*.py",  # microbenchmarks measure the host
    )

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
                    "telemetry/executor/bench_* allowlist",
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
    bit-identical to their ``*_reference`` scalar implementations, and
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
    long-lived objects (executor, searchers, policies, predictor bank)
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


# --------------------------------------------------------------------------
# PAR-SHARED
# --------------------------------------------------------------------------


@register
class ParSharedRule(Rule):
    """Closures handed to an executor must not mutate shared state.

    ``ParallelExecutor`` runs submitted closures on pool threads; the
    exactly-once memoization layer (``ShardSearcher``) and explicit
    locks are the only sanctioned ways for them to touch shared state.
    A closure that writes an enclosing variable, a captured container,
    or ``self`` races with its siblings — and with numpy releasing the
    GIL mid-kernel, "it's only a benign race" is not an argument.
    """

    id = "PAR-SHARED"
    summary = "executor closure mutating shared state"
    rationale = (
        "Unsynchronized writes from pool threads race; results then "
        "depend on scheduling, breaking executor bit-identity."
    )

    _MUTATOR_METHODS = frozenset(
        {
            "append", "extend", "insert", "add", "update", "remove",
            "discard", "pop", "popitem", "clear", "setdefault", "sort",
        }
    )

    def check(self, ctx: FileContext) -> Iterator[Finding]:
        for node in ast.walk(ctx.tree):
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            if not self._submits_work(node):
                continue
            for closure in self._local_closures(node):
                yield from self._closure_mutations(ctx, closure)

    def _submits_work(self, func: ast.AST) -> bool:
        """Does this function hand closures to an executor/pool?"""
        for node in ast.walk(func):
            if (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)
                and node.func.attr in ("submit", "map")
            ):
                return True
        return False

    def _local_closures(self, func: ast.AST) -> Iterator[ast.AST]:
        for node in ast.walk(func):
            if node is not func and isinstance(
                node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)
            ):
                yield node

    def _closure_mutations(self, ctx: FileContext, closure: ast.AST) -> Iterator[Finding]:
        local_names = _bound_names(closure)
        for node in ast.walk(closure):
            if _under_lock(node, closure):
                continue
            target: ast.expr | None = None
            verb = ""
            if isinstance(node, (ast.Assign, ast.AugAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                for tgt in targets:
                    base = _store_base(tgt)
                    if base is not None and _is_shared(base, local_names):
                        target, verb = tgt, "writes"
                        break
            elif isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute):
                if node.func.attr in self._MUTATOR_METHODS:
                    base = _name_base(node.func.value)
                    if base is not None and _is_shared_name(base, local_names):
                        target, verb = node, f"calls .{node.func.attr}() on"
            elif isinstance(node, ast.Nonlocal):
                target, verb = node, "rebinds (nonlocal)"
            if target is not None:
                yield ctx.finding(
                    self.id, target,
                    f"closure submitted to an executor {verb} shared state; "
                    "route the write through the memoization layer, hold a "
                    "lock, or return the value instead of mutating",
                )


def _bound_names(closure: ast.AST) -> frozenset[str]:
    """Names the closure binds locally (params, assignments, loop vars)."""
    names: set[str] = set()
    args = closure.args
    for arg in (
        list(args.posonlyargs) + list(args.args) + list(args.kwonlyargs)
        + ([args.vararg] if args.vararg else [])
        + ([args.kwarg] if args.kwarg else [])
    ):
        names.add(arg.arg)
    for node in ast.walk(closure):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Store):
            names.add(node.id)
        elif isinstance(node, (ast.For, ast.AsyncFor)):
            for sub in ast.walk(node.target):
                if isinstance(sub, ast.Name):
                    names.add(sub.id)
    return frozenset(names)


def _store_base(target: ast.expr) -> ast.expr | None:
    """The object being mutated by a Store target, if it is a container
    write (``x[i] = ...``, ``obj.attr = ...``); bare names are local."""
    if isinstance(target, ast.Subscript):
        return target.value
    if isinstance(target, ast.Attribute):
        return target.value
    if isinstance(target, (ast.Tuple, ast.List)):
        for element in target.elts:
            base = _store_base(element)
            if base is not None:
                return base
    return None


def _name_base(expr: ast.expr) -> str | None:
    while isinstance(expr, (ast.Attribute, ast.Subscript)):
        expr = expr.value
    if isinstance(expr, ast.Name):
        return expr.id
    return None


def _is_shared(base: ast.expr, local_names: frozenset[str]) -> bool:
    name = _name_base(base)
    return name is not None and name not in local_names


def _is_shared_name(name: str, local_names: frozenset[str]) -> bool:
    return name not in local_names


def _under_lock(node: ast.AST, closure: ast.AST) -> bool:
    """Is ``node`` inside a ``with <something lock-ish>`` in the closure?

    Purely lexical: any enclosing ``with`` whose context expression
    mentions a name containing "lock" counts.
    """
    for with_node in ast.walk(closure):
        if not isinstance(with_node, (ast.With, ast.AsyncWith)):
            continue
        lockish = False
        for item in with_node.items:
            name = _name_base(item.context_expr) or ""
            full = dotted_name(item.context_expr) or (
                dotted_name(item.context_expr.func)
                if isinstance(item.context_expr, ast.Call)
                else None
            ) or name
            if "lock" in (full or "").lower():
                lockish = True
        if not lockish:
            continue
        for sub in ast.walk(with_node):
            if sub is node:
                return True
    return False
