"""Interprocedural taint rules over the project call graph.

Three whole-program rules, each closing a hole PR 5's per-file analysis
cannot see — a value that is born in one module and breaks a contract
in another:

``DET-CLOCK-FLOW``
    A sim-path module calls (possibly through a chain of helpers in
    other modules) a function that reads the wall clock.  The per-file
    ``DET-CLOCK`` rule flags the *read*; when that read is legitimately
    pragma'd at home ("host measurement, never feeds the sim"), nothing
    per-file stops a cluster/ module from consuming the value anyway.

``DET-RNG-FLOW``
    Process-global or unseeded randomness escaping into
    ``cluster/``/``retrieval/``/``serving/`` through helper functions.

``PAR-PICKLE-FLOW``
    A lambda or nested function handed to an *intermediate* function
    whose parameter eventually reaches a process-pool ``submit``/``map``.
    The per-file ``PAR-PICKLE`` rule only sees lexically process-ish
    receivers at the submission site itself.

All three share the same machinery: seed facts per function (direct
clock/RNG calls, direct sink params), then a worklist fixpoint over the
resolved call graph, then findings at the *crossing* call sites with a
reconstructed witness chain in the message so the reader can follow the
value without re-running the analysis.
"""

from __future__ import annotations

from typing import Iterator, Mapping

from repro.analysis.findings import Finding
from repro.analysis.graph import (
    ARG_LAMBDA,
    ARG_NESTED,
    ARG_PARAM,
    CallSite,
    ProjectContext,
)
from repro.analysis.registry import ProjectRule, _matches_any, register

#: function key used throughout: (dotted module, qualname)
FuncKey = tuple[str, str]

#: modules whose wall-clock use is their contract (the DET-CLOCK
#: allowlist): they neither seed nor propagate clock taint.
_CLOCK_EXEMPT = (
    "telemetry/",
    "retrieval/executor.py",
    "experiments/bench_*.py",
)

#: where clock taint arriving is a finding (the sim path).
_CLOCK_SCOPE = ("cluster/", "core/", "serving/", "retrieval/", "policies/")

#: where RNG taint arriving is a finding.
_RNG_SCOPE = ("cluster/", "retrieval/", "serving/")


def _propagate(
    project: ProjectContext,
    seeds: dict[FuncKey, str],
    exempt: tuple[str, ...],
) -> dict[FuncKey, str]:
    """Worklist fixpoint: a caller of a tainted function is tainted.

    ``seeds`` maps function keys to a human-readable witness (the direct
    source); the result maps every tainted function to the next hop
    toward a source, so findings can print the full chain.
    """
    tainted: dict[FuncKey, str] = dict(seeds)
    # reverse edges: callee key -> [(caller key, call line)]
    callers: dict[FuncKey, list[tuple[FuncKey, int]]] = {}
    for module, facts in project.modules.items():
        if _matches_any(facts.module_path, exempt):
            continue
        for site in facts.calls:
            resolved = project.resolve_call(module, site)
            if resolved is None:
                continue
            caller_key = (module, site.caller)
            callers.setdefault(resolved, []).append((caller_key, site.line))
    work = list(tainted)
    while work:
        callee = work.pop()
        for caller_key, _line in callers.get(callee, ()):
            if caller_key in tainted or caller_key[1] == "<module>":
                continue
            caller_facts = project.modules.get(caller_key[0])
            if caller_facts is None or _matches_any(
                caller_facts.module_path, exempt
            ):
                continue
            tainted[caller_key] = _describe(callee)
            work.append(caller_key)
    return tainted


def _describe(key: FuncKey) -> str:
    return f"{key[0]}.{key[1]}"


def _chain(
    start: FuncKey, tainted: Mapping[FuncKey, str], seeds: Mapping[FuncKey, str]
) -> str:
    """Render ``a.f -> b.g -> time.time()`` from the witness links."""
    hops: list[str] = []
    key: FuncKey | None = start
    seen: set[FuncKey] = set()
    while key is not None and key not in seen:
        seen.add(key)
        hops.append(_describe(key))
        if key in seeds:
            hops.append(seeds[key])
            break
        witness = tainted.get(key)
        next_key: FuncKey | None = None
        if witness is not None:
            for candidate in tainted:
                if _describe(candidate) == witness:
                    next_key = candidate
                    break
        key = next_key
    return " -> ".join(hops)


def _taint_findings(
    project: ProjectContext,
    rule_id: str,
    seeds: dict[FuncKey, str],
    scope: tuple[str, ...],
    exempt: tuple[str, ...],
    what: str,
    remedy: str,
) -> Iterator[Finding]:
    """Findings at cross-module call sites into tainted functions."""
    tainted = _propagate(project, seeds, exempt)
    if not tainted:
        return
    for module in sorted(project.modules):
        facts = project.modules[module]
        if not _matches_any(facts.module_path, scope):
            continue
        if _matches_any(facts.module_path, exempt):
            continue
        for site in facts.calls:
            resolved = project.resolve_call(module, site)
            if resolved is None or resolved[0] == module:
                continue  # same-module flows are the per-file rules' turf
            if resolved not in tainted:
                continue
            chain = _chain(resolved, tainted, seeds)
            yield Finding(
                path=facts.rel_path,
                line=site.line,
                col=site.col,
                rule=rule_id,
                message=(
                    f"call to {site.callee}() lets {what} reach "
                    f"{facts.module_path} through {chain}; {remedy}"
                ),
            )


def _seed_sources(project: ProjectContext, kind: str, exempt: tuple[str, ...]) -> dict[FuncKey, str]:
    seeds: dict[FuncKey, str] = {}
    for module in sorted(project.modules):
        facts = project.modules[module]
        if _matches_any(facts.module_path, exempt):
            continue
        for source in facts.sources:
            if source.kind != kind or source.caller == "<module>":
                continue
            key = (module, source.caller)
            if key not in seeds:
                seeds[key] = f"{source.name}() at {facts.module_path}:{source.line}"
    return seeds


@register
class DetClockFlowRule(ProjectRule):
    """Wall-clock values must not flow into sim-path code via helpers.

    The per-file ``DET-CLOCK`` rule polices the read itself; this rule
    polices the *value*: any function that (transitively) reads a wall
    clock taints its callers, and a cross-module call into a tainted
    function from ``cluster/``, ``core/``, ``serving/``, ``retrieval/``
    or ``policies/`` is flagged, even when the read is pragma'd as a
    legitimate measurement in its home module.  The telemetry tracer,
    the executor's fan-out stats and the ``bench_*`` harnesses are
    exempt end to end — wall time *is* their output, and it never
    enters sim results.
    """

    id = "DET-CLOCK-FLOW"
    summary = "wall-clock value flowing into sim-path code"
    rationale = (
        "A helper that reads the wall clock poisons every sim-path "
        "caller transitively; latency/power results stop being a pure "
        "function of (seed, config)."
    )

    def check_project(self, project: ProjectContext) -> Iterator[Finding]:
        seeds = _seed_sources(project, "clock", _CLOCK_EXEMPT)
        yield from _taint_findings(
            project,
            self.id,
            seeds,
            scope=_CLOCK_SCOPE,
            exempt=_CLOCK_EXEMPT,
            what="a wall-clock reading",
            remedy=(
                "sim-path code must tell time via the sim-clock; route "
                "measurements through telemetry or pass values in explicitly"
            ),
        )


@register
class DetRngFlowRule(ProjectRule):
    """Unseeded randomness must not escape into the cluster/serving path.

    Seeds are functions that draw from the process-global ``random``
    module, numpy's global ``RandomState``, or an unseeded
    ``default_rng()`` — including draws pragma'd for local use.  Any
    cross-module call chain carrying that state into ``cluster/``,
    ``retrieval/`` or ``serving/`` breaks run reproducibility, which is
    exactly what the bit-identity CI gates cannot detect (they compare
    *within* one process, sharing the hidden RNG state).
    """

    id = "DET-RNG-FLOW"
    summary = "process-global randomness flowing into cluster/retrieval/serving"
    rationale = (
        "Global RNG state smuggled through helpers makes two identical "
        "configurations diverge; seeded generators must be threaded "
        "explicitly into the sim path."
    )

    def check_project(self, project: ProjectContext) -> Iterator[Finding]:
        seeds = _seed_sources(project, "rng", ())
        yield from _taint_findings(
            project,
            self.id,
            seeds,
            scope=_RNG_SCOPE,
            exempt=(),
            what="process-global RNG state",
            remedy=(
                "thread an explicitly seeded random.Random / "
                "np.random.Generator parameter through the chain instead"
            ),
        )


@register
class ParPickleFlowRule(ProjectRule):
    """Unpicklable callables must not reach a process pool via helpers.

    Per function, compute which parameters flow (directly or through
    further calls) into a process-pool ``submit``/``map`` argument; then
    flag any call site that feeds a lambda or nested function into such
    a parameter.  The direct submission site is the per-file
    ``PAR-PICKLE`` rule's job and is skipped here.
    """

    id = "PAR-PICKLE-FLOW"
    summary = "lambda/closure reaching a process pool through helpers"
    rationale = (
        "Closures fail to pickle only when the pool finally sees them — "
        "far from the call that introduced them; descriptors must be "
        "picklable at the source."
    )

    def check_project(self, project: ProjectContext) -> Iterator[Finding]:
        sink_params, witnesses = self._sink_params(project)
        if not sink_params:
            return
        for module in sorted(project.modules):
            facts = project.modules[module]
            for site in facts.calls:
                if site.is_sink:
                    continue  # direct submissions: per-file PAR-PICKLE
                resolved = project.resolve_call(module, site)
                if resolved is None:
                    continue
                sinky = sink_params.get(resolved)
                if not sinky:
                    continue
                for arg in site.args:
                    if arg.kind not in (ARG_LAMBDA, ARG_NESTED):
                        continue
                    param = _param_at_slot(project, resolved, site, arg.slot)
                    if param is None or param not in sinky:
                        continue
                    described = (
                        "lambda"
                        if arg.kind == ARG_LAMBDA
                        else f"nested function {arg.name!r}"
                    )
                    chain = self._sink_chain(resolved, param, witnesses)
                    yield Finding(
                        path=facts.rel_path,
                        line=arg.line,
                        col=arg.col,
                        rule=self.id,
                        message=(
                            f"{described} passed to {site.callee}() flows "
                            f"into a process-pool submit/map via {chain}; "
                            "pass a picklable module-level callable instead"
                        ),
                    )

    def _sink_params(
        self, project: ProjectContext
    ) -> tuple[
        dict[FuncKey, frozenset[str]],
        dict[tuple[str, str, str], str],
    ]:
        """Fixpoint over "this parameter reaches a process pool".

        Returns the sink-param sets plus a witness map
        ``(module, qualname, param) -> next hop description``.
        """
        sinks: dict[FuncKey, set[str]] = {}
        witness: dict[tuple[str, str, str], str] = {}
        # seed: params used as args at a direct process submit/map site
        for module, facts in sorted(project.modules.items()):
            for site in facts.calls:
                if not site.is_sink or site.caller == "<module>":
                    continue
                for arg in site.args:
                    if arg.kind == ARG_PARAM:
                        key = (module, site.caller)
                        if arg.name not in sinks.setdefault(key, set()):
                            sinks[key].add(arg.name)
                            witness[(module, site.caller, arg.name)] = (
                                f"{site.callee}() at "
                                f"{facts.module_path}:{site.line}"
                            )
        # propagate: param passed into a callee's sink param
        changed = True
        while changed:
            changed = False
            for module, facts in sorted(project.modules.items()):
                for site in facts.calls:
                    if site.is_sink or site.caller == "<module>":
                        continue
                    resolved = project.resolve_call(module, site)
                    if resolved is None:
                        continue
                    callee_sinks = sinks.get(resolved)
                    if not callee_sinks:
                        continue
                    for arg in site.args:
                        if arg.kind != ARG_PARAM:
                            continue
                        target_param = _param_at_slot(
                            project, resolved, site, arg.slot
                        )
                        if target_param is None or target_param not in callee_sinks:
                            continue
                        caller_key = (module, site.caller)
                        if arg.name not in sinks.setdefault(caller_key, set()):
                            sinks[caller_key].add(arg.name)
                            witness[(module, site.caller, arg.name)] = (
                                f"{_describe(resolved)}({target_param})"
                            )
                            changed = True
        return (
            {key: frozenset(params) for key, params in sinks.items()},
            witness,
        )

    def _sink_chain(
        self,
        key: FuncKey,
        param: str,
        witnesses: dict[tuple[str, str, str], str],
    ) -> str:
        hops = [f"{_describe(key)}({param})"]
        seen = set()
        current = (key[0], key[1], param)
        while current in witnesses and current not in seen:
            seen.add(current)
            hop = witnesses[current]
            hops.append(hop)
            # follow "module.qual(param)" witnesses one more level
            if hop.endswith(")") and "(" in hop and " at " not in hop:
                target, target_param = hop[:-1].rsplit("(", 1)
                module, _, qualname = target.rpartition(".")
                # qualnames may contain one dot (Class.method)
                candidates = [
                    (module, qualname),
                    tuple(target.split(".", 2)[0:2]) if target.count(".") >= 2 else None,
                ]
                next_key = None
                for candidate in candidates:
                    if candidate is not None and (
                        candidate[0],
                        candidate[1],
                        target_param,
                    ) in witnesses:
                        next_key = (candidate[0], candidate[1], target_param)
                        break
                if next_key is None:
                    break
                current = next_key
            else:
                break
        return " -> ".join(hops)


def _param_at_slot(
    project: ProjectContext,
    callee: FuncKey,
    site: CallSite,
    slot: str,
) -> str | None:
    """Map a call-site argument slot onto the callee's parameter name."""
    info = project.function(callee)
    if info is None:
        return None
    if slot.startswith("k:"):
        name = slot[2:]
        return name if name in info.params else None
    index = int(slot)
    offset = 0
    if info.is_method and "." in site.callee:
        # bound call (self.m(...), obj.m(...), alias.Class-less): the
        # receiver consumes the first declared parameter.
        head = site.callee.split(".", 1)[0]
        bound = project.bindings.get(callee[0], {})
        # "mod.func(...)" via a module alias is *not* a bound call
        if not (head in bound and ":" not in bound.get(head, ":")):
            offset = 1
    elif info.is_method and "." not in site.callee:
        offset = 0  # unbound reference is unusual; assume explicit self
    position = index + offset
    if position < len(info.params):
        return info.params[position]
    return None
