"""The benchmark's own span recorder.

Spans are recorded from *outside* the program: either by an explicit
``with recorder.span(...)`` around a call the harness makes itself, or by
swapping a public attribute of a ``repro`` class for a timing wrapper
(``patch``) and putting the original back afterwards (``restore``).
Nothing under ``src/`` knows this module exists.

A span has a ``name`` (``<layer>.<what>``: the layer is the ``repro``
package the call enters), ``start`` and ``end`` (``time.perf_counter``
readings), a ``parent`` (index of the span that was open when this one
started, -1 for a root) and an ``op`` (query id or unit index; -1 = the
parent's).  Spans stay in memory until ``write_jsonl``, in typed columns
rather than one object per span: a traced unit records ~10^5 spans, and
that many new container objects would make the garbage collector walk the
testbed's heap more often than in the untraced run being compared with.
"""

from __future__ import annotations

from array import array
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter
from typing import Any, Callable, Iterator

_INHERITED = object()  # the patched attribute was not in the owner's own dict


@dataclass
class NameTotals:
    """Aggregate of every span sharing a name."""

    count: int = 0
    busy_s: float = 0.0  # sum of span durations
    self_s: float = 0.0  # busy minus the part child spans cover


def layer_of(name: str) -> str:
    return name.split(".", 1)[0]


class Recorder:
    def __init__(self) -> None:
        self.names: list[str] = []  # span name by name id
        self._name_ids: dict[str, int] = {}
        self._name = array("H")
        self._start = array("d")
        self._end = array("d")
        self._parent = array("q")
        self._op = array("q")
        self._stack: list[int] = [-1]
        self._patches: list[tuple[Any, str, Any]] = []

    def _name_id(self, name: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    # ------------------------------------------------------------ recording
    def _open(self, name_id: int, op: int) -> int:
        index = len(self._start)
        self._name.append(name_id)
        self._parent.append(self._stack[-1])
        self._op.append(op)
        self._end.append(0.0)
        self._stack.append(index)
        self._start.append(perf_counter())
        return index

    def _close(self, index: int) -> None:
        self._end[index] = perf_counter()
        self._stack.pop()

    @contextmanager
    def span(self, name: str, op: int = -1) -> Iterator[None]:
        """Record a span around a call the harness makes itself."""
        index = self._open(self._name_id(name), op)
        try:
            yield
        finally:
            self._close(index)

    def patch(
        self,
        owner: Any,
        attr: str,
        name: str,
        op_of: Callable[..., int] | None = None,
        on_result: Callable[[Any], None] | None = None,
        leaf: bool = False,
    ) -> None:
        """Replace ``owner.attr`` with a wrapper that records a span per call.

        ``op_of(*args)`` names the operation from the call's arguments;
        ``on_result(result)`` takes counts from the returned value at the
        same boundary the time is taken.  ``leaf`` promises that no other
        patched call runs inside this one: the span then never becomes a
        parent and is written in one go when the call returns, which is the
        cheaper wrapper for calls made tens of thousands of times per unit.
        """
        if leaf and (op_of is not None or on_result is not None):
            raise ValueError("a leaf span carries neither an op nor counts")
        original = getattr(owner, attr)
        name_id = self._name_id(name)
        open_span, close_span = self._open, self._close

        def wrapper(*args: Any, **kwargs: Any) -> Any:
            index = open_span(name_id, op_of(*args) if op_of is not None else -1)
            try:
                result = original(*args, **kwargs)
            finally:
                close_span(index)
            if on_result is not None:
                on_result(result)
            return result

        self._install(
            owner, attr, original, self._leaf(original, name_id) if leaf else wrapper
        )

    def _leaf(self, call: Callable[..., Any], name_id: int) -> Callable[..., Any]:
        names, starts, ends = self._name.append, self._start.append, self._end.append
        parents, ops, stack = self._parent.append, self._op.append, self._stack

        def leaf_wrapper(*args: Any, **kwargs: Any) -> Any:
            start = perf_counter()
            try:
                return call(*args, **kwargs)
            finally:
                ends(perf_counter())
                starts(start)
                names(name_id)
                parents(stack[-1])
                ops(-1)

        return leaf_wrapper

    def patch_iter(self, owner: Any, name: str) -> None:
        """Time every ``next()`` on iterators made by ``owner.__iter__``."""
        original = owner.__iter__
        timed_next = self._leaf(next, self._name_id(name))

        def timed_iter(this: Any) -> Iterator[Any]:
            iterator = original(this)
            while True:
                try:
                    item = timed_next(iterator)
                except StopIteration:
                    return
                yield item

        self._install(owner, "__iter__", original, timed_iter)

    def _install(self, owner: Any, attr: str, original: Any, wrapper: Any) -> None:
        wrapper.__wrapped__ = original  # the functools convention: marks a wrapper
        self._patches.append((owner, attr, vars(owner).get(attr, _INHERITED)))
        setattr(owner, attr, wrapper)

    def restore(self) -> None:
        """Put every patched attribute back, last patch first."""
        while self._patches:
            owner, attr, own = self._patches.pop()
            if own is _INHERITED:
                delattr(owner, attr)
            else:
                setattr(owner, attr, own)

    @contextmanager
    def patched(self, install: Callable[["Recorder"], None]) -> Iterator[None]:
        install(self)
        try:
            yield
        finally:
            self.restore()

    def mark(self) -> int:
        """Index the next span will get — delimits a phase of the run."""
        return len(self._start)

    # ------------------------------------------------------------- analysis
    def totals(self, first: int = 0, last: int | None = None) -> dict[str, NameTotals]:
        """Per-name count, busy and self time of spans ``first..last``.

        A span's duration is charged to its parent as child time; a parent
        opened before ``first`` is outside the phase and charged nothing.
        """
        last = self.mark() if last is None else last
        durations = [
            end - start
            for start, end in zip(self._start[first:last], self._end[first:last])
        ]
        child_s = [0.0] * len(durations)
        for duration, parent in zip(durations, self._parent[first:last]):
            if parent >= first:
                child_s[parent - first] += duration
        out = [NameTotals() for _ in self.names]
        for name_id, duration, children in zip(self._name[first:last], durations, child_s):
            totals = out[name_id]
            totals.count += 1
            totals.busy_s += duration
            totals.self_s += duration - children
        return {name: totals for name, totals in zip(self.names, out) if totals.count}

    def write_jsonl(self, path: Path) -> int:
        """One JSON object per span; ``op`` resolved through the parents."""
        path.parent.mkdir(parents=True, exist_ok=True)
        ops: list[int] = []
        columns = zip(self._name, self._start, self._end, self._parent, self._op)
        with path.open("w") as fh:
            for index, (name_id, start, end, parent, op) in enumerate(columns):
                if op < 0 and parent >= 0:
                    op = ops[parent]
                ops.append(op)
                # Names are identifiers and the rest are numbers, so the line
                # is formatted by hand: json.dumps per span is the slow part
                # of a 10^5-span file.
                fh.write(
                    f'{{"id": {index}, "name": "{self.names[name_id]}", '
                    f'"start": {start!r}, "end": {end!r}, '
                    f'"parent": {parent}, "op": {op}}}\n'
                )
        return self.mark()
