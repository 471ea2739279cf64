"""In-memory span tracer that wraps the program's names from outside.

The program is not changed: each layer boundary is a module-level
function or a class method of ``ecofence`` that this module replaces,
for the length of a traced run, by a wrapper that records a span or
bumps a counter.  A module-level function is replaced in every loaded
``ecofence`` module that bound it (``from .engine import run`` makes a
second binding in ``cli``), so every call path is seen.

A span is (name, start, end, parent, run id).  Spans are kept in
parallel arrays while the run goes and written out when it ends.  A
layer's self time is the time of its spans minus the part of each span
that its child spans cover.

A target that no longer exists after a refactor is not an error: the
metrics that need it are reported as absent.
"""

from __future__ import annotations

import importlib
import sys
import time
from array import array
from dataclasses import dataclass
from typing import Callable, Sequence


@dataclass(frozen=True)
class Span:
    name: str
    start: float
    end: float
    parent: int  # index of the parent span, -1 at the root
    run_id: int


def self_times(spans: Sequence[Span]) -> list[float]:
    """Self time of every span: its duration minus what its children cover.

    Children are clipped to the parent's interval and overlapping children
    are counted once, so the result never goes below zero.
    """
    children: dict[int, list[tuple[float, float]]] = {}
    for span in spans:
        if span.parent >= 0:
            children.setdefault(span.parent, []).append((span.start, span.end))
    out = []
    for index, span in enumerate(spans):
        covered = 0.0
        reach = span.start
        for start, end in sorted(children.get(index, ())):
            start, end = max(start, reach), min(end, span.end)
            if end > start:
                covered += end - start
                reach = end
        out.append(max(span.end - span.start - covered, 0.0))
    return out


def self_time_by_name(spans: Sequence[Span]) -> dict[str, float]:
    totals: dict[str, float] = {}
    for span, own in zip(spans, self_times(spans)):
        totals[span.name] = totals.get(span.name, 0.0) + own
    return totals


class Tracer:
    """Records spans and counters; one per traced process."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter):
        self.clock = clock
        self._names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self._name = array("i")
        self._start = array("d")
        self._end = array("d")
        self._parent = array("i")
        self._run = array("i")
        self._current = -1
        self.run_id = 0
        self.counts: dict[str, float] = {}
        self.maxima: dict[str, float] = {}
        self.keys: dict[str, set] = {}
        self.absent: set[str] = set()
        self._undo: list[tuple[object, str, object]] = []

    # -- recording -----------------------------------------------------------

    def count(self, name: str, amount: float = 1) -> None:
        self.counts[name] = self.counts.get(name, 0) + amount

    def peak(self, name: str, value: float) -> None:
        if value > self.maxima.get(name, float("-inf")):
            self.maxima[name] = value

    def distinct(self, name: str, key) -> None:
        self.keys.setdefault(name, set()).add(key)

    def spanned(self, name: str, fn: Callable, observe: Callable | None = None) -> Callable:
        """``fn`` wrapped to record one span per call; ``observe(args, result)``
        runs after the call, outside the span's timed interval."""
        if name not in self._name_ids:
            self._name_ids[name] = len(self._names)
            self._names.append(name)
        nid = self._name_ids[name]
        clock = self.clock

        def traced(*args, **kwargs):
            index = len(self._start)
            self._name.append(nid)
            self._parent.append(self._current)
            self._run.append(self.run_id)
            self._end.append(0.0)
            parent, self._current = self._current, index
            self._start.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                self._end[index] = clock()
                self._current = parent
            if observe is not None:
                observe(args, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def counted(self, name: str, fn: Callable) -> Callable:
        """``fn`` wrapped to bump counter ``name`` per call, with no span."""

        def counted_call(*args, **kwargs):
            self.counts[name] = self.counts.get(name, 0) + 1
            return fn(*args, **kwargs)

        counted_call.__wrapped__ = fn
        return counted_call

    def spans(self) -> list[Span]:
        return [
            Span(self._names[n], s, e, p, r)
            for n, s, e, p, r in zip(self._name, self._start, self._end, self._parent, self._run)
        ]

    # -- installing wrappers -------------------------------------------------

    def patch(self, module_name: str, attr_path: str, make: Callable[[Callable], Callable]) -> bool:
        """Replace ``module.attr_path`` by ``make(original)``.

        ``attr_path`` is ``name`` for a module-level function, which is
        replaced in every loaded ``ecofence`` module bound to the same
        object, or ``Class.method``.  Returns False, and records the target
        as absent, when it does not resolve.
        """
        target = f"{module_name}.{attr_path}"
        try:
            owner = importlib.import_module(module_name)
        except ImportError:
            self.absent.add(target)
            return False
        *owner_path, attr = attr_path.split(".")
        for part in owner_path:
            owner = getattr(owner, part, None)
        original = owner.__dict__.get(attr) if owner is not None else None
        if not callable(original):
            self.absent.add(target)
            return False
        wrapper = make(original)
        holders = [owner]
        if not owner_path:
            root = module_name.split(".")[0]
            holders = [
                module
                for name, module in list(sys.modules.items())
                if (name == root or name.startswith(root + "."))
                and module is not None
                and any(value is original for value in vars(module).values())
            ]
        for holder in holders:
            for key, value in list(vars(holder).items()):
                if value is original:
                    self._undo.append((holder, key, value))
                    setattr(holder, key, wrapper)
        return True

    def unpatch(self) -> None:
        while self._undo:
            holder, key, value = self._undo.pop()
            setattr(holder, key, value)

    def write_spans(self, path) -> None:
        """Write every span as CSV: name,start,end,parent,run_id."""
        with open(path, "w", encoding="utf-8") as handle:
            handle.write("name,start,end,parent,run_id\n")
            for s in self.spans():
                handle.write(f"{s.name},{s.start!r},{s.end!r},{s.parent},{s.run_id}\n")

