"""Spans around the public functions of a package's layer modules.

A :class:`Tracer` replaces each public function of the named layer modules
with a wrapper, in every module of the package that holds a reference to it,
so a call is recorded whichever module's globals the caller looks it up in.
Spans are kept in memory: name, start, end, parent and run id, plus a small
``info`` dict filled by an optional per-function ``describe`` hook after the
call returns. The tracer also times its own bookkeeping around each call, so
the share of traced wall time it added can be reported.

One thread only: the span stack is not shared between threads.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import resource
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Callable


@dataclass(slots=True)
class Span:
    name: str
    start: float
    end: float = 0.0
    parent: int | None = None
    run_id: str = ""
    info: dict = field(default_factory=dict)
    overhead: float = 0.0

    @property
    def layer(self) -> str:
        return self.name.split(".", 1)[0]

    @property
    def duration(self) -> float:
        return self.end - self.start


def peak_rss_mb() -> float:
    """This process's peak resident set size so far, in MB (Linux reports KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus the union of its children's intervals.

    Child intervals are clipped to the parent's, and overlapping children
    are counted once.
    """
    children: list[list[tuple[float, float]]] = [[] for _ in spans]
    for span in spans:
        if span.parent is not None:
            children[span.parent].append((span.start, span.end))
    out = []
    for span, kids in zip(spans, children):
        covered = 0.0
        run_start = run_end = None
        clipped = sorted((max(a, span.start), min(b, span.end)) for a, b in kids)
        for a, b in clipped:
            if b <= a:
                continue
            if run_end is None or a > run_end:
                if run_end is not None:
                    covered += run_end - run_start
                run_start, run_end = a, b
            else:
                run_end = max(run_end, b)
        if run_end is not None:
            covered += run_end - run_start
        out.append(span.duration - covered)
    return out


class Tracer:
    """Records a span per call of each wrapped function.

    ``describe`` maps a span name to ``hook(args, kwargs, result) -> dict``,
    called only when the wrapped call returns normally. The peak RSS is
    recorded on every span whose parent belongs to another layer (or that
    has no parent), i.e. when a layer's top-level span closes.
    """

    def __init__(self, describe: dict[str, Callable] | None = None):
        self.spans: list[Span] = []
        self.run_id = ""
        self._describe = describe or {}
        self._stack: list[int] = []
        self._installed: list[tuple[object, str, object]] = []

    def wrap(self, name: str, fn: Callable) -> Callable:
        spans, stack = self.spans, self._stack
        describe = self._describe.get(name)
        layer = name.split(".", 1)[0]

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            entered = time.perf_counter()
            parent = stack[-1] if stack else None
            span = Span(name, 0.0, parent=parent, run_id=self.run_id)
            stack.append(len(spans))
            spans.append(span)
            returned = False
            span.start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
                returned = True
                return result
            finally:
                span.end = time.perf_counter()
                stack.pop()
                if returned and describe is not None:
                    span.info.update(describe(args, kwargs, result))
                if parent is None or spans[parent].layer != layer:
                    span.info["rss_mb"] = peak_rss_mb()
                span.overhead = (span.start - entered) + (time.perf_counter() - span.end)

        return traced

    def install(self, package: str, layers: tuple[str, ...]) -> None:
        """Wrap the public functions defined in ``package.<layer>`` modules."""
        modules = [importlib.import_module(f"{package}.{layer}") for layer in layers]
        wrappers = {}
        for layer, module in zip(layers, modules):
            for attr, obj in vars(module).items():
                if (
                    inspect.isfunction(obj)
                    and obj.__module__ == module.__name__
                    and not attr.startswith("_")
                ):
                    wrappers[obj] = self.wrap(f"{layer}.{attr}", obj)
        for holder in [importlib.import_module(package)] + modules:
            for attr, obj in list(vars(holder).items()):
                if inspect.isfunction(obj) and obj in wrappers:
                    self._installed.append((holder, attr, obj))
                    setattr(holder, attr, wrappers[obj])

    def uninstall(self) -> None:
        for holder, attr, obj in reversed(self._installed):
            setattr(holder, attr, obj)
        self._installed.clear()

    @contextmanager
    def installed(self, package: str, layers: tuple[str, ...]):
        self.install(package, layers)
        try:
            yield self
        finally:
            self.uninstall()

    def overhead_share(self, traced_wall: float) -> float:
        """Tracer time over the wall time the traced work would take without it."""
        spent = sum(span.overhead for span in self.spans)
        return spent / (traced_wall - spent)

    def to_json(self) -> list[dict]:
        origin = self.spans[0].start if self.spans else 0.0
        return [
            {
                "id": i,
                "name": s.name,
                "start": s.start - origin,
                "end": s.end - origin,
                "parent": s.parent,
                "run_id": s.run_id,
                **({"info": s.info} if s.info else {}),
            }
            for i, s in enumerate(self.spans)
        ]
