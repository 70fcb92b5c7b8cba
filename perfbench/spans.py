"""Spans around the public functions of the program's modules, installed from outside.

:class:`Tracer` replaces each public module-level function of the traced
modules (and a few public methods that mark layer work) with a wrapper that
records a span: name, start, end and the span that called it. Every module of
the package that imported the same function object gets the wrapper too, so
calls made through ``from .x import f`` names are seen. Spans stay in memory;
the caller writes :meth:`Tracer.rows` out when its run ends. Nothing in the
program is edited; :meth:`uninstall` restores every replaced attribute.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
import time

PACKAGE = "invkge"
LAYERS = ("datasets", "models", "core", "training", "estimation", "reduction",
          "evaluation", "cli")
# public methods whose calls are layer work: index builds and the optimizer step
METHODS = {"core": [("TripleStore", "__init__")],
           "evaluation": [("FilterIndex", "__init__")],
           "training": [("Adam", "step")]}


class Span:
    __slots__ = ("name", "layer", "start", "end", "parent", "children_s", "tags")

    def __init__(self, name: str, layer: str, start: float, parent: int, tags: dict):
        self.name = name
        self.layer = layer
        self.start = start
        self.end = start
        self.parent = parent
        self.children_s = 0.0
        self.tags = tags

    @property
    def duration(self) -> float:
        return self.end - self.start

    @property
    def self_s(self) -> float:
        return self.duration - self.children_s


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        # shared by reference with the spans it tags: replace it, never mutate it
        self.tags: dict = {}
        self._stack: list[int] = []
        self._restore: list[tuple[object, str, object]] = []

    def _wrap(self, fn, name: str, layer: str):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = tracer._stack[-1] if tracer._stack else -1
            span = Span(name, layer, time.perf_counter(), parent, tracer.tags)
            idx = len(tracer.spans)
            tracer.spans.append(span)
            tracer._stack.append(idx)
            try:
                return fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                tracer._stack.pop()
                if parent >= 0:
                    tracer.spans[parent].children_s += span.duration

        return traced

    def _set(self, owner, attr: str, value) -> None:
        self._restore.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def install(self) -> None:
        modules = [importlib.import_module(f"{PACKAGE}.{layer}") for layer in LAYERS]
        package_modules = [m for name, m in sys.modules.items()
                           if m is not None and (name == PACKAGE or name.startswith(PACKAGE + "."))]
        for layer, mod in zip(LAYERS, modules):
            for attr, obj in list(vars(mod).items()):
                if attr.startswith("_") or not inspect.isfunction(obj) \
                        or obj.__module__ != mod.__name__:
                    continue
                wrapped = self._wrap(obj, f"{layer}.{attr}", layer)
                for other in package_modules:
                    for other_attr, other_obj in list(vars(other).items()):
                        if other_obj is obj:
                            self._set(other, other_attr, wrapped)
            for cls_name, method in METHODS.get(layer, ()):
                cls = getattr(mod, cls_name)
                self._set(cls, method, self._wrap(getattr(cls, method),
                                                  f"{layer}.{cls_name}.{method}", layer))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._restore):
            setattr(owner, attr, original)
        self._restore.clear()

    def rows(self) -> list[dict]:
        """The spans as JSON-ready rows; ``parent`` is an index into the same list."""
        return [{"name": s.name, "start": s.start, "end": s.end, "parent": s.parent,
                 "self_s": s.self_s, **s.tags} for s in self.spans]
