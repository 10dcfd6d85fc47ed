"""Span tracing from outside the package.

``Tracer.install`` replaces every public function of the ``orbit_atlas``
modules, and every entry point of ``numpy.linalg``, with a wrapper that
records a span (name, start, end, parent, operation id) in memory.  The
replacement happens in every module namespace that holds the function,
so calls between modules are seen no matter how they were imported.
``uninstall`` puts the original objects back.  Nothing inside ``src/``
knows about tracing.

Span names are ``<module>.<function>``; the module part is the layer.
``bench`` is the root span the benchmark opens around each operation, so
the self times of all layers of a pass add up to its traced wall time.
"""

from __future__ import annotations

import json
import time
import types
from collections import Counter, defaultdict
from contextlib import contextmanager

import numpy as np

ROOT = "bench"


class Tracer:
    """Records spans while installed; aggregates them into per-layer totals."""

    def __init__(self) -> None:
        self.spans: list[tuple | None] = []
        self._stack: list[int] = [-1]
        self._op = None
        self._patched: list[tuple[object, str, object]] = []

    def _wrap(self, name: str, fn):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1]
            stack.append(idx)
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                spans[idx] = (name, t0, t1, parent, self._op)

        traced.__wrapped__ = fn
        return traced

    def install(self, package) -> None:
        """Wrap the public functions of every submodule of ``package``
        (which must already be imported) and of ``numpy.linalg``."""
        modules = [
            mod
            for mod in vars(package).values()
            if isinstance(mod, types.ModuleType) and mod.__name__.startswith(package.__name__ + ".")
        ]
        wrappers: dict[int, object] = {}
        for mod in modules:
            layer = mod.__name__.rsplit(".", 1)[1]
            for name in getattr(mod, "__all__", ()):
                fn = getattr(mod, name, None)
                if isinstance(fn, types.FunctionType) and fn.__module__ == mod.__name__:
                    wrappers[id(fn)] = self._wrap(f"{layer}.{name}", fn)
        for namespace in [package, *modules]:
            for name, obj in list(vars(namespace).items()):
                wrapper = wrappers.get(id(obj))
                if wrapper is not None:
                    self._patch(namespace, name, wrapper)
        for name in np.linalg.__all__:
            obj = getattr(np.linalg, name)
            if callable(obj) and not isinstance(obj, type):
                self._patch(np.linalg, name, self._wrap(f"linalg.{name}", obj))

    def _patch(self, namespace, name: str, wrapper) -> None:
        self._patched.append((namespace, name, getattr(namespace, name)))
        setattr(namespace, name, wrapper)

    def uninstall(self) -> None:
        for namespace, name, original in reversed(self._patched):
            setattr(namespace, name, original)
        self._patched.clear()

    @contextmanager
    def op(self, op_id):
        """Open the root span of one operation; spans inside carry ``op_id``."""
        self._op = op_id
        idx = len(self.spans)
        self.spans.append(None)
        self._stack.append(idx)
        t0 = time.perf_counter()
        try:
            yield
        finally:
            t1 = time.perf_counter()
            self._stack.pop()
            self.spans[idx] = (ROOT, t0, t1, -1, op_id)
            self._op = None

    def totals(self) -> tuple[Counter, dict[str, float]]:
        """Exact call counts and summed self times, keyed by span name.

        Self time is a span's duration minus the durations of its direct
        children; children nest strictly because calls are synchronous.
        """
        child = [0.0] * len(self.spans)
        for name, t0, t1, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += t1 - t0
        calls: Counter = Counter()
        self_s: dict[str, float] = defaultdict(float)
        for (name, t0, t1, _, _), inner in zip(self.spans, child):
            calls[name] += 1
            self_s[name] += (t1 - t0) - inner
        return calls, dict(self_s)

    def dump(self, path) -> None:
        """Write the spans as JSON lines: [name, start, end, parent, op]."""
        with open(path, "w", encoding="ascii") as fh:
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")
