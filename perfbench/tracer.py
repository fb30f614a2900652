"""Spans recorded from outside the program by replacing module attributes.

Tracer.install wraps the public functions of the specgconv modules (and
numpy.linalg.eigh, named spectral.eigh, plus Adam.step) so that each call
records a span: name, start, end, parent span and optional attributes. A
function imported by name into another module is replaced there too, and so
is any module-level dict value that refers to it (nn.LOSSES). Spans stay in
memory; the caller writes them out once, when the run ends.
"""
from __future__ import annotations

import functools
import inspect
import os
import statistics
import sys
import time
from collections import defaultdict

import numpy as np

MODULES = ("data", "graphs", "spectral", "filters", "kernels", "analysis", "nn", "cli")


class Span:
    __slots__ = ("name", "start", "end", "parent", "attrs")

    def __init__(self, name, start, parent):
        self.name, self.start, self.end, self.parent, self.attrs = name, start, None, parent, None

    def as_dict(self):
        return {"name": self.name, "start": self.start, "end": self.end,
                "parent": self.parent, **(self.attrs or {})}


def _model_forward_name(args, kwargs):
    return "nn.forward_train" if kwargs.get("train", args[4] if len(args) > 4 else False) \
        else "nn.forward_eval"


def _decompose_attrs(args, kwargs, result):
    cache_dir = kwargs.get("cache_dir", args[2] if len(args) > 2 else None)
    return {"cached": cache_dir is not None}


def _saved_bytes(args, kwargs, result):
    return {"bytes": os.path.getsize(kwargs.get("path", args[0]))}


# Span names decided by the call, and attributes read after it returns.
NAMERS = {"nn.model_forward": _model_forward_name}
ATTRS = {"spectral.decompose": _decompose_attrs, "data.save_matrix_csv": _saved_bytes}


class Tracer:
    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans: list = []
        self._stack: list = []
        self._undo: list = []

    # -- recording --------------------------------------------------------
    def wrap(self, name, fn):
        namer, attrs_of = NAMERS.get(name), ATTRS.get(name)
        spans, stack, clock = self.spans, self._stack, self.clock

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = Span(namer(args, kwargs) if namer else name, clock(),
                        stack[-1] if stack else -1)
            stack.append(len(spans))
            spans.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = clock()
                stack.pop()
            if attrs_of:
                span.attrs = attrs_of(args, kwargs, result)
            return result

        return traced

    # -- installation -----------------------------------------------------
    def _set(self, owner, attr, value):
        self._undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def _replace_everywhere(self, original, wrapper):
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == "specgconv" or mod_name.startswith("specgconv.")):
                continue
            for attr, value in list(vars(mod).items()):
                if value is original:
                    self._set(mod, attr, wrapper)
                elif isinstance(value, dict):
                    for key, item in list(value.items()):
                        if item is original:
                            self._undo.append((value, key, item))
                            value[key] = wrapper

    def install(self):
        import specgconv  # noqa: F401  (loads every module below)
        from specgconv import nn

        for short in MODULES:
            mod = sys.modules[f"specgconv.{short}"]
            for attr, fn in list(vars(mod).items()):
                if attr.startswith("_") or not inspect.isfunction(fn) \
                        or fn.__module__ != mod.__name__:
                    continue
                self._replace_everywhere(fn, self.wrap(f"{short}.{attr}", fn))
        self._set(np.linalg, "eigh", self.wrap("spectral.eigh", np.linalg.eigh))
        self._set(nn.Adam, "step", self.wrap("nn.adam_step", nn.Adam.step))

    def uninstall(self):
        while self._undo:
            owner, key, value = self._undo.pop()
            if isinstance(owner, dict):
                owner[key] = value
            else:
                setattr(owner, key, value)

    # -- analysis ---------------------------------------------------------
    def summary(self) -> dict:
        """Per span name: count, total duration and self time (duration minus
        the time its direct children cover; calls nest, so children never
        overlap)."""
        child_time = [0.0] * len(self.spans)
        for s in self.spans:
            if s.parent >= 0:
                child_time[s.parent] += s.end - s.start
        out = defaultdict(lambda: {"count": 0, "total": 0.0, "self": 0.0})
        for s, inner in zip(self.spans, child_time):
            agg = out[s.name]
            agg["count"] += 1
            agg["total"] += s.end - s.start
            agg["self"] += s.end - s.start - inner
        return dict(out)

    def uncovered(self, regions) -> float:
        """Share of the (start, end) regions that no top-level span covers."""
        total = sum(b - a for a, b in regions)
        covered = 0.0
        for s in self.spans:
            if s.parent < 0:
                for a, b in regions:
                    covered += max(0.0, min(b, s.end) - max(a, s.start))
        return (total - covered) / total if total > 0 else 0.0

    def cache_hits(self) -> tuple:
        """(lookups, hits): decompose calls with a cache directory, and those
        among them that returned without calling eigh."""
        has_eigh = {s.parent for s in self.spans if s.name == "spectral.eigh"}
        lookups = hits = 0
        for i, s in enumerate(self.spans):
            if s.name == "spectral.decompose" and s.attrs and s.attrs["cached"]:
                lookups += 1
                hits += i not in has_eigh
        return lookups, hits


def span_cost(calls: int = 20000, reps: int = 3) -> float:
    """Seconds a tracer wrapper adds to one call: a wrapped no-op minus a plain
    one, median of ``reps`` timings of ``calls`` calls each."""
    def noop():
        return None

    wrapped = Tracer().wrap("noop", noop)
    costs = []
    for _ in range(reps):
        elapsed = []
        for fn in (noop, wrapped):
            t0 = time.perf_counter()
            for _ in range(calls):
                fn()
            elapsed.append(time.perf_counter() - t0)
        costs.append((elapsed[1] - elapsed[0]) / calls)
    return max(0.0, statistics.median(costs))
