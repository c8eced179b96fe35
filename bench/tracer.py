"""Span tracer that wraps a package's public functions from outside.

`Tracer.install` replaces every public module-level function and public
method of the given modules with a wrapper that records a span (name,
start, end, parent, job). Names bound by `from .x import f` in sibling
modules are replaced too, so calls across modules are seen. `uninstall`
puts the originals back. Spans stay in memory until `layer_metrics`
aggregates them.
"""

from __future__ import annotations

import functools
import inspect
import os
from time import perf_counter_ns


class Tracer:
    def __init__(self, modules, hooks=None):
        """`hooks` maps "module.func" to f(tracer, bound_args, result)."""
        self.modules = list(modules)
        self.hooks = hooks or {}
        self.spans = []  # (name, start_ns, end_ns, parent_index, job)
        self.counters = {}  # summed over calls
        self.peaks = {}  # largest value over calls
        self.job = 0
        self._stack = []
        self._patches = []

    def count(self, name, amount=1):
        self.counters[name] = self.counters.get(name, 0) + amount

    def peak(self, name, value):
        self.peaks[name] = max(self.peaks.get(name, value), value)

    def _wrap(self, name, fn):
        spans, stack = self.spans, self._stack
        hook = self.hooks.get(name)
        sig = inspect.signature(fn) if hook else None

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            start = perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter_ns()
                stack.pop()
                spans[idx] = (name, start, end, parent, self.job)
            if hook:
                bound = sig.bind(*args, **kwargs)
                bound.apply_defaults()
                hook(self, bound.arguments, result)
            return result

        return wrapper

    def install(self):
        layer = {m.__name__: m.__name__.rsplit(".", 1)[-1] for m in self.modules}
        wrapped = {}
        for mod in self.modules:
            for attr, obj in list(vars(mod).items()):
                if attr.startswith("_"):
                    continue
                if inspect.isfunction(obj) and obj.__module__ == mod.__name__:
                    wrapped[id(obj)] = (obj, self._wrap(f"{layer[mod.__name__]}.{attr}", obj))
                elif inspect.isclass(obj) and obj.__module__ == mod.__name__:
                    for meth, fn in list(vars(obj).items()):
                        if not meth.startswith("_") and inspect.isfunction(fn):
                            name = f"{layer[mod.__name__]}.{attr}.{meth}"
                            self._patches.append((obj, meth, fn))
                            setattr(obj, meth, self._wrap(name, fn))
        for mod in self.modules:
            for attr, obj in list(vars(mod).items()):
                if inspect.isfunction(obj) and id(obj) in wrapped:
                    self._patches.append((mod, attr, obj))
                    setattr(mod, attr, wrapped[id(obj)][1])

    def uninstall(self):
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    def layer_metrics(self):
        """Aggregate spans and counters: per-function .s/.self_s/.calls,
        per-layer .self_s, and the summed counters (peaks are separate).

        `.s` counts only the outermost span of a name, so a function that
        reaches itself through another wrapped function is not counted twice.
        """
        spans = self.spans
        child = [0] * len(spans)
        for name, start, end, parent, _ in spans:
            if parent >= 0:
                child[parent] += end - start
        out = {}

        def add(key, value):
            out[key] = out.get(key, 0) + value

        for i, (name, start, end, parent, _) in enumerate(spans):
            dur = end - start
            layer = name.split(".", 1)[0]
            add(f"{name}.calls", 1)
            add(f"{name}.self_s", (dur - child[i]) / 1e9)
            add(f"{layer}.self_s", (dur - child[i]) / 1e9)
            p = parent
            while p >= 0 and spans[p][0] != name:
                p = spans[p][3]
            if p < 0:
                add(f"{name}.s", dur / 1e9)
        out.update(self.counters)
        return out


def _series_mul(tr, args, result):
    tr.count("hecke.series_mul.out_terms", args["n_out"])


def _save_table(tr, args, result):
    tr.count("hecke.cache_bytes", os.path.getsize(result))


def _rhs_local(tr, args, result):
    tr.count("euler.rhs_local.root_steps", (args["j"] + 1) ** args["l"] * args["A"])


def _correction_series(tr, args, result):
    if len(result.coeffs) > 1:
        tr.peak("euler.x1_residual_max", abs(result.coeffs[1]))


#: counters that need a function's arguments or result
HOOKS = {
    "hecke.series_mul": _series_mul,
    "hecke.save_table": _save_table,
    "euler.rhs_local": _rhs_local,
    "euler.correction_series": _correction_series,
}
