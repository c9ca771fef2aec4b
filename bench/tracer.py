"""Outside-in tracing of besovlab: wraps module functions, never edits them.

`Tracer.install` wraps every public function defined in a besovlab module and
rebinds the wrapper under every name that binds the original in any besovlab
module, so `from .atoms import level_weight` in fieldnorms is traced as well
as `atoms.level_weight`.  Only names that exist are wrapped; metrics of a name
that a later version deletes read as None.

Layer functions record a span each (name, start, end, parent span, command).
Hot leaves, called tens of thousands of times per run, record only counters
and accumulated time.  `psi_dyadic`, `psi_dyadic_log` and `block_average`,
called millions of times on the exact tier, are only counted; their time
stays in their callers' self time.  Self time is a call's duration minus the time spent in traced
calls it made, so the self times of all traced functions sum to the time
spent inside the outermost traced call.  Spans stay in memory and are
written once, by `write_spans`, when the traced process ends.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import os
import sys
from time import perf_counter

import numpy as np

PACKAGE = "besovlab"
MODULES = (
    "params", "slowly_varying", "sequences", "atoms", "norms",
    "fieldnorms", "reporting", "experiments", "cli",
)

# Counters and accumulated time only, no span per call.
LEAVES = frozenset({"atoms.psi0", "atoms.level_weight", "atoms.level_x1_profile"})

# Call counts only.  seq-build --J 4096 makes 8.4 million calls each of
# psi_dyadic and block_average; a Python wrapper would add about half to its
# time.  lru_cache with maxsize=0 caches nothing: it is a C wrapper that calls
# through and counts every call as a miss.
COUNTED = frozenset({
    "slowly_varying.psi_dyadic", "slowly_varying.psi_dyadic_log", "sequences.block_average",
})

# Not wrapped: psi0 makes three bump_v and six bump_u calls per call, so
# wrapping them would multiply the tracing cost; their time is psi0's self time.
UNWRAPPED = frozenset({"atoms.bump_u", "atoms.bump_v"})


def _arg(args, kwargs, index, name):
    return args[index] if len(args) > index else kwargs.get(name)


def _points(index, name):
    return lambda args, kwargs, result: int(np.size(_arg(args, kwargs, index, name)))


def _eval_points(args, kwargs, result):
    x = np.asarray(_arg(args, kwargs, 1, "x"))
    return 1 if x.ndim < 2 else int(x.shape[0])


def _levels(args, kwargs, result):
    return int(_arg(args, kwargs, 2, "J"))


def _bytes_written(args, kwargs, result):
    return os.path.getsize(_arg(args, kwargs, 0, "path"))


# Extra counters: qualified name -> (stat name, extractor(args, kwargs, result)).
EXTRA = {
    "atoms.psi0": ("points", _points(0, "t")),
    "atoms.level_weight": ("points", _points(2, "xN")),
    "atoms.level_x1_profile": ("points", _points(2, "x1")),
    "atoms.eval_f": ("points", _eval_points),
    "sequences.build_S": ("levels", _levels),
    "reporting.write_csv": ("bytes", _bytes_written),
}


class Tracer:
    def __init__(self):
        self.stats: dict[str, dict] = {}
        self.spans: list[tuple] = []
        self.command: str | None = None
        self._stack: list[list] = []  # per active call: [child time, enclosing span id]
        self._originals: dict[str, object] = {}
        self._counters: dict[str, object] = {}
        self._patched: list[tuple] = []  # (module, attribute, original)
        self._epoch = perf_counter()

    def _wrap(self, qual: str, fn):
        if qual in COUNTED:
            self._counters[qual] = functools.lru_cache(maxsize=0)(fn)
            return self._counters[qual]
        stat = self.stats.setdefault(qual, {"calls": 0, "total_s": 0.0, "self_s": 0.0})
        stack, spans = self._stack, self.spans
        extra_name, extra = EXTRA.get(qual, (None, None))
        if extra_name:
            stat[extra_name] = 0
        leaf = qual in LEAVES
        tracer = self

        def traced(*args, **kwargs):
            parent_span = stack[-1][1] if stack else None
            span_id = None if leaf else len(spans)
            if span_id is not None:
                spans.append(None)  # reserve the id; filled in on return
            frame = [0.0, parent_span if span_id is None else span_id]
            stack.append(frame)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                elapsed = end - start
                stat["calls"] += 1
                stat["total_s"] += elapsed
                stat["self_s"] += elapsed - frame[0]
                if stack:
                    stack[-1][0] += elapsed
                if span_id is not None:
                    spans[span_id] = (
                        qual, start - tracer._epoch, end - tracer._epoch, parent_span, tracer.command
                    )
            if extra_name:
                stat[extra_name] += extra(args, kwargs, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def install(self) -> None:
        modules = {}
        for short in MODULES:
            try:
                modules[short] = importlib.import_module(f"{PACKAGE}.{short}")
            except ModuleNotFoundError:
                continue
        wrappers = {}
        for short, mod in modules.items():
            for name, obj in vars(mod).items():
                qual = f"{short}.{name}"
                if name.startswith("_") or qual in UNWRAPPED:
                    continue
                if getattr(obj, "__module__", None) != mod.__name__:
                    continue
                if not (inspect.isfunction(obj) or hasattr(obj, "cache_info")):
                    continue
                self._originals[qual] = obj
                wrappers[id(obj)] = (obj, self._wrap(qual, obj))
        bound = [sys.modules[PACKAGE], *modules.values()]
        for mod in bound:
            for name, obj in list(vars(mod).items()):
                hit = wrappers.get(id(obj))
                if hit is not None and hit[0] is obj:
                    setattr(mod, name, hit[1])
                    self._patched.append((mod, name, obj))

    def uninstall(self) -> None:
        for mod, name, obj in reversed(self._patched):
            setattr(mod, name, obj)
        self._patched.clear()

    def metric(self, name: str):
        """Value of `<module>.<function>.<stat>`, or None when the name is absent."""
        qual, _, stat = name.rpartition(".")
        if qual in self._counters:
            return self._counters[qual].cache_info().misses if stat == "calls" else None
        if stat == "hit_ratio":
            fn = self._originals.get(qual)
            if fn is None or not hasattr(fn, "cache_info"):
                return None
            info = fn.cache_info()
            lookups = info.hits + info.misses
            return info.hits / lookups if lookups else 0.0
        return self.stats.get(qual, {}).get(stat)

    def self_time_total(self) -> float:
        return sum(s["self_s"] for s in self.stats.values())

    def write_spans(self, path) -> None:
        with open(path, "w") as fh:
            for i, span in enumerate(self.spans):
                if span is None:  # a call still open when the process ended
                    continue
                name, start, end, parent, command = span
                fh.write(json.dumps({
                    "id": i, "name": name, "start": start, "end": end,
                    "parent": parent, "command": command,
                }) + "\n")
