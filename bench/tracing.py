"""Per-layer tracing from outside the program.

``Tracer.install`` wraps every public module-level function of the pcgrav
modules (plus ``Grid4.radius`` and ``CutoffFunction.on_grid``) and swaps
each wrapper into every pcgrav namespace that holds the original, so calls
made through ``from .grid import diff_axis`` are seen too.  Each call is a
span with its parent; a layer's self time is its span time minus the time
of its child spans.  Counters that need work of their own (the content
fingerprint behind ``repeat_calls``, computed byte counts) run outside the
span and are subtracted from the enclosing span as well, so they show only
in the run's total wall time, that is in ``trace.overhead_s``.

Byte counts are computed from array sizes (``nbytes`` of the inputs and
the result), not measured memory traffic; ``report.write_report.bytes`` is
the size of the file written.
"""

from __future__ import annotations

import functools
import hashlib
import importlib
import inspect
import pkgutil
from collections import defaultdict
from time import perf_counter

import numpy as np

WRAPPED_METHODS = (("grid", "Grid4", "radius"),
                   ("symmetry", "CutoffFunction", "on_grid"))
SPAN_LIMIT = 200_000     # spans kept for the trace file; counts are exact
FINGERPRINT_SAMPLES = 4096


def fingerprint(values: np.ndarray) -> tuple:
    """Content fingerprint: shape, a hash of an even sample, the total."""
    flat = np.ascontiguousarray(values).reshape(-1)
    sample = flat[::max(1, flat.size // FINGERPRINT_SAMPLES)]
    digest = hashlib.blake2b(sample.tobytes(), digest_size=16).hexdigest()
    return values.shape, values.dtype.str, digest, float(flat.sum())


class Tracer:
    """Span recorder with per-name call counts, self time and counters."""

    def __init__(self):
        self.stats = defaultdict(lambda: defaultdict(float))
        self.spans = []
        self.dropped = 0
        self._stack = []          # [child seconds, span index] per open span
        self._seen = set()        # (fingerprint, axis) differentiated so far
        self._undo = []
        self.counter_s = 0.0      # time spent computing counters
        self.hook_errors = set()

    # -- counters: hooks get the call's arguments by parameter name ---------

    def _diff_axis_before(self, stat, arguments, result):
        values = arguments["values"]
        key = (fingerprint(values), arguments["axis"] % values.ndim,
               arguments["spacing"])
        if key in self._seen:
            stat["repeat_calls"] += 1
        self._seen.add(key)

    @staticmethod
    def _diff_axis_after(stat, arguments, result):
        stat["bytes"] += arguments["values"].nbytes + result.nbytes

    @staticmethod
    def _wedge_after(stat, arguments, result):
        stat["bytes"] += (arguments["a"].data.nbytes
                          + arguments["b"].data.nbytes + result.data.nbytes)

    @staticmethod
    def _interpolate_before(stat, arguments, result):
        stat["points"] += len(arguments["points"])

    @staticmethod
    def _write_report_after(stat, arguments, result):
        stat["bytes"] += result.stat().st_size

    def _hooks(self):
        return {"grid.diff_axis": (self._diff_axis_before,
                                   self._diff_axis_after),
                "fields.wedge": (None, self._wedge_after),
                "mass.interpolate_slice": (self._interpolate_before, None),
                "report.write_report": (None, self._write_report_after)}

    # -- spans -------------------------------------------------------------

    def _wrap(self, name, fn, before=None, after=None):
        stat = self.stats[name]
        stack, spans = self._stack, self.spans
        signature = inspect.signature(fn)

        def counted(hook, args, kwargs, result=None):
            t0 = perf_counter()
            try:
                hook(stat, signature.bind(*args, **kwargs).arguments, result)
            except (KeyError, TypeError) as exc:
                # a changed signature loses the counter, not the run
                self.hook_errors.add(f"{name}: {exc!r}")
            spent = perf_counter() - t0
            self.counter_s += spent
            if stack:
                stack[-1][0] += spent

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if before is not None:
                counted(before, args, kwargs)
            parent = stack[-1][1] if stack else -1
            index = len(spans) if len(spans) < SPAN_LIMIT else -1
            frame = [0.0, index]
            stack.append(frame)
            t0 = perf_counter()
            if index >= 0:
                spans.append([name, parent, t0, t0])
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                stack.pop()
                if stack:
                    stack[-1][0] += t1 - t0
                stat["calls"] += 1
                stat["self_s"] += (t1 - t0) - frame[0]
                if index >= 0:
                    spans[index][3] = t1
                else:
                    self.dropped += 1
            if after is not None:
                counted(after, args, kwargs, result)
            return result
        return wrapper

    def install(self, package) -> None:
        modules = [importlib.import_module(f"{package.__name__}.{info.name}")
                   for info in pkgutil.iter_modules(package.__path__)]
        hooks = self._hooks()
        replace = {}
        for module in modules:
            short = module.__name__.rsplit(".", 1)[1]
            for attr, obj in vars(module).items():
                if (attr.startswith("_") or not inspect.isfunction(obj)
                        or obj.__module__ != module.__name__):
                    continue
                name = f"{short}.{attr}"
                replace[obj] = self._wrap(name, obj, *hooks.get(name, ()))
        for module in modules:
            for attr, obj in list(vars(module).items()):
                if inspect.isfunction(obj) and obj in replace:
                    self._undo.append((module, attr, obj))
                    setattr(module, attr, replace[obj])
        by_short = {m.__name__.rsplit(".", 1)[1]: m for m in modules}
        for short, cls_name, method in WRAPPED_METHODS:
            cls = getattr(by_short[short], cls_name)
            original = cls.__dict__[method]
            self._undo.append((cls, method, original))
            setattr(cls, method, self._wrap(f"{short}.{cls_name}.{method}",
                                            original))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._undo):
            setattr(owner, attr, original)
        self._undo.clear()

    def table(self) -> dict:
        return {name: dict(stat) for name, stat in sorted(self.stats.items())
                if stat.get("calls")}

    def dump(self) -> dict:
        """Aggregates plus the spans, start times relative to the first."""
        origin = self.spans[0][2] if self.spans else 0.0
        return {"table": self.table(), "counter_s": self.counter_s,
                "hook_errors": sorted(self.hook_errors),
                "spans_dropped": self.dropped,
                "spans": [[name, parent, round(t0 - origin, 7),
                           round(t1 - origin, 7)]
                          for name, parent, t0, t1 in self.spans]}
