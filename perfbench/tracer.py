"""Outside-in span tracer for the jensenlab package.

The tracer wraps every public function and every public method of a public
class defined in a jensenlab module, at every name that holds it: the
defining module, the package's ``__init__`` re-exports and each
``from .x import y`` copy in the other modules.  Patching only the defining
module would miss most calls, because the modules call each other through
their own copies of the names.

A span is ``(name, start, end, parent, op_id, rows)``: ``name`` indexes
``Tracer.names``, ``parent`` is the index of the enclosing wrapped span
(-1 at the top) and ``rows`` the batch rows of the result where a row
counter is defined.  Spans stay in memory until ``write_spans``.
"""

from __future__ import annotations

import importlib
import inspect
import json
import pkgutil
import statistics
from time import perf_counter

import numpy as np


def _len0(out):
    return int(np.shape(out)[0]) if np.ndim(out) else 1


def _first_len0(out):
    return _len0(out[0])


def _size(out):
    return int(np.size(out))


def _sampled_rows(out):
    if isinstance(out, tuple):
        out = out[0]
    return _len0(out) if isinstance(out, np.ndarray) else None


# Batch rows of a call, read from its result.
ROWS = {
    "models.perturbation_values": _len0,
    "models.FunctionModel.eval_many": _len0,
    "series.power_limit_many": _first_len0,
    "control.control_phi_norms": _size,
    "control.RadialControlTable.eval_many": _size,
    "spaces.bj_margin_many": _len0,
    "domains.five_term_defect_many": _first_len0,
}
SAMPLING = "sampling"


def _power_limit_counts(out):
    _, iterations, _, converged = out
    return {"iterations": int(np.sum(iterations)), "converged": int(np.sum(converged))}


def _emit_counts(out):
    return {"bytes": len(out)}


# Further per-call counters, summed per name.
COUNTERS = {
    "series.power_limit_many": _power_limit_counts,
    "experiments.emit_report": _emit_counts,
}


def _modules(package):
    mods = [package]
    for info in pkgutil.iter_modules(package.__path__):
        mods.append(importlib.import_module(f"{package.__name__}.{info.name}"))
    return mods


def _targets(package):
    """(name, owner, attr, function) for each public function and method."""
    out = []
    for mod in _modules(package)[1:]:
        short = mod.__name__.rsplit(".", 1)[1]
        for attr, obj in vars(mod).items():
            if attr.startswith("_") or getattr(obj, "__module__", None) != mod.__name__:
                continue
            if inspect.isfunction(obj):
                out.append((f"{short}.{attr}", mod, attr, obj))
            elif inspect.isclass(obj):
                for meth, fn in vars(obj).items():
                    if not meth.startswith("_") and inspect.isfunction(fn):
                        out.append((f"{short}.{attr}.{meth}", obj, meth, fn))
    return out


class Tracer:
    """Records spans around every call into the package while installed."""

    def __init__(self, package):
        self.package = package
        self.names = []
        self.spans = []
        self.counters = {}
        self.op_id = -1
        self._stack = []
        self._bindings = []

    def reset(self):
        self.spans = []
        self.counters = {}

    def _wrap(self, name, fn):
        idx = len(self.names)
        self.names.append(name)
        rows_of = ROWS.get(name) or (_sampled_rows if name.startswith(SAMPLING + ".") else None)
        count = COUNTERS.get(name)
        stack = self._stack

        def wrapper(*args, **kwargs):
            spans = self.spans
            parent = stack[-1] if stack else -1
            me = len(spans)
            spans.append(None)
            stack.append(me)
            start = perf_counter()
            try:
                out = fn(*args, **kwargs)
            except BaseException:
                spans[me] = (idx, start, perf_counter(), parent, self.op_id, None)
                raise
            finally:
                stack.pop()
            spans[me] = (idx, start, perf_counter(), parent, self.op_id,
                         rows_of(out) if rows_of else None)
            if count:
                for key, value in count(out).items():
                    slot = (name, key)
                    self.counters[slot] = self.counters.get(slot, 0) + value
            return out

        wrapper.__wrapped__ = fn
        wrapper.__name__ = getattr(fn, "__name__", name)
        wrapper.__qualname__ = getattr(fn, "__qualname__", name)
        wrapper.__doc__ = fn.__doc__
        return wrapper

    def install(self):
        """Patch every binding; returns the number of (functions, bindings)."""
        if self._bindings:
            raise RuntimeError("tracer already installed")
        targets = _targets(self.package)
        wrappers = {}
        for name, owner, attr, fn in targets:
            wrappers[id(fn)] = self._wrap(name, fn)
            self._bindings.append((owner, attr, fn))
            setattr(owner, attr, wrappers[id(fn)])
        for mod in _modules(self.package):
            for attr, obj in list(vars(mod).items()):
                w = wrappers.get(id(obj))
                if w is not None and inspect.isfunction(obj) and obj is not w:
                    self._bindings.append((mod, attr, obj))
                    setattr(mod, attr, w)
        return len(targets), len(self._bindings)

    def uninstall(self):
        """Put back every original binding, last patched first."""
        for owner, attr, fn in reversed(self._bindings):
            setattr(owner, attr, fn)
        self._bindings = []

    def write_spans(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"names": self.names, "fields": ["name", "start", "end", "parent",
                                                      "op_id", "rows"],
                       "spans": self.spans}, fh, separators=(",", ":"))


def binding_snapshot(package):
    """Identity of every name in the package's modules and of their classes' members."""
    snap = {}
    for mod in _modules(package):
        for attr, obj in vars(mod).items():
            snap[(mod.__name__, attr)] = id(obj)
            if inspect.isclass(obj) and obj.__module__.startswith(package.__name__):
                for member, value in vars(obj).items():
                    snap[(mod.__name__, attr, member)] = id(value)
    return snap


def self_times(spans):
    """Each span's duration minus the durations of its direct child spans."""
    covered = [0.0] * len(spans)
    for s in spans:
        if s[3] >= 0:
            covered[s[3]] += s[2] - s[1]
    return [s[2] - s[1] - c for s, c in zip(spans, covered)]


def aggregate(tracer):
    """Per-name and per-layer totals of one traced pass."""
    names = tracer.names
    spans = tracer.spans
    own = self_times(spans)
    calls, rows, self_s, layer_s = {}, {}, {}, {}
    sampling_rows = 0
    for s, t in zip(spans, own):
        name = names[s[0]]
        layer = name.split(".", 1)[0]
        calls[name] = calls.get(name, 0) + 1
        self_s[name] = self_s.get(name, 0.0) + t
        layer_s[layer] = layer_s.get(layer, 0.0) + t
        if s[5] is not None:
            rows[name] = rows.get(name, 0) + s[5]
            if layer == SAMPLING and (s[3] < 0 or not names[spans[s[3]][0]].startswith(SAMPLING)):
                sampling_rows += s[5]
    return {"calls": calls, "rows": rows, "self_s": self_s, "layer_s": layer_s,
            "sampling_rows": sampling_rows, "counters": dict(tracer.counters)}


def layer_metric(agg, metric):
    """Value of one per-layer metric name, such as ``series.power_limit_many.rows``."""
    if metric == "sampling.rows":
        return agg["sampling_rows"]
    fn, key = metric.rsplit(".", 1)
    if key == "self_s" and "." not in fn:
        return agg["layer_s"].get(fn, 0.0)
    if key == "calls":
        return agg["calls"].get(fn, 0)
    if key == "rows":
        return agg["rows"].get(fn, 0)
    if key == "self_s":
        return agg["self_s"].get(fn, 0.0)
    if key == "converged_ratio":
        n = agg["rows"].get(fn, 0)
        return agg["counters"].get((fn, "converged"), 0) / n if n else 1.0
    if key in ("iterations", "bytes"):
        return agg["counters"].get((fn, key), 0)
    raise KeyError(f"unknown per-layer metric {metric!r}")


def median_metrics(aggs, metrics):
    """Median over traced passes of each named per-layer metric."""
    return {m: statistics.median(layer_metric(a, m) for a in aggs) for m in metrics}
