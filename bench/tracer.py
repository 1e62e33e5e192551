"""In-memory span tracer for the causalflag layers.

The tracer wraps the public functions of each layer module and the public
methods (plus construction and arithmetic) of KMat, GroupElement,
ShilovPoint and Hull.  Every ``causalflag.*`` module attribute that holds a
wrapped object is rebound, so calls from one module into another are seen.

Each call becomes a span (name, start, end, parent) kept in compact arrays.
A span's self time is its duration minus the durations of its direct
children; a layer's ``self_s`` is the sum of self times over its spans.
Nothing is written until ``dump`` is called at the end of a run.
"""

from __future__ import annotations

import functools
import inspect
import json
import sys
from array import array
from collections import Counter, defaultdict
from time import perf_counter

LAYERS = ("kmat", "linalg", "groups", "shilov", "causal", "maslov", "reps", "einstein")
CLASSES = (("kmat", "KMat"), ("groups", "GroupElement"), ("shilov", "ShilovPoint"), ("causal", "Hull"))
DUNDERS = ("__init__", "__add__", "__sub__", "__neg__", "__mul__", "__rmul__", "__matmul__")


def _ball_counts(result, counters):
    counters["reps.ball_words"] += len(result.words)
    counters["reps.dedup_removed"] += int(result.dedup.get("removed", 0))


# counters read from return values at the layer boundary
RESULT_HOOKS = {"reps.enumerate_ball": _ball_counts}


class Tracer:
    def __init__(self):
        self.names = []
        self._ids = {}
        self.span_name = array("i")
        self.span_parent = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self.layer_self = defaultdict(float)
        self.counters = Counter()
        self._stack = []
        self._undo = []

    # ------------------------------------------------------------- wrapping

    def _wrap(self, layer, qualname, fn):
        name = f"{layer}.{qualname}"
        nid = self._ids.setdefault(name, len(self.names))
        if nid == len(self.names):
            self.names.append(name)
        hook = RESULT_HOOKS.get(name)
        stack = self._stack
        starts, ends = self.span_start, self.span_end
        names, parents = self.span_name, self.span_parent
        layer_self, counters = self.layer_self, self.counters

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(starts)
            names.append(nid)
            parents.append(stack[-1][0] if stack else -1)
            starts.append(0.0)
            ends.append(0.0)
            frame = [idx, 0.0]
            stack.append(frame)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                stack.pop()
                starts[idx] = t0
                ends[idx] = t1
                if stack:
                    stack[-1][1] += t1 - t0
                layer_self[layer] += (t1 - t0) - frame[1]
            if hook is not None:
                hook(result, counters)
            return result

        return traced

    def _rebind(self, owner, attr, new):
        self._undo.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, new)

    def install(self, package="causalflag", also=()):
        """Wrap every layer of a package; undo with ``uninstall``.

        Modules in ``also`` (callers outside the package) get their imported
        names rebound too, so their calls into the package are traced.
        """
        if self._undo:
            raise RuntimeError("tracer already installed")
        __import__(package)
        for layer in LAYERS:
            __import__(f"{package}.{layer}")
        modules = [m for n, m in list(sys.modules.items())
                   if m is not None and (n == package or n.startswith(package + "."))]
        modules += list(also)
        wrapped = {}
        for layer in LAYERS:
            mod = sys.modules[f"{package}.{layer}"]
            for name, obj in vars(mod).items():
                if (not name.startswith("_") and inspect.isfunction(obj)
                        and obj.__module__ == mod.__name__):
                    wrapped[id(obj)] = (obj, self._wrap(layer, name, obj))
        for mod in modules:
            for name, obj in list(vars(mod).items()):
                hit = wrapped.get(id(obj))
                if hit is not None and hit[0] is obj:
                    self._rebind(mod, name, hit[1])
        for layer, cls_name in CLASSES:
            cls = getattr(sys.modules[f"{package}.{layer}"], cls_name)
            for name, attr in list(vars(cls).items()):
                if name.startswith("_") and name not in DUNDERS:
                    continue
                qual = f"{cls_name}.{name}"
                if isinstance(attr, classmethod):
                    new = classmethod(self._wrap(layer, qual, attr.__func__))
                elif isinstance(attr, staticmethod):
                    new = staticmethod(self._wrap(layer, qual, attr.__func__))
                elif isinstance(attr, property) and attr.fget is not None:
                    new = property(self._wrap(layer, qual, attr.fget), attr.fset, attr.fdel, attr.__doc__)
                elif inspect.isfunction(attr):
                    new = self._wrap(layer, qual, attr)
                else:
                    continue
                self._rebind(cls, name, new)
        return self

    def uninstall(self):
        while self._undo:
            owner, attr, orig = self._undo.pop()
            setattr(owner, attr, orig)

    # ------------------------------------------------------------- results

    def summary(self) -> dict:
        """Per-layer self time and call counts, per-name call counts, counters."""
        per_name = Counter()
        for nid in self.span_name:
            per_name[self.names[nid]] += 1
        calls = Counter()
        for name, n in per_name.items():
            calls[name.split(".", 1)[0]] += n
        return {
            "self_s": {layer: float(self.layer_self.get(layer, 0.0)) for layer in LAYERS},
            "calls": {layer: int(calls.get(layer, 0)) for layer in LAYERS},
            "per_name": dict(per_name),
            "counters": dict(self.counters),
            "spans": len(self.span_start),
        }

    def dump(self, path):
        """Write every span plus the summary to ``path`` (numpy .npz)."""
        import numpy as np

        np.savez(
            path,
            name=np.frombuffer(self.span_name, dtype=np.int32),
            parent=np.frombuffer(self.span_parent, dtype=np.int32),
            start=np.frombuffer(self.span_start, dtype=np.float64),
            end=np.frombuffer(self.span_end, dtype=np.float64),
            names=np.array(self.names),
            summary=np.array(json.dumps(self.summary())),
        )


def merge_summaries(summaries) -> dict:
    """Sum summaries of several traced processes."""
    out = {"self_s": Counter(), "calls": Counter(), "per_name": Counter(),
           "counters": Counter(), "spans": 0}
    for s in summaries:
        for key in ("self_s", "calls", "per_name", "counters"):
            out[key].update(s[key])
        out["spans"] += s["spans"]
    return {k: (dict(v) if isinstance(v, Counter) else v) for k, v in out.items()}


def load_summary(path) -> dict:
    import numpy as np

    with np.load(path) as data:
        return json.loads(str(data["summary"]))
