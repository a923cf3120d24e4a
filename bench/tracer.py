"""Span tracer that wraps curvlab's functions from outside the package.

Every public function defined at module level in a ``curvlab`` module, and
every public method of a class defined there, is replaced by a wrapper in
each ``curvlab`` namespace that binds it: module attributes, and module-level
dispatch tables such as ``cli.COMMANDS``.  That covers names imported with
``from .x import f`` at import time (``search.transform_frame``) and names
looked up at call time (``from .linalg import self_adjoint_eigen`` inside a
function body).  The wrapped code itself is not modified.  Private helpers
stay unwrapped; their time is charged to the public function that called
them, which lives in the same module.

A span is recorded per call: function, parent span, job id, start, duration,
the time covered by child spans and the tensor dimension ``n``.  Spans are
kept in flat arrays in memory and written out once, at the end of a run.  A
function's self time is its duration minus the time of its child spans; the
self times of all spans of one root call add up to the root's duration.

``parallel_map`` is the package's one higher-order function; the callable it
receives (a restart of the frame search, a Monte Carlo chunk, a sweep row) is
wrapped for the duration of the call, so that work is charged to the layer
that defined the callable instead of to ``_util``.
"""

import array
import importlib
import inspect
import pkgutil
import threading
import time

import numpy as np

PACKAGE = "curvlab"
_NO_DIM = 0


def layer_of(module_name):
    """Layer name of a curvlab module: its last dotted component."""
    return module_name.rsplit(".", 1)[-1]


def curvlab_modules():
    """The package and all its submodules, imported."""
    pkg = importlib.import_module(PACKAGE)
    mods = [pkg]
    for info in pkgutil.iter_modules(pkg.__path__):
        mods.append(importlib.import_module(f"{PACKAGE}.{info.name}"))
    return mods


class Tracer:
    """Collects spans while installed; see the module docstring."""

    def __init__(self):
        self.names = []            # function index -> "layer.qualname"
        self.layers = []           # function index -> layer
        self._index = {}           # "layer.qualname" -> function index
        self.parent = array.array("q")
        self.func = array.array("i")
        self.job = array.array("i")
        self.dim = array.array("i")
        self.start = array.array("d")
        self.dur = array.array("d")
        self.child = array.array("d")
        self.restricted_cone_calls = 0
        self.current_job = -1
        self._local = threading.local()
        self._lock = threading.Lock()
        self._patches = []         # (namespace, attribute, original)
        self._dim_types = ()

    # -- span bookkeeping -------------------------------------------------

    def _func_index(self, name, layer):
        idx = self._index.get(name)
        if idx is None:
            idx = len(self.names)
            self._index[name] = idx
            self.names.append(name)
            self.layers.append(layer)
        return idx

    def _stack(self):
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _dim_of(self, args, kwargs, parent):
        for a in args:
            if isinstance(a, self._dim_types):
                return int(a.n)
        for a in kwargs.values():
            if isinstance(a, self._dim_types):
                return int(a.n)
        if parent >= 0 and self.dim[parent] != _NO_DIM:
            return self.dim[parent]
        for a in args:
            if isinstance(a, np.ndarray) and a.ndim >= 1:
                return int(a.shape[0])
        return _NO_DIM

    def wrap(self, fn, name, layer):
        """Wrapper recording one span per call of ``fn``; results and
        exceptions pass through unchanged."""
        fidx = self._func_index(name, layer)
        tracer = self

        def traced(*args, **kwargs):
            stack = tracer._stack()
            parent = stack[-1] if stack else -1
            dim = tracer._dim_of(args, kwargs, parent)
            with tracer._lock:
                sid = len(tracer.func)
                tracer.parent.append(parent)
                tracer.func.append(fidx)
                tracer.job.append(tracer.current_job)
                tracer.dim.append(dim)
                tracer.start.append(0.0)
                tracer.dur.append(0.0)
                tracer.child.append(0.0)
            stack.append(sid)
            t0 = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = time.perf_counter() - t0
                stack.pop()
                tracer.start[sid] = t0
                tracer.dur[sid] = elapsed
                if parent >= 0:
                    tracer.child[parent] += elapsed

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", name)
        traced.__qualname__ = getattr(fn, "__qualname__", name)
        traced.__doc__ = getattr(fn, "__doc__", None)
        return traced

    # -- installation -----------------------------------------------------

    def install(self):
        """Wrap every curvlab function and method in every namespace that
        binds it.  ``uninstall`` restores the originals."""
        mods = curvlab_modules()
        from curvlab.cones import Cone
        from curvlab.curvature import ChernTensor
        from curvlab.functionals import CurvatureMatrices
        from curvlab.metrics import MetricField, MetricJet
        self._dim_types = (ChernTensor, MetricJet, MetricField, CurvatureMatrices, Cone)

        wrappers = {}
        for mod in mods:
            if mod.__name__ == PACKAGE:
                continue
            layer = layer_of(mod.__name__)
            for attr, obj in list(vars(mod).items()):
                if attr.startswith("_") or getattr(obj, "__module__", None) != mod.__name__:
                    continue
                if inspect.isfunction(obj):
                    wrappers[obj] = self._special(obj, f"{layer}.{attr}", layer)
                elif inspect.isclass(obj):
                    self._wrap_methods(obj, layer)
        for mod in mods:
            for attr, obj in list(vars(mod).items()):
                if inspect.isfunction(obj) and obj in wrappers:
                    self._patch(mod, attr, wrappers[obj])
                elif isinstance(obj, dict):
                    for key, value in list(obj.items()):
                        if inspect.isfunction(value) and value in wrappers:
                            self._patch(obj, key, wrappers[value])
        return self

    def _wrap_methods(self, cls, layer):
        for attr, obj in list(vars(cls).items()):
            if attr.startswith("_") or not inspect.isfunction(obj):
                continue
            self._patch(cls, attr, self.wrap(obj, f"{layer}.{cls.__name__}.{attr}", layer))

    def _special(self, fn, name, layer):
        if name == "_util.parallel_map":
            return self.wrap(self._mapping_callable(fn), name, layer)
        if name == "cones.cone_min":
            return self.wrap(self._counting_restricted(fn), name, layer)
        return self.wrap(fn, name, layer)

    def _mapping_callable(self, fn):
        tracer = self

        def parallel_map(func, items):
            mod = getattr(func, "__module__", "") or ""
            if mod.startswith(PACKAGE) and not hasattr(func, "__wrapped__"):
                layer = layer_of(mod)
                func = tracer.wrap(func, f"{layer}.{func.__qualname__}", layer)
            return fn(func, items)
        return parallel_map

    def _counting_restricted(self, fn):
        tracer = self

        def cone_min(m, cone, *args, **kwargs):
            if getattr(cone, "kind", "full") != "full":
                tracer.restricted_cone_calls += 1
            return fn(m, cone, *args, **kwargs)
        return cone_min

    def _patch(self, namespace, key, value):
        if isinstance(namespace, dict):
            self._patches.append((namespace, key, namespace[key]))
            namespace[key] = value
        else:
            self._patches.append((namespace, key, getattr(namespace, key)))
            setattr(namespace, key, value)

    def uninstall(self):
        for namespace, key, original in reversed(self._patches):
            if isinstance(namespace, dict):
                namespace[key] = original
            else:
                setattr(namespace, key, original)
        self._patches.clear()

    def __enter__(self):
        return self.install()

    def __exit__(self, *exc):
        self.uninstall()
        return False

    # -- results ----------------------------------------------------------

    def arrays(self):
        """Spans as numpy columns; ``func`` indexes ``names`` and ``layers``."""
        cols = {key: np.frombuffer(getattr(self, key), dtype=dtype).copy()
                for key, dtype in (("parent", np.int64), ("func", np.int32),
                                   ("job", np.int32), ("dim", np.int32),
                                   ("start", np.float64), ("dur", np.float64),
                                   ("child", np.float64))}
        cols["self"] = cols["dur"] - cols["child"]
        return cols

    def save(self, path):
        """Write every span to a compressed ``.npz`` file."""
        cols = self.arrays()
        np.savez_compressed(path, names=np.array(self.names), layers=np.array(self.layers),
                            **cols)

    def summary(self):
        """Per-function calls and self time, per-layer self time, the
        per-layer self time broken down by tensor dimension, and the number of
        frame transforms made inside frame searches."""
        cols = self.arrays()
        nfunc = len(self.names)
        calls = np.bincount(cols["func"], minlength=nfunc)
        self_s = np.bincount(cols["func"], weights=cols["self"], minlength=nfunc)
        per_func = {name: {"calls": int(calls[i]), "self_s": float(self_s[i])}
                    for i, name in enumerate(self.names)}
        per_layer, grid = {}, {}
        layer_idx = np.array([self.layers[f] for f in range(nfunc)], dtype=object)
        span_layer = layer_idx[cols["func"]] if nfunc else np.array([], dtype=object)
        for layer in sorted(set(self.layers)):
            mask = span_layer == layer
            per_layer[layer] = float(cols["self"][mask].sum())
            by_n = {}
            for n in np.unique(cols["dim"][mask]):
                by_n[int(n)] = float(cols["self"][mask & (cols["dim"] == n)].sum())
            grid[layer] = by_n
        roots = cols["parent"] < 0
        return {"functions": per_func, "layers": per_layer, "self_s_by_n": grid,
                "root_s": float(cols["dur"][roots].sum()),
                "spans": int(cols["func"].size),
                "frames_in_extremize": self._frames_in_extremize(cols),
                "restricted_cone_calls": self.restricted_cone_calls}

    def _frames_in_extremize(self, cols):
        ext = self._index.get("search.extremize")
        frame = self._index.get("curvature.transform_frame")
        if ext is None or frame is None:
            return 0
        parent, func = cols["parent"], cols["func"]
        child = parent >= 0
        inside = func == ext
        while True:   # one pass per level of nesting
            grown = inside.copy()
            grown[child] |= inside[parent[child]]
            if np.array_equal(grown, inside):
                break
            inside = grown
        return int(np.count_nonzero(inside & (func == frame)))
