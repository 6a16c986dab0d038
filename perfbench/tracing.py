"""Layer tracing from outside the package.

``install`` wraps the public functions and class methods of every layer
module of ``diracsplit`` and rebinds every module-level name (and every
value of a module-level dict) that refers to an original, so calls made
through names another module imported directly (``suites`` imports
``split`` by name, for instance) are caught as well.

A span opens whenever a call crosses from one layer into another, and
for the functions listed in ``TIMED`` even inside one layer.  A span's
self time is its duration minus the time its child spans cover; it is
added to the span's layer, so the layers' self times sum to the
duration of the outermost spans.  Spans are aggregated as they close
(self time per layer, inclusive time per timed function, and time and
count per caller->callee layer edge); ``keep_spans=True`` also keeps
every span with its parent link, for tests.
"""

from __future__ import annotations

import importlib
import sys
import time
import types
from dataclasses import dataclass, field
from typing import Callable, Optional

#: layer name -> module; the order is the package's dependency order
LAYERS = {
    "scalars": "diracsplit.scalars",
    "matrices": "diracsplit.matrices",
    "kernels": "diracsplit.kernels",
    "gamma": "diracsplit.gamma",
    "fields": "diracsplit.fields",
    "projectors": "diracsplit.projectors",
    "subsolutions": "diracsplit.subsolutions",
    "lorentz": "diracsplit.lorentz",
    "reports": "diracsplit.reports",
    "suites": "diracsplit.suites",
    "cli": "diracsplit.cli",
}

#: private names wrapped in addition to the public ones: the suite runners
EXTRA = {
    "suites": ("_run_clifford", "_run_projectors", "_run_split", "_run_weyl",
               "_run_majorana", "_run_covariance"),
}

#: functions that always open a span, so their inclusive time is known
TIMED = frozenset({
    "cli.main",
    "suites.run",
    *(f"suites.{n}" for n in EXTRA["suites"]),
    "gamma.intertwiner_pair",
    "projectors.build_projectors",
    "kernels.mul",
    "kernels.mul_vec",
    "kernels.max_abs",
    "kernels.max_abs_diff",
    "kernels.expm",
})


def _name_of(obj) -> Optional[str]:
    return getattr(obj, "name", None)


def _pair_key(rep_from=None, rep_to=None, *rest, **kwargs):
    return (_name_of(rep_from), _name_of(rep_to))


def _lorentz_key(params=None, rep=None, *rest, **kwargs):
    return (getattr(params, "kind", None), getattr(params, "plane", None),
            getattr(params, "omega", None), _name_of(rep))


#: functions whose distinct arguments are counted, for useful-work ratios
KEYS = {
    "gamma.intertwiner_pair": _pair_key,
    "lorentz.spinor_transform": _lorentz_key,
}

# methods that are never wrapped: object protocol hooks, not layer work
_SKIP_METHODS = frozenset({
    "__setattr__", "__delattr__", "__getattribute__", "__getattr__",
    "__new__", "__init_subclass__", "__class_getitem__",
})


@dataclass
class Stat:
    calls: int = 0
    time: float = 0.0  # inclusive; only kept for TIMED functions
    keys: Optional[set] = None


@dataclass
class Span:
    ident: int
    parent: Optional[int]
    layer: str
    name: str
    start: float
    end: float = 0.0


@dataclass
class Tracer:
    clock: Callable[[], float] = time.perf_counter
    keep_spans: bool = False
    stats: dict = field(default_factory=dict)  # qualified name -> Stat
    self_time: dict = field(default_factory=dict)  # layer -> seconds
    edges: dict = field(default_factory=dict)  # (caller, callee) -> [n, s]
    spans: list = field(default_factory=list)
    _stack: list = field(default_factory=list)  # [layer, child_s, span]

    def stat(self, name: str) -> Stat:
        st = self.stats.get(name)
        if st is None:
            st = self.stats[name] = Stat()
        return st

    def wrap(self, fn, layer: str, name: str):
        """Return a wrapper of ``fn`` that counts calls and records spans."""
        st = self.stat(name)
        timed = name in TIMED
        keyf = KEYS.get(name)
        if keyf is not None:
            st.keys = set()
        stack = self._stack

        def traced(*args, **kwargs):
            st.calls += 1
            if keyf is not None:
                st.keys.add(keyf(*args, **kwargs))
            if not timed and stack and stack[-1][0] is layer:
                return fn(*args, **kwargs)
            return self._span(fn, layer, name, st if timed else None, args, kwargs)

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", name)
        traced.__doc__ = getattr(fn, "__doc__", None)
        return traced

    def _span(self, fn, layer, name, st, args, kwargs):
        stack = self._stack
        caller = stack[-1][0] if stack else None
        span = None
        if self.keep_spans:
            parent = stack[-1][2].ident if stack else None
            span = Span(len(self.spans), parent, layer, name, 0.0)
            self.spans.append(span)
        frame = [layer, 0.0, span]
        stack.append(frame)
        t0 = self.clock()
        try:
            return fn(*args, **kwargs)
        finally:
            t1 = self.clock()
            stack.pop()
            dt = t1 - t0
            self.self_time[layer] = self.self_time.get(layer, 0.0) + dt - frame[1]
            if stack:
                stack[-1][1] += dt
            if st is not None:
                st.time += dt
            edge = self.edges.get((caller, layer))
            if edge is None:
                edge = self.edges[(caller, layer)] = [0, 0.0]
            edge[0] += 1
            edge[1] += dt
            if span is not None:
                span.start, span.end = t0, t1


def _layer_objects(layer: str, module: types.ModuleType):
    """(name, object) pairs of the functions and classes a layer owns."""
    prefix = module.__name__
    names = [n for n in vars(module) if not n.startswith("_")]
    names += [n for n in EXTRA.get(layer, ()) if hasattr(module, n)]
    for n in names:
        obj = getattr(module, n)
        owner = getattr(obj, "__module__", None) or ""
        if owner != prefix and not owner.startswith(prefix + "."):
            continue
        if isinstance(obj, type):
            if issubclass(obj, BaseException):
                continue
            yield n, obj
        elif callable(obj):
            yield n, obj


def _wrap_class(tracer: Tracer, cls: type, layer: str, undo: list) -> None:
    for attr, value in list(vars(cls).items()):
        if attr in _SKIP_METHODS:
            continue
        name = f"{layer}.{cls.__name__}.{attr}"
        if isinstance(value, types.FunctionType):
            new = tracer.wrap(value, layer, name)
        elif isinstance(value, classmethod):
            new = classmethod(tracer.wrap(value.__func__, layer, name))
        elif isinstance(value, staticmethod):
            new = staticmethod(tracer.wrap(value.__func__, layer, name))
        elif isinstance(value, property) and value.fget is not None:
            new = property(tracer.wrap(value.fget, layer, name),
                           value.fset, value.fdel, value.__doc__)
        else:
            continue
        setattr(cls, attr, new)
        undo.append((cls, attr, value))


class Patch:
    """The wrappers one ``install`` made, and how to take them out again."""

    def __init__(self):
        self.undo: list = []  # (container, key, original)
        self.originals: dict = {}  # id(original function) -> qualified name

    def uninstall(self) -> None:
        for container, key, original in reversed(self.undo):
            if isinstance(container, dict):
                container[key] = original
            else:
                setattr(container, key, original)
        self.undo.clear()

    def unwrapped_aliases(self) -> list:
        """Module-level names in the package that still refer to an original.

        Empty while installed: no layer silently reads zero because a
        caller holds its own reference to an unwrapped function.
        """
        found = []
        for name, module in _package_modules():
            for attr, value in vars(module).items():
                if id(value) in self.originals:
                    found.append(f"{name}.{attr} -> {self.originals[id(value)]}")
        return found


def _package_modules():
    return [(name, m) for name, m in list(sys.modules.items())
            if m is not None and (name == "diracsplit" or name.startswith("diracsplit."))]


def install(tracer: Tracer, layers=LAYERS) -> Patch:
    """Wrap every layer of the package and rebind every name that refers to it."""
    patch = Patch()
    wrappers: dict = {}  # id(original) -> (original, wrapper)
    for layer, modname in layers.items():
        module = importlib.import_module(modname)
        for n, obj in _layer_objects(layer, module):
            if isinstance(obj, type):
                _wrap_class(tracer, obj, layer, patch.undo)
            elif id(obj) not in wrappers:
                wrappers[id(obj)] = (obj, tracer.wrap(obj, layer, f"{layer}.{n}"))
                patch.originals[id(obj)] = f"{layer}.{n}"

    def swap(value):
        hit = wrappers.get(id(value))
        return hit[1] if hit is not None and hit[0] is value else None

    for _, module in _package_modules():
        for attr, value in list(vars(module).items()):
            new = swap(value)
            if new is not None:
                setattr(module, attr, new)
                patch.undo.append((module, attr, value))
            elif isinstance(value, dict) and not attr.startswith("__"):
                for key, item in list(value.items()):
                    new = swap(item)
                    if new is not None:
                        value[key] = new
                        patch.undo.append((value, key, item))
    return patch
