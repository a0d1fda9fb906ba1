"""Call counting and per-layer spans, installed from outside the library.

Nothing under ``src/`` knows about this module.  ``Tracer`` wraps every
public function of each library module and patches the wrapper into every
module that imported the function by name, so a call made through any of
those names lands in the same span.  A few methods that the layers reach
through an object (``density.eval``, ``manifold.retract``) are wrapped on
each class that defines them.  ``uninstall`` puts back every original object
it replaced, in reverse order.

A span that re-enters itself (``SumDensity.eval`` calling its parts'
``eval``, ``Product.tangent_project`` calling its factors') is recorded once,
at its outermost call.  A span's self time is its duration minus the time
covered by the spans it called.
"""

from __future__ import annotations

import functools
import importlib
import inspect
from collections import defaultdict
from time import perf_counter

PACKAGE = "complexbodies"
MODULES = ("fields", "minors", "manifolds", "energy", "balance", "admissibility",
           "fieldio", "minimize", "scenarios")
# methods reached through an instance, wrapped on every class that defines them
METHODS = {
    "energy": ("eval", "d_F", "d_N"),
    "manifolds": ("retract", "tangent_project"),
}
# bindings whose calls the untraced runs count: the names minimize() calls
COUNTED = (("minimize", "total_energy"), ("minimize", "riesz_gradient"))


def _modules():
    return {name: importlib.import_module(f"{PACKAGE}.{name}") for name in MODULES}


class _Patches:
    """Replaced attributes, restorable in reverse order."""

    def __init__(self):
        self.replaced = []  # (owner, attribute, original)

    def set(self, owner, attr, value):
        self.replaced.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def restore(self):
        while self.replaced:
            owner, attr, original = self.replaced.pop()
            setattr(owner, attr, original)


class CallCounter:
    """Counts calls through the names in ``COUNTED``; adds no timers."""

    def __init__(self):
        self.calls = {binding: 0 for binding in COUNTED}
        self._patches = _Patches()

    def install(self):
        modules = _modules()
        for binding in COUNTED:
            module, attr = binding
            fn = getattr(modules[module], attr)

            @functools.wraps(fn)
            def counted(*args, _fn=fn, _binding=binding, **kwargs):
                self.calls[_binding] += 1
                return _fn(*args, **kwargs)

            self._patches.set(modules[module], attr, counted)

    def uninstall(self):
        self._patches.restore()

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()


def gradient_bytes(state, result) -> int:
    """Bytes one gradients() call reads and writes, computed from array sizes."""
    read = state.u.nbytes + state.nu.nbytes
    written = sum(getattr(result, f).nbytes for f in ("x", "u_bar", "F", "nu_bar", "N"))
    return read + written


class Tracer:
    """Spans at every public layer boundary of the library."""

    def __init__(self):
        self.durations = defaultdict(list)  # span -> seconds per outermost call
        self.self_times = defaultdict(list)
        self.gradient_bytes = []
        self._depth = defaultdict(int)
        self._children = []  # stack of child-time accumulators
        self._patches = _Patches()

    def install(self):
        modules = _modules()
        spans = {}  # id(original function) -> span name
        for short, module in modules.items():
            for attr, obj in vars(module).items():
                if (not attr.startswith("_") and inspect.isfunction(obj)
                        and obj.__module__ == module.__name__):
                    spans[id(obj)] = f"{short}.{attr}"
        for module in modules.values():
            for attr, obj in list(vars(module).items()):
                span = spans.get(id(obj))
                if span is not None:
                    self._patches.set(module, attr, self._wrap(span, obj))
        for short, names in METHODS.items():
            module = modules[short]
            for cls in vars(module).values():
                if not (inspect.isclass(cls) and cls.__module__ == module.__name__):
                    continue
                for name in names:
                    if name in vars(cls):
                        self._patches.set(cls, name,
                                          self._wrap(f"{short}.{name}", vars(cls)[name]))

    def uninstall(self):
        self._patches.restore()

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()

    def _wrap(self, span, fn):
        measure_bytes = span == "fields.gradients"

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if self._depth[span]:
                return fn(*args, **kwargs)
            self._depth[span] += 1
            children = [0.0]
            self._children.append(children)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = perf_counter() - t0
                self._children.pop()
                self._depth[span] -= 1
                if self._children:
                    self._children[-1][0] += dt
                self.durations[span].append(dt)
                self.self_times[span].append(dt - children[0])
            if measure_bytes:
                self.gradient_bytes.append(gradient_bytes(args[0], result))
            return result

        return traced

    def total(self, span) -> float:
        return float(sum(self.durations.get(span, ())))

    def self_total(self, span) -> float:
        return float(sum(self.self_times.get(span, ())))

    def calls(self, span) -> int:
        return len(self.durations.get(span, ()))
