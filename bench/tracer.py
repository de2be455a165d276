"""Span tracing of the package from outside, by rebinding module attributes.

Every public function of every layer module is replaced, for the duration of
a ``with Tracer()`` block, by a wrapper that records a span.  A name is
rebound in every package module that holds it, because ``from .x import y``
copies the reference: ``analysis`` looks up ``simulate_lifted`` in its own
namespace, ``identify`` looks up ``build_matrices`` in its own.

The kernels run ~200k times per pipeline, so spans are not stored one by
one: each (parent, name) pair keeps a call count, its total time and the
time its direct children covered.  Memory stays flat and the aggregate is
written out once, when the run ends.
"""

from __future__ import annotations

import inspect
import sys
import time
from collections import defaultdict

PACKAGE = "nikoopman"
LAYERS = ("cli", "dynamics", "lifting", "identify", "matcore", "nicore", "analysis")

# methods traced besides module-level functions: (module, class, method)
METHODS = (
    ("dynamics", "TrajectoryData", "save_csv"),
    ("dynamics", "TrajectoryData", "load_csv"),
)

# counts read off return values at the span boundary: span -> {counter: fn(result)}
COUNTERS = {
    "dynamics.simulate": {"steps": lambda r: r.L},
    "nicore.freq_response": {"points": lambda r: r.shape[0]},
    "identify.solve_ni": {
        "iterations": lambda r: r.iterations,
        "converged": lambda r: int(r.converged),
    },
    "identify.complete_certificate": {
        "iterations": lambda r: r.iterations,
        "converged": lambda r: int(r.converged),
        "b_fit_rel": lambda r: r.b_fit_rel,
    },
}


class Tracer:
    """Context manager that wraps the package's layers and aggregates spans."""

    def __init__(self):
        self.nodes: dict[tuple[str | None, str], list] = {}  # -> [calls, total_s, child_s]
        self.counts: dict[str, float] = defaultdict(float)
        self._stack: list[list] = []
        self._restore: list[tuple[object, str, object]] = []

    def _wrap(self, name: str, fn):
        stack, nodes, counts, clock = self._stack, self.nodes, self.counts, time.perf_counter
        counters = COUNTERS.get(name, {})

        def wrapper(*args, **kwargs):
            parent = stack[-1][0] if stack else None
            frame = [name, 0.0]
            stack.append(frame)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                stack.pop()
                if stack:
                    stack[-1][1] += dt
                node = nodes.get((parent, name))
                if node is None:
                    node = nodes[(parent, name)] = [0, 0.0, 0.0]
                node[0] += 1
                node[1] += dt
                node[2] += frame[1]
            for key, get in counters.items():
                counts[f"{name}.{key}"] += get(result)
            return result

        wrapper.__name__ = getattr(fn, "__name__", name)
        wrapper.__doc__ = getattr(fn, "__doc__", None)
        wrapper.__wrapped__ = fn
        return wrapper

    def _set(self, owner, attr: str, value) -> None:
        self._restore.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def __enter__(self) -> "Tracer":
        pkg_modules = [m for k, m in list(sys.modules.items())
                       if m is not None and (k == PACKAGE or k.startswith(PACKAGE + "."))]
        for layer in LAYERS:
            mod = sys.modules[f"{PACKAGE}.{layer}"]
            for attr, obj in list(vars(mod).items()):
                if attr.startswith("_") or not inspect.isfunction(obj) or obj.__module__ != mod.__name__:
                    continue
                wrapped = self._wrap(f"{layer}.{attr}", obj)
                for holder in pkg_modules:
                    if holder.__dict__.get(attr) is obj:
                        self._set(holder, attr, wrapped)
        for layer, cls_name, meth in METHODS:
            cls = getattr(sys.modules[f"{PACKAGE}.{layer}"], cls_name)
            raw = cls.__dict__[meth]
            name = f"{layer}.{cls_name}.{meth}"
            if isinstance(raw, classmethod):
                self._set(cls, meth, classmethod(self._wrap(name, raw.__func__)))
            else:
                self._set(cls, meth, self._wrap(name, raw))
        return self

    def __exit__(self, *exc) -> None:
        while self._restore:
            owner, attr, value = self._restore.pop()
            setattr(owner, attr, value)

    # -- aggregates ---------------------------------------------------------

    def busy_s(self, name: str) -> float:
        """Inclusive time summed over every call of a span."""
        return sum(v[1] for (_, n), v in self.nodes.items() if n == name)

    def calls(self, name: str) -> int:
        return sum(v[0] for (_, n), v in self.nodes.items() if n == name)

    def self_s(self, name: str) -> float:
        """Span time minus the part its direct children cover."""
        return sum(v[1] - v[2] for (_, n), v in self.nodes.items() if n == name)

    def layer_self_s(self, layer: str) -> float:
        return sum(v[1] - v[2] for (_, n), v in self.nodes.items() if n.split(".")[0] == layer)

    def to_json(self) -> dict:
        return {
            "spans": [
                {"parent": p, "name": n, "calls": v[0], "total_s": v[1], "child_s": v[2]}
                for (p, n), v in sorted(self.nodes.items(), key=lambda kv: -kv[1][1])
            ],
            "counts": dict(self.counts),
        }
