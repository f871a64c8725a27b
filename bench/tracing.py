"""Per-layer timing by wrapping the public functions of each tdoaloc module.

The wrappers are installed from here, so nothing under ``src/`` changes.
Every module-level public function of a layer is wrapped, and so is the
``SensorArray`` constructor; each binding of the original function in any
tdoaloc module (``from .x import f`` makes one per importer) is replaced, so
calls between layers go through the wrapper too.

Records stay in memory as per-function aggregates: calls, total time and
self time, where a call's self time is its time minus the time of the
wrapped calls it made. ``observe`` hooks see the return values of the two
solvers, for the per-solve ratios.
"""

from __future__ import annotations

import functools
import inspect
import sys
import time

LAYERS = ("geom3", "measurement", "montecarlo", "solver4", "solver5", "cli")


class Tracer:
    def __init__(self, package):
        self.package = package
        self.calls: dict[str, int] = {}
        self.total_ns: dict[str, int] = {}
        self.self_ns: dict[str, int] = {}
        self.counters: dict[str, int] = {}
        self._stack: list[int] = []
        self._undo: list[tuple[object, str, object]] = []

    def _wrap(self, key: str, fn, observe=None):
        self.calls.setdefault(key, 0)
        self.total_ns.setdefault(key, 0)
        self.self_ns.setdefault(key, 0)
        stack = self._stack
        calls, total_ns, self_ns = self.calls, self.total_ns, self.self_ns
        clock = time.perf_counter_ns

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack.append(0)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                children = stack.pop()
                calls[key] += 1
                total_ns[key] += elapsed
                self_ns[key] += elapsed - children
                if stack:
                    stack[-1] += elapsed
            if observe is not None:
                observe(result)
            return result

        return traced

    def _set(self, owner, name: str, value) -> None:
        self._undo.append((owner, name, getattr(owner, name)))
        setattr(owner, name, value)

    def install(self, observers=None) -> None:
        observers = observers or {}
        pkg = self.package.__name__
        modules = [m for name, m in sys.modules.items()
                   if m is not None and (name == pkg or name.startswith(pkg + "."))]
        for layer in LAYERS:
            module = sys.modules[f"{pkg}.{layer}"]
            for name, fn in vars(module).copy().items():
                if name.startswith("_") or not inspect.isfunction(fn):
                    continue
                if fn.__module__ != module.__name__:
                    continue
                key = f"{layer}.{name}"
                traced = self._wrap(key, fn, observers.get(key))
                for other in modules:
                    for attr, value in vars(other).copy().items():
                        if value is fn:
                            self._set(other, attr, traced)
        sensor_array = sys.modules[f"{pkg}.measurement"].SensorArray
        self._set(sensor_array, "__init__",
                  self._wrap("measurement.SensorArray", sensor_array.__init__))

    def uninstall(self) -> None:
        while self._undo:
            owner, name, value = self._undo.pop()
            setattr(owner, name, value)

    def count(self, name: str, amount: int = 1) -> None:
        self.counters[name] = self.counters.get(name, 0) + amount

    def records(self) -> dict:
        return {
            key: {"calls": self.calls[key], "total_ns": self.total_ns[key],
                  "self_ns": self.self_ns[key]}
            for key in sorted(self.calls)
        }
