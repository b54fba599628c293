"""In-memory span tracer that wraps the public functions of `sqgfronts`.

Spans are recorded from outside the package: every public function of the
layer modules is replaced, at each name a module resolves it by, with a
wrapper that records (name, start, end, parent). Nothing inside the package
changes, and nothing is wrapped unless `install` is called, so untraced runs
execute the library exactly as shipped.
"""

from __future__ import annotations

import importlib
import inspect
from time import perf_counter

LAYERS = ("grid", "fronts", "quadrature", "velocity", "dynamics", "halfspace", "cli")

# Work counted at the call boundary from the arguments: dense quadrature
# calls evaluate one kernel pair per (target, source) node, and step_rk4
# advances the simulated clock by its dt argument.
DENSE = ("quadrature.nonlinear_term", "quadrature.linear_term_quadrature", "quadrature.background_term")


def _pair_evals(state, *args, **kwargs):
    return state.grid.n ** 2


def _step_dt(state, dt, *args, **kwargs):
    return dt


COUNTERS = {name: ("quadrature.pair_evals", _pair_evals) for name in DENSE}
COUNTERS["dynamics.step_rk4"] = ("dynamics.sim_time", _step_dt)


class Tracer:
    """Keeps spans as [name, start, end, parent_index] lists in call order."""

    def __init__(self):
        self.spans = []
        self.work = {}
        self._stack = []

    def open(self, name: str) -> int:
        idx = len(self.spans)
        self.spans.append([name, perf_counter(), 0.0, self._stack[-1] if self._stack else -1])
        self._stack.append(idx)
        return idx

    def close(self, idx: int) -> None:
        self.spans[idx][2] = perf_counter()
        self._stack.pop()

    def wrap(self, name: str, fn):
        counter = COUNTERS.get(name)

        def traced(*args, **kwargs):
            if counter is not None:
                key, count = counter
                self.work[key] = self.work.get(key, 0) + count(*args, **kwargs)
            idx = self.open(name)
            try:
                return fn(*args, **kwargs)
            finally:
                self.close(idx)

        traced.__name__ = fn.__name__
        return traced


def public_functions(package) -> dict:
    """{function object: 'layer.name'} for every public function a layer defines."""
    found = {}
    for layer in LAYERS:
        mod = importlib.import_module(f"{package.__name__}.{layer}")
        for name, obj in vars(mod).items():
            if not name.startswith("_") and inspect.isfunction(obj) and obj.__module__ == mod.__name__:
                found[obj] = f"{layer}.{name}"
    return found


def install(tracer: Tracer, package) -> list:
    """Wrap every public function at every module-level name bound to it.

    Covers the package namespace and each layer's imports from the others
    (for example the `nonlinear_term` that `dynamics` calls, and the names
    `cli` imports), so calls between layers are traced too. Returns the
    patch list for `uninstall`.
    """
    names = public_functions(package)
    wrappers = {fn: tracer.wrap(name, fn) for fn, name in names.items()}
    modules = [package] + [importlib.import_module(f"{package.__name__}.{layer}") for layer in LAYERS]
    patched = []
    for mod in modules:
        for attr, obj in list(vars(mod).items()):
            if inspect.isfunction(obj) and obj in wrappers:
                patched.append((mod, attr, obj))
                setattr(mod, attr, wrappers[obj])
    return patched


def uninstall(patched: list) -> None:
    for mod, attr, obj in reversed(patched):
        setattr(mod, attr, obj)


def self_times(spans: list) -> list:
    """Per-span duration minus the time its direct children cover."""
    own = [end - start for _, start, end, _ in spans]
    for _, start, end, parent in spans:
        if parent >= 0:
            own[parent] -= end - start
    return own
