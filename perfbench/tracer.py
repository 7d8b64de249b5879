"""Per-layer tracing from outside the program.

The tracer replaces each layer's public functions with timing wrappers, in
every ``prony`` module namespace that holds them (a name imported with
``from .signal_model import vieta_inverse`` is a separate binding and is
wrapped too).  A wrapper counts calls, raised exceptions and wall time, and
charges its duration to the enclosing wrapped call as child time, so that a
layer's self time is its wrapped time minus the part spent in other wrapped
calls.  Nothing is written while tracing; aggregates stay in memory.
"""

import importlib
import inspect
import time

# module (under the prony package) -> layer name used in the metrics
LAYERS = {
    "_kernels": "kernels",
    "poly_engine": "poly_engine",
    "signal_model": "signal_model",
    "prony_line": "prony_line",
    "curve_analysis": "curve_analysis",
    "closed_forms": "closed_forms",
    "prony_solver": "prony_solver",
    "cli": "cli",
}


def _public_functions(module, layer):
    """(name, function) pairs a layer exposes: the functions its ``__all__``
    names (every public function when it has none), or for the kernel
    dispatch every public callable it re-exports from either lane."""
    names = getattr(module, "__all__", None)
    if names is None:
        names = [n for n in vars(module) if not n.startswith("_")]
    out = []
    for name in names:
        fn = getattr(module, name, None)
        if layer == "kernels":
            if callable(fn) and not inspect.isclass(fn) and not inspect.ismodule(fn):
                out.append((name, fn))
        elif inspect.isfunction(fn) and fn.__module__ == module.__name__:
            out.append((name, fn))
    return out


class Tracer:
    """Call counts and self/total time per wrapped function."""

    def __init__(self):
        # key "layer.function" -> [calls, total_s, child_s, raised]
        self.stats = {}
        # counts of results observed at chosen call sites
        self.observed = {"collision_reports": 0, "collision_endpoints": 0,
                         "domain_discriminants": 0}
        self._stack = []
        self._patches = []

    def _wrap(self, key, fn):
        stats = self.stats.setdefault(key, [0, 0.0, 0.0, 0])
        stack = self._stack
        clock = time.perf_counter
        observe = self._observer(key)

        def wrapper(*args, **kwargs):
            frame = [0.0, key]
            stack.append(frame)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                stats[3] += 1
                raise
            finally:
                dt = clock() - t0
                stack.pop()
                stats[0] += 1
                stats[1] += dt
                stats[2] += frame[0]
                if stack:
                    stack[-1][0] += dt
            if observe is not None:
                observe(result)
            return result

        return wrapper

    def _inside(self, key):
        return any(frame[1] == key for frame in self._stack)

    def _observer(self, key):
        seen = self.observed
        if key == "curve_analysis.detect_collisions":
            def observe(reports):
                seen["collision_reports"] += len(reports)
            return observe
        if key == "prony_line.hyperbolic_domain":
            def observe(domain):
                if self._inside("curve_analysis.detect_collisions"):
                    seen["collision_endpoints"] += len(domain.endpoints)
            return observe
        if key == "poly_engine.discriminant":
            def observe(_value):
                if self._inside("prony_line.hyperbolic_domain"):
                    seen["domain_discriminants"] += 1
            return observe
        return None

    def install(self):
        """Wrap every layer's public functions wherever they are bound."""
        modules = {}
        for mod_name in LAYERS:
            try:
                modules[mod_name] = importlib.import_module("prony." + mod_name)
            except ImportError:  # a layer the program no longer has reads 0
                continue
        wrappers = {}
        for mod_name, module in modules.items():
            layer = LAYERS[mod_name]
            for name, fn in _public_functions(module, layer):
                wrappers.setdefault(id(fn), self._wrap(f"{layer}.{name}", fn))
        import prony
        namespaces = [prony] + list(modules.values())
        for ns in namespaces:
            for name, value in list(vars(ns).items()):
                wrapper = wrappers.get(id(value))
                if wrapper is not None:
                    self._patches.append((ns, name, value))
                    setattr(ns, name, wrapper)

    def uninstall(self):
        for ns, name, value in reversed(self._patches):
            setattr(ns, name, value)
        self._patches.clear()
