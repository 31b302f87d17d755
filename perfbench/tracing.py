"""Per-layer tracing of coxkit, installed from outside the package.

The layers are coxkit's modules.  ``Tracer.install`` replaces every public
function of every coxkit module, and every method of coxkit's public
classes, by a wrapper, in every coxkit namespace that binds it: the
modules use ``from .systems import ...`` and keep functions in dispatch
dicts (``words.PRODUCTS``, ``verify.SUITES``), so patching only the
defining module would miss calls.  The methods of ``systems.Element``
form the ``kernel`` layer; ``cli`` and ``verify`` form the ``cli`` layer.
``CoxeterSystem`` is left unwrapped: its methods are accessors that every
layer calls, so their small cost counts toward the caller.

Time is taken only where a call crosses from one layer into another.  A
layer's self time is the duration of such a span minus the spans of other
layers nested in it, so the self times of all layers plus the time spent
outside any layer add up to the wall time.  Calls inside one layer are
counted but not timed.  Kernel spans run into the millions and are only
accumulated; spans of the other layers are also kept one by one (up to
``MAX_SPANS`` per task) and written out when the benchmark ends.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import pkgutil
import time
import types

KERNEL = "kernel"

#: Layer of each module; a module not listed is a layer of its own name.
MODULE_LAYERS = {
    "coxkit.cli": "cli",
    "coxkit.verify": "cli",
}

#: Every layer the benchmark reports, with the counters it keeps.
LAYERS = ("kernel", "systems", "descents", "freemodule", "groupmaps", "hecke",
          "linalg", "words", "series", "roots", "qsym", "cli")
COUNTERS = ("kernel.elements_made", "systems.elements_enumerated",
            "hecke.module_dim_max", "hecke.module_dim_sum", "linalg.rref_cells",
            "words.terms_out", "series.word_cube", "roots.parset_checks",
            "roots.lattice_points_out")
CACHED_LAYERS = ("systems", "descents", "series")

#: Individual spans kept per task; beyond this only the totals grow.
MAX_SPANS = 10_000

_UNWRAPPED_METHODS = frozenset({
    "__repr__", "__setattr__", "__delattr__", "__getattribute__",
    "__init_subclass__", "__class_getitem__", "__post_init__",
})
_UNWRAPPED_CLASSES = frozenset({"coxkit.systems.CoxeterSystem"})


def coxkit_modules() -> list[types.ModuleType]:
    """The coxkit package and all of its submodules, imported."""
    import coxkit

    return [coxkit] + [importlib.import_module(f"coxkit.{info.name}")
                       for info in pkgutil.iter_modules(coxkit.__path__)]


def _layer(module: str, qualname: str, kernel_prefix: str) -> str:
    if qualname.startswith(kernel_prefix):
        return KERNEL
    return MODULE_LAYERS.get(module, module.rsplit(".", 1)[-1])


def _kernel_prefix() -> str:
    from coxkit import systems

    return systems.Element.__qualname__ + "."


def find_caches(modules) -> list[tuple[str, str, object]]:
    """(layer, name, function) for every ``lru_cache``-wrapped function found
    in a coxkit module or class namespace, by introspection."""
    prefix = _kernel_prefix()
    found = {}
    for mod in modules:
        for obj in vars(mod).values():
            members = [obj]
            if isinstance(obj, type) and obj.__module__.startswith("coxkit"):
                members += list(vars(obj).values())
            for member in members:
                member = getattr(member, "__func__", member)
                if callable(getattr(member, "cache_info", None)):
                    found[id(member)] = member
    return sorted(
        (_layer(fn.__module__, fn.__qualname__, prefix),
         f"{fn.__module__}.{fn.__qualname__}", fn)
        for fn in found.values()
    )


def cache_snapshot(caches) -> dict[str, list]:
    """Current (hits, misses) of every cache, keyed by function name."""
    return {name: list(fn.cache_info()[:2]) for _, name, fn in caches}


def cache_delta(before: dict, after: dict) -> dict[str, list]:
    return {name: [after[name][0] - before[name][0], after[name][1] - before[name][1]]
            for name in after}


class Tracer:
    """Call counts, self time, counters and spans per coxkit layer."""

    def __init__(self):
        self.off = True
        self.stack: list[list] = []
        self.patches: list[tuple[object, str, object]] = []
        self.layer_of: dict[str, str] = {}
        self.reset()

    def reset(self) -> None:
        """Forget everything recorded so far (call at the start of a task)."""
        self.stack.clear()
        self.calls = dict.fromkeys(self.layer_of, 0)
        self.fn_self_ns = dict.fromkeys(self.layer_of, 0)
        self.self_ns = dict.fromkeys(LAYERS, 0)
        self.counters = dict.fromkeys(COUNTERS, 0)
        self.spans: list[list] = []
        self.spans_dropped = 0

    # -- wrapping ---------------------------------------------------------

    def _wrap(self, fn, name: str, layer: str, hook=None):
        tracer = self
        stack = self.stack
        clock = time.perf_counter_ns
        keep_spans = layer != KERNEL

        def traced(*args, **kwargs):
            if tracer.off:
                return fn(*args, **kwargs)
            tracer.calls[name] += 1
            before = hook.before(fn) if hook is not None else None
            boundary = not stack or stack[-1][0] != layer
            if not boundary:
                result = fn(*args, **kwargs)
            else:
                span = -1
                if keep_spans:
                    if len(tracer.spans) < MAX_SPANS:
                        span = len(tracer.spans)
                        tracer.spans.append([layer, name, stack[-1][3] if stack else -1, 0, 0])
                    else:
                        tracer.spans_dropped += 1
                frame = [layer, 0, clock(), span]
                stack.append(frame)
                try:
                    result = fn(*args, **kwargs)
                finally:
                    end = clock()
                    stack.pop()
                    duration = end - frame[2]
                    own = duration - frame[1]
                    tracer.self_ns[layer] = tracer.self_ns.get(layer, 0) + own
                    tracer.fn_self_ns[name] += own
                    if stack:
                        stack[-1][1] += duration
                    if span >= 0:
                        tracer.spans[span][3:] = [frame[2], end]
            if hook is not None:
                tracer.off = True
                try:
                    hook.after(tracer.counters, fn, args, kwargs, result, before, boundary)
                finally:
                    tracer.off = False
            return result

        functools.update_wrapper(traced, fn)
        for attr in ("cache_info", "cache_clear", "cache_parameters"):
            if hasattr(fn, attr):
                setattr(traced, attr, getattr(fn, attr))
        self.layer_of[name] = layer
        return traced

    def _count_only(self, fn, counter: str):
        tracer = self

        def counted(*args, **kwargs):
            if not tracer.off:
                tracer.counters[counter] += 1
            return fn(*args, **kwargs)

        return functools.update_wrapper(counted, fn)

    def _patch(self, namespace, key, value) -> None:
        original = namespace[key] if isinstance(namespace, dict) else vars(namespace)[key]
        self.patches.append((namespace, key, original))
        if isinstance(namespace, dict):
            namespace[key] = value
        else:
            setattr(namespace, key, value)

    def install(self) -> None:
        """Wrap coxkit in place; tracing stays off until ``start``."""
        from coxkit import systems

        modules = coxkit_modules()
        prefix = _kernel_prefix()
        hooks = _hooks()
        wrappers: dict[int, object] = {}

        def wrapper_for(fn):
            if id(fn) not in wrappers:
                qual = f"{fn.__module__}.{fn.__qualname__}"
                wrappers[id(fn)] = self._wrap(
                    fn, qual, _layer(fn.__module__, fn.__qualname__, prefix), hooks.get(qual))
            return wrappers[id(fn)]

        def is_coxkit_function(obj) -> bool:
            return (isinstance(obj, types.FunctionType) or hasattr(obj, "cache_info")) \
                and getattr(obj, "__module__", "").startswith("coxkit")

        # Classes first: their methods are patched once, on the class.
        for mod in modules:
            for cname, cls in list(vars(mod).items()):
                if not isinstance(cls, type) or cls.__module__ != mod.__name__ \
                        or cname.startswith("_") or issubclass(cls, BaseException) \
                        or f"{cls.__module__}.{cls.__qualname__}" in _UNWRAPPED_CLASSES:
                    continue
                for mname, member in list(vars(cls).items()):
                    if mname in _UNWRAPPED_METHODS or (mname.startswith("_") and not mname.endswith("__")):
                        continue
                    if isinstance(member, property) and member.fget is not None:
                        self._patch(cls, mname, property(wrapper_for(member.fget),
                                                         member.fset, member.fdel, member.__doc__))
                    elif isinstance(member, (staticmethod, classmethod)):
                        self._patch(cls, mname, type(member)(wrapper_for(member.__func__)))
                    elif is_coxkit_function(member):
                        self._patch(cls, mname, wrapper_for(member))
                if cls is systems.Element and "__post_init__" in vars(cls):
                    self._patch(cls, "__post_init__",
                                self._count_only(vars(cls)["__post_init__"], "kernel.elements_made"))

        def module_level(obj) -> bool:
            if not is_coxkit_function(obj) or obj.__qualname__ != obj.__name__:
                return False
            qual = f"{obj.__module__}.{obj.__qualname__}"
            return not obj.__name__.startswith("_") or qual in hooks

        # Then every binding of a module-level function, including dict values.
        for mod in modules:
            for key, obj in list(vars(mod).items()):
                if module_level(obj):
                    self._patch(mod, key, wrapper_for(obj))
                elif isinstance(obj, dict):
                    for dkey, value in list(obj.items()):
                        if module_level(value):
                            self._patch(obj, dkey, wrapper_for(value))
        self.reset()

    def uninstall(self) -> None:
        """Undo every patch, newest first."""
        self.off = True
        for namespace, key, original in reversed(self.patches):
            if isinstance(namespace, dict):
                namespace[key] = original
            else:
                setattr(namespace, key, original)
        self.patches.clear()

    # -- recording --------------------------------------------------------

    def start(self) -> None:
        self.reset()
        self.off = False

    def stop(self) -> dict:
        """Stop recording and return what was recorded, as plain data."""
        self.off = True
        calls = dict.fromkeys(LAYERS, 0)
        for name, count in self.calls.items():
            layer = self.layer_of[name]
            calls[layer] = calls.get(layer, 0) + count
        return {
            "calls": calls,
            "self_ns": dict(self.self_ns),
            "counters": dict(self.counters),
            "functions": {name: [count, self.fn_self_ns[name]]
                          for name, count in self.calls.items() if count},
            "spans": self.spans,
            "spans_dropped": self.spans_dropped,
        }


class _Hook:
    """Counter update run after a wrapped call; ``before`` sees the call's start."""

    def __init__(self, after, before=None):
        self.after = after
        self.before = before or (lambda fn: None)


def _misses(fn) -> int:
    return fn.cache_info().misses


def _bound(fn, args, kwargs) -> dict:
    return inspect.signature(fn).bind(*args, **kwargs).arguments


def _hooks() -> dict[str, _Hook]:
    """Counter hooks by function name.  Each runs on every call of its
    function, nested or not, unless it checks ``boundary``."""
    from coxkit import systems, words

    element_type = systems.Element

    def enumerated(c, fn, args, kwargs, result, misses, boundary):
        if fn.cache_info().misses > misses and isinstance(result, tuple) \
                and result and isinstance(result[0], element_type):
            c["systems.elements_enumerated"] += len(result)

    def module_made(c, fn, args, kwargs, result, before, boundary):
        dim = args[0].dim
        c["hecke.module_dim_sum"] += dim
        c["hecke.module_dim_max"] = max(c["hecke.module_dim_max"], dim)

    def rref_cells(c, fn, args, kwargs, result, before, boundary):
        rows = _bound(fn, args, kwargs)["rows"]
        c["linalg.rref_cells"] += len(rows) * (len(rows[0]) if rows else 0)

    def terms_out(c, fn, args, kwargs, result, before, boundary):
        if boundary and hasattr(result, "terms"):
            c["words.terms_out"] += len(result.terms)

    def cube(c, fn, args, kwargs, result, misses, boundary):
        if misses is not None and fn.cache_info().misses == misses:
            return
        bound = _bound(fn, args, kwargs)
        letters = 2 * bound["window"] + 1
        n = bound["system"].n if "system" in bound else bound["k"]
        c["series.word_cube"] += letters ** n

    def parset_check(c, fn, args, kwargs, result, before, boundary):
        c["roots.parset_checks"] += 1

    def lattice_out(c, fn, args, kwargs, result, before, boundary):
        c["roots.lattice_points_out"] += len(result)

    hooks = {
        "coxkit.hecke.HModule.__init__": _Hook(module_made),
        "coxkit.linalg.rref": _Hook(rref_cells),
        "coxkit.series._standardization_fibers": _Hook(cube, _misses),
        "coxkit.series.s_basis_by_fillings": _Hook(cube),
        "coxkit.series.h_block": _Hook(cube),
        "coxkit.roots.is_parset": _Hook(parset_check),
        "coxkit.roots.lattice_points": _Hook(lattice_out),
    }
    for name, obj in vars(systems).items():
        if hasattr(obj, "cache_info") and obj.__module__ == systems.__name__:
            hooks[f"{obj.__module__}.{obj.__qualname__}"] = _Hook(enumerated, _misses)
    for name, obj in vars(words).items():
        if isinstance(obj, types.FunctionType) and obj.__module__ == words.__name__ \
                and not name.startswith("_"):
            hooks[f"{obj.__module__}.{obj.__qualname__}"] = _Hook(terms_out)
    return hooks


def layer_metrics(trace: dict, caches: dict[str, list], cache_layers: dict[str, str],
                  output_lines: int) -> dict[str, float]:
    """The per-layer metrics of one traced run, from the merged records."""
    out: dict[str, float] = {}
    for layer in LAYERS:
        out[f"{layer}.calls"] = trace["calls"].get(layer, 0)
        out[f"{layer}.self_s"] = trace["self_ns"].get(layer, 0) / 1e9
    for layer in CACHED_LAYERS:
        hits = sum(h for name, (h, _) in caches.items() if cache_layers[name] == layer)
        misses = sum(m for name, (_, m) in caches.items() if cache_layers[name] == layer)
        out[f"{layer}.cache_hit_ratio"] = hits / (hits + misses) if hits + misses else 0.0
    out.update(trace["counters"])
    out["cli.output_lines"] = output_lines
    return out


def merge(total: dict | None, part: dict) -> dict:
    """Add one task's trace record into a running total (spans excluded)."""
    if total is None:
        return {key: (dict(value) if isinstance(value, dict) else value)
                for key, value in part.items() if key != "spans"}
    for key in ("calls", "self_ns"):
        for name, value in part[key].items():
            total[key][name] = total[key].get(name, 0) + value
    for name, value in part["counters"].items():
        if name == "hecke.module_dim_max":
            total["counters"][name] = max(total["counters"][name], value)
        else:
            total["counters"][name] += value
    for name, (count, ns) in part["functions"].items():
        old = total["functions"].get(name, [0, 0])
        total["functions"][name] = [old[0] + count, old[1] + ns]
    total["spans_dropped"] += part["spans_dropped"]
    return total
