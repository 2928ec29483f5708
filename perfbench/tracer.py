"""In-memory tracing of catqm's layers for the benchmark's traced runs.

``Tracer.install`` replaces the public functions of each layer module, the
public methods of the model-space classes and of ``GroupModel``, and
``Quasimorphism.__call__`` with wrappers.  It also rebinds every name that
another catqm module bound with ``from ... import ...``, so ``runner``'s own
reference to ``certify_contracting`` is traced too.  ``restore`` puts every
original object back.  Nothing in catqm itself changes.

Every wrapped call adds to per-key counts, inclusive time (outermost call of
a key only, so recursion is not counted twice) and self time (duration minus
the wrapped calls made inside it).  Each layer keeps inclusive and self time
the same way.  Coarse functions (``SPANNED``) also record one span per call:
name, start, end and parent span.  Hot primitives keep aggregated numbers
only, since the tree workload makes millions of these calls.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import pkgutil
import sys
import time

# Layer modules, in the order the package layers them.
LAYER_MODULES = ("words", "spaces", "actions", "samplers", "contraction",
                 "expressway", "rank_one", "wpd", "algebra")

# Coarse public functions: one span per call.
SPANNED = {
    "contraction": {"projection_diameter_under_ball", "certify_contracting",
                    "check_thin_triangle", "check_reverse_triangle",
                    "check_dichotomy", "check_variation", "check_stability"},
    "expressway": {"enumerate_relevant_expressways", "modified_length",
                   "defect_estimate", "homogenize"},
    "actions": {"GroupModel.ball"},
    "rank_one": {"rank_one_test", "independence_test", "half_flat_control",
                 "schottky_exponent"},
    "wpd": {"wpd_count", "equiv_search", "sampled_hausdorff"},
    "algebra": {"extension_defect", "restriction_check"},
}

# Only these word functions are wrapped: each wrapper costs about a
# microsecond, and the other word helpers run inside them millions of times.
WORDS_WRAPPED = ("ball", "multiply", "word_distance")

# Classes whose own methods are wrapped, by module; None means every public
# method.  The model-space classes of ``spaces`` are found by their ``kind``.
CLASS_METHODS = {
    "actions": {"GroupModel": None},
    "algebra": {"Quasimorphism": ("__call__",)},
}


class Tracer:
    """Counts, times and spans of wrapped calls; see the module docstring."""

    def __init__(self):
        self.stats: dict[str, list] = {}    # key -> [calls, incl_s, self_s, depth]
        self.layers: dict[str, list] = {}   # layer -> [incl_s, self_s, depth]
        self.counters: dict[str, float] = {}
        self.names: list[str] = []
        self._name_index: dict[str, int] = {}
        self.spans: list = []               # (name index, start, end, parent)
        self.origin = time.perf_counter()
        self._stack = [[0.0, -1]]           # frames: [wrapped child s, span]
        self._saved: list[tuple] = []       # (owner, attribute, original)
        self._deferred: list = []
        self._project_stats: list[list] = []

    # -- accounting --------------------------------------------------------
    def _call(self, stat, layer, span, fn, args, kwargs):
        stack = self._stack
        parent = stack[-1]
        if span is None:
            index = parent[1]
        else:
            index = len(self.spans)
            self.spans.append(None)
        frame = [0.0, index]
        stack.append(frame)
        stat[3] += 1
        layer[2] += 1
        t0 = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            t1 = time.perf_counter()
            elapsed = t1 - t0
            stack.pop()
            parent[0] += elapsed
            own = elapsed - frame[0]
            stat[2] += own
            layer[1] += own
            stat[3] -= 1
            if not stat[3]:
                stat[1] += elapsed
            layer[2] -= 1
            if not layer[2]:
                layer[0] += elapsed
            if span is not None:
                self.spans[index] = (span, t0 - self.origin, t1 - self.origin,
                                     parent[1])

    def _resumes(self, gen, stat, layer):
        """Re-yield a generator, timing each resume as a call of its key."""
        while True:
            try:
                item = self._call(stat, layer, None, next, (gen,), {})
            except StopIteration:
                return
            yield item

    def _entry(self, key: str, layer: str, spanned: bool):
        stat = self.stats.setdefault(key, [0, 0.0, 0.0, 0])
        lay = self.layers.setdefault(layer, [0.0, 0.0, 0])
        span = None
        if spanned:
            span = self._name_index.setdefault(key, len(self.names))
            if span == len(self.names):
                self.names.append(key)
        return stat, lay, span

    def declare(self, key: str, layer: str):
        """Make a key exist with zero counts, so it reads as 0 if unused."""
        self._entry(key, layer, False)

    def call(self, key: str, layer: str, fn, *args, **kwargs):
        """Run ``fn`` inside a span of the benchmark's own."""
        stat, lay, span = self._entry(key, layer, True)
        stat[0] += 1
        return self._call(stat, lay, span, fn, args, kwargs)

    def count(self, name: str, amount: float = 1):
        self.counters[name] = self.counters.get(name, 0) + amount

    def wrap(self, fn, key: str, layer: str, spanned: bool):
        stat, lay, span = self._entry(key, layer, spanned)
        call, hook = self._call, HOOKS.get(key)
        if inspect.isgeneratorfunction(fn):
            def wrapper(*args, **kwargs):
                stat[0] += 1
                return self._resumes(fn(*args, **kwargs), stat, lay)
        elif hook is None:
            def wrapper(*args, **kwargs):
                stat[0] += 1
                return call(stat, lay, span, fn, args, kwargs)
        else:
            enter, leave = hook
            signature = inspect.signature(fn)

            def wrapper(*args, **kwargs):
                stat[0] += 1
                before = enter(self) if enter else None
                result = call(stat, lay, span, fn, args, kwargs)
                leave(self, signature.bind(*args, **kwargs).arguments,
                      result, before)
                return result
        return functools.update_wrapper(wrapper, fn)

    # -- installation ------------------------------------------------------
    def install(self, package: str = "catqm"):
        """Wrap every layer of an imported package; ``restore`` undoes it."""
        if self._saved:
            raise RuntimeError("tracer is already installed")
        # import every module first: one imported while wrapped would keep
        # the wrappers after restore
        root = importlib.import_module(package)
        modules = [root] + [importlib.import_module(f"{package}.{info.name}")
                            for info in pkgutil.iter_modules(root.__path__)]
        replaced = {}
        for short in LAYER_MODULES:
            mod = sys.modules.get(f"{package}.{short}")
            if mod is None:
                continue
            for name, obj in list(vars(mod).items()):
                if getattr(obj, "__module__", None) != mod.__name__:
                    continue
                if inspect.isclass(obj):
                    self._wrap_class(short, obj)
                elif (inspect.isfunction(obj) and not name.startswith("_")
                      and short != "spaces"
                      and (short != "words" or name in WORDS_WRAPPED)):
                    replaced[obj] = self.wrap(obj, f"{short}.{name}", short,
                                              name in SPANNED.get(short, ()))
        # rebind each module-level name that holds a wrapped original,
        # including the module that defines it
        for mod in modules:
            for name, obj in list(vars(mod).items()):
                if inspect.isfunction(obj) and obj in replaced:
                    self._set(mod, name, replaced[obj])
        self._project_stats = [s for k, s in self.stats.items()
                               if k.startswith("spaces.") and k.endswith(".project")]

    def _wrap_class(self, short: str, cls):
        if short == "spaces":
            kind = vars(cls).get("kind")
            if not isinstance(kind, str):
                return
            prefix, layer, methods = f"spaces.{kind}", f"spaces.{kind}", None
        elif cls.__name__ in CLASS_METHODS.get(short, {}):
            prefix, layer = f"{short}.{cls.__name__}", short
            methods = CLASS_METHODS[short][cls.__name__]
        else:
            return
        for name, obj in list(vars(cls).items()):
            if not inspect.isfunction(obj):
                continue
            if methods is None and name.startswith("_"):
                continue
            if methods is not None and name not in methods:
                continue
            spanned = f"{cls.__name__}.{name}" in SPANNED.get(short, ())
            self._set(cls, name, self.wrap(obj, f"{prefix}.{name}", layer, spanned))

    def _set(self, owner, name: str, value):
        self._saved.append((owner, name, vars(owner)[name]))
        setattr(owner, name, value)

    def restore(self):
        """Put every original back, then settle the deferred counters."""
        while self._saved:
            owner, name, original = self._saved.pop()
            setattr(owner, name, original)
        for settle in self._deferred:
            settle()
        self._deferred.clear()

    # -- output ------------------------------------------------------------
    def summary(self) -> dict:
        return {
            "stats": {k: s[:3] for k, s in sorted(self.stats.items())},
            "layers": {k: s[:2] for k, s in sorted(self.layers.items())},
            "counters": dict(sorted(self.counters.items())),
            "spans": len(self.spans),
        }

    def write_spans(self, path: str, meta: dict):
        """Write every span as [name index, start s, end s, parent index]."""
        spans = [[n, round(a, 9), round(b, 9), p] for n, a, b, p in self.spans]
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({**meta, "names": self.names, "spans": spans}, fh,
                      separators=(",", ":"))


# -- hooks: counts read from arguments and results ---------------------------

def _project_calls(tracer: Tracer) -> int:
    return sum(s[0] for s in tracer._project_stats)


def _projections_in_ball(tracer, args, result, before):
    tracer.count("contraction.ball_projections", _project_calls(tracer) - before)


def _ball_pairs(tracer, args, result, before):
    # the ball is recomputed after restore, so its work is not traced
    ext, radius = args["ext"], args["radius"]
    tracer._deferred.append(
        lambda: tracer.count("algebra.extension_defect.pairs",
                             len(ext.ball(radius)) ** 2))


HOOKS = {
    "contraction.projection_diameter_under_ball": (_project_calls,
                                                   _projections_in_ball),
    "expressway.enumerate_relevant_expressways": (
        None, lambda t, a, r, b: t.count("expressway.candidates", len(r))),
    "expressway.modified_length": (
        None, lambda t, a, r, b: t.count("expressway.expressways_used",
                                         r.expressways)),
    "expressway.defect_estimate": (
        None, lambda t, a, r, b: t.count("expressway.defect_estimate.pairs",
                                         r.pairs_checked)),
    "algebra.extension_defect": (None, _ball_pairs),
}
