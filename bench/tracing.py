"""Outside-in tracing: wrap the library's public functions, per layer.

Nothing under ``src/`` changes.  The tracer replaces functions and methods
on the imported modules with wrappers, including the names other modules
imported with ``from .x import y`` (``subdivision.cd_index``,
``cli.ab_index``, ...), and restores them on ``uninstall``.

Self time uses a stack: a span's self time is its duration minus the time
of the spans nested in it, so ``induced`` -> ``GradedPoset.__init__`` is
not counted twice.  A call counts once per entry into a layer from another
layer (a recursive ``cd_index`` or ``from_json_obj`` -> ``__init__`` is one
call).  Counters of work are taken at the same entries.
"""
from __future__ import annotations

import functools
import time


class LayerStats:
    __slots__ = ("calls", "self_s", "work", "distinct")

    def __init__(self):
        self.calls = 0
        self.self_s = 0.0
        self.work = {}
        self.distinct = 0


def _elements_of_self(stats, args, result):
    stats.work["elements"] = stats.work.get("elements", 0) + len(args[0].elements)


def _elements_of_result(stats, args, result):
    stats.work["elements"] = stats.work.get("elements", 0) + len(result.elements)


def _masks(stats, args, result):
    stats.work["masks"] = stats.work.get("masks", 0) + (1 << result.n)


def _max_terms(stats, args, result):
    stats.work["max_terms"] = max(stats.work.get("max_terms", 0),
                                  len(result.terms))


def _rows(stats, args, result):
    stats.work["rows"] = stats.work.get("rows", 0) + len(result.rows)


# (module, attribute or Class.method, layer, work counter)
SPANS = [
    ("poset", "GradedPoset.__init__", "poset.build", _elements_of_self),
    ("poset", "GradedPoset.from_json_obj", "poset.build", _elements_of_result),
    ("poset", "GradedPoset.induced", "poset.subposet", None),
    ("poset", "GradedPoset.interval", "poset.subposet", None),
    ("poset", "GradedPoset.proper_part", "poset.subposet", None),
    ("poset", "GradedPoset.without_max", "poset.subposet", None),
    ("poset", "GradedPoset.is_eulerian", "poset.eulerian", None),
    ("poset", "GradedPoset.is_lower_eulerian", "poset.eulerian", None),
    ("poset", "is_near_eulerian", "poset.near_eulerian", None),
    ("poset", "semisuspension", "poset.near_eulerian", None),
    ("poset", "boundary", "poset.near_eulerian", None),
    ("poset", "_semisuspend", "poset.near_eulerian", None),
    ("poset", "adjoin_max", "poset.ops", None),
    ("poset", "dual", "poset.ops", None),
    ("poset", "join", "poset.ops", None),
    ("poset", "suspension", "poset.ops", None),
    ("poset", "pyramid", "poset.ops", None),
    ("flagcd", "flag_f", "flagcd.flag_f", _masks),
    ("flagcd", "flag_h", "flagcd.flag_h", None),
    ("flagcd", "ab_index", "flagcd.ab_index", None),
    ("flagcd", "flag_polynomial", "flagcd.ab_index", None),
    ("flagcd", "local_index", "flagcd.local_index", None),
    ("flagcd", "cd_index", "flagcd.cd_index", None),
    ("ncpoly", "to_cd", "ncpoly.to_cd", _max_terms),
    ("toric", "toric_h", "toric.toric_h", None),
    ("toric", "g_poly", "toric.g_poly", None),
    ("toric", "h_poly", "toric.h_poly", None),
    ("toric", "local_h", "toric.local_h", None),
    ("toric", "morphism_f", "toric.morphism", None),
    ("toric", "morphism_g", "toric.morphism", None),
    ("subdivision", "validate_strong_eulerian", "subdivision.validate", None),
    ("subdivision", "validate_strong_formal", "subdivision.validate", None),
    ("subdivision", "require_valid", "subdivision.validate", None),
    ("subdivision", "decompose_cd", "subdivision.decompose", _rows),
    ("subdivision", "SubdivisionMap.from_json_obj", "subdivision.from_json",
     None),
    ("complexes", "SimplicialComplex.__init__", "complexes.build", None),
    ("complexes", "face_poset", "complexes.face_poset", None),
    ("complexes", "barycentric_subdivision", "complexes.barycentric", None),
    ("complexes", "reduced_betti", "complexes.homology", None),
    ("complexes", "is_gorenstein", "complexes.homology", None),
    ("complexes", "is_near_gorenstein", "complexes.homology", None),
    ("cli", "run", "cli.run", None),
    ("cli", "_read_input", "cli.decode", None),
]

SUBPOSET = "poset.subposet"


class Tracer:
    """Layer statistics for the wrapped calls made while installed."""

    def __init__(self):
        self.layers = {}
        self._stack = []
        self._seen = set()      # element sets of sub-posets in this request
        self._undo = []

    def begin_request(self):
        self._seen = set()

    def stats(self, layer):
        if layer not in self.layers:
            self.layers[layer] = LayerStats()
        return self.layers[layer]

    def _wrap(self, fn, layer, work):
        stack = self._stack
        stats = self.stats(layer)
        clock = time.perf_counter
        tracer = self

        @functools.wraps(fn)
        def span(*args, **kwargs):
            entered = not stack or stack[-1][0] != layer
            frame = [layer, 0.0]
            stack.append(frame)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                stack.pop()
                stats.self_s += dt - frame[1]
                if stack:
                    stack[-1][1] += dt
            if entered:
                stats.calls += 1
                if work is not None:
                    work(stats, args, result)
                if layer == SUBPOSET:
                    key = frozenset(result.elements)
                    if key not in tracer._seen:
                        tracer._seen.add(key)
                        stats.distinct += 1
            return result

        return span

    def install(self, lib):
        """Wrap every span of SPANS on the modules of ``lib``."""
        modules = [getattr(lib, name) for name in vars(lib)]
        for mod_name, attr, layer, work in SPANS:
            mod = getattr(lib, mod_name)
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(mod, cls_name)
                raw = cls.__dict__[meth]
                if isinstance(raw, classmethod):
                    new = classmethod(self._wrap(raw.__func__, layer, work))
                else:
                    new = self._wrap(raw, layer, work)
                self._undo.append((cls, meth, raw))
                setattr(cls, meth, new)
                continue
            fn = getattr(mod, attr)
            new = self._wrap(fn, layer, work)
            for m in modules:
                for name, value in list(vars(m).items()):
                    if value is fn:
                        self._undo.append((m, name, fn))
                        setattr(m, name, new)

    def uninstall(self):
        for owner, name, value in reversed(self._undo):
            setattr(owner, name, value)
        self._undo = []

    def total_self_s(self):
        return sum(s.self_s for s in self.layers.values())


def layer_metrics(tracer):
    """The per-layer metrics, by the names BENCHMARK.json lists."""
    out = {}

    def get(layer):
        return tracer.layers.get(layer) or LayerStats()

    def put(name, value, unit):
        out[name] = {"value": value, "unit": unit}

    for layer in ("poset.build", "poset.subposet", "poset.eulerian",
                  "poset.near_eulerian", "poset.ops", "flagcd.flag_f",
                  "flagcd.local_index", "flagcd.cd_index", "ncpoly.to_cd",
                  "toric.toric_h", "toric.g_poly", "toric.h_poly",
                  "toric.local_h", "toric.morphism", "subdivision.validate",
                  "subdivision.decompose", "subdivision.from_json",
                  "complexes.face_poset", "complexes.barycentric",
                  "complexes.homology"):
        put(layer + ".calls", get(layer).calls, "count")
        put(layer + ".self_s", get(layer).self_s, "s")
    for layer in ("flagcd.flag_h", "flagcd.ab_index", "complexes.build",
                  "cli.run"):
        put(layer + ".self_s", get(layer).self_s, "s")
    put("poset.build.elements", get("poset.build").work.get("elements", 0),
        "count")
    sub = get(SUBPOSET)
    put("poset.subposet.unique_ratio",
        sub.distinct / sub.calls if sub.calls else 0.0, "ratio")
    put("flagcd.flag_f.masks", get("flagcd.flag_f").work.get("masks", 0),
        "count")
    put("ncpoly.to_cd.max_terms", get("ncpoly.to_cd").work.get("max_terms", 0),
        "count")
    put("subdivision.decompose.rows",
        get("subdivision.decompose").work.get("rows", 0), "count")
    put("cli.decode_s", get("cli.decode").self_s, "s")
    return out
