"""Spans and counts at the package's cross-module boundaries.

Nothing under `src/` changes.  The traced run patches, for its duration:

- IMPORT_POINTS: a public function one module imports from another,
  replaced in the importing module's namespace only, so calls inside the
  defining module (recursion included) stay unwrapped;
- METHOD_POINTS: public methods of the classes modules share.  A call is
  a span only when the caller's module differs from the class's; counts
  marked in COUNTED_METHODS are taken on every call;
- the benchmark's own calls into each layer, through `Ctx`.

Some counts depend on which function made the call; CALLER_POINTS lists
those functions, and the manifest checks them like the wrap points.

A span is a frame on the tracer's stack: its name (`<layer>.<function>`),
start, id, parent and the op it belongs to.  When it ends, its self time
(duration minus the part covered by child spans) goes to its layer; spans
are not kept after that.  A listed point that no longer exists fails the run by name;
it never reads as zero.
"""

from __future__ import annotations

import importlib
import sys
import types
from collections import Counter
from time import perf_counter

IMPORT_POINTS = {
    "suppsets.supported": ("atom_from_json", "support_to_json"),
    "suppsets.freenom": ("apply", "atom_from_json", "atom_to_json", "extend_to_global",
                         "extend_to_global_alternate", "is_admissible"),
    "suppsets.presentations": ("fresh", "fresh_atoms", "act", "act_finite", "admissible_maps",
                               "check_ext_elem", "ext_enumerate", "ext_support"),
    "suppsets.binding": ("apply", "compose", "finite_perm", "fresh", "inverse", "transposition"),
    "suppsets.automata": ("apply", "atom_from_json", "atom_to_json", "is_admissible", "b_support",
                          "RestrictedMap", "suppset_from_json", "suppset_to_json"),
    "suppsets.cli": ("atom_from_json", "fresh_atoms", "support_to_json", "automaton_from_json",
                     "reachable_orbits", "run", "validate", "alpha_eq_terms", "from_debruijn",
                     "named_to_json", "parse_debruijn", "parse_named", "show_debruijn", "show_named",
                     "to_debruijn", "debruijn_to_json", "run_all", "ext_elem_from_json", "default_pool",
                     "element_count", "orbit_count", "presentation_from_json", "quot_eq", "supp_of"),
}

METHOD_POINTS = {
    "suppsets.atoms": {
        "Support": ("of", "union", "intersect", "minus", "issubset"),
        "FiniteMap": ("of", "__call__", "get"),
    },
    "suppsets.supported": {
        "SuppSet": ("of", "support", "__contains__"),
        "SuppMap": ("of", "__call__"),
        "UnionFind": ("union",),
    },
}

COUNTED_METHODS = {
    ("SuppSet", "support"), ("SuppSet", "__contains__"), ("SuppMap", "__call__"), ("UnionFind", "union"),
}

# Callers some hooks tell apart: (module, function).
STEP_FULL = ("suppsets.automata", "step_full")
SAME_ORBIT = ("suppsets.automata", "_same_orbit")
QUOT_CLASSES = ("suppsets.presentations", "quot_classes")
CALLER_POINTS = (STEP_FULL, SAME_ORBIT, QUOT_CLASSES)

GENERATORS = {("suppsets.presentations", "admissible_maps")}


class ManifestError(RuntimeError):
    pass


def layer_of(module_name: str) -> str:
    return module_name.rsplit(".", 1)[-1]


class Tracer:
    """Open spans on a stack; per-layer self time, call counts and counters."""

    def __init__(self):
        self.stack = []  # [name, layer, start, covered by children, span id, parent id, op id]
        self.self_s = Counter()
        self.calls = Counter()
        self.layer_calls = Counter()
        self.counts = Counter()
        self.active = Counter()
        self.next_id = 0
        self.op_id = 0

    def enter(self, name: str, layer: str) -> list:
        self.next_id += 1
        parent = self.stack[-1][4] if self.stack else None
        frame = [name, layer, perf_counter(), 0.0, self.next_id, parent, self.op_id]
        self.stack.append(frame)
        self.active[name] += 1
        return frame

    def exit(self, frame: list):
        end = perf_counter()
        self.stack.pop()
        name, layer, start, covered = frame[:4]
        dur = end - start
        self.self_s[layer] += dur - covered
        if self.stack:
            self.stack[-1][3] += dur
        self.active[name] -= 1
        self.calls[name] += 1
        self.layer_calls[layer] += 1

    def wrap(self, name: str, layer: str, fn, hook=None):
        tracer = self

        def traced(*args, **kwargs):
            frame = tracer.enter(name, layer)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.exit(frame)
            if hook is not None:
                hook(tracer, args, result, sys._getframe(1))
            return result

        traced.__wrapped__ = fn
        return traced

    def wrap_generator(self, name: str, layer: str, fn, counter: str):
        """Each `next()` is a span of its own; every item is counted."""
        tracer = self

        def traced(*args, **kwargs):
            it = fn(*args, **kwargs)
            while True:
                frame = tracer.enter(name, layer)
                try:
                    item = next(it)
                except StopIteration:
                    return
                finally:
                    tracer.exit(frame)
                tracer.counts[counter] += 1
                yield item

        traced.__wrapped__ = fn
        return traced

    def wrap_method(self, module: str, cls_name: str, fn, attr: str, count: bool):
        tracer = self
        name = f"{layer_of(module)}.{cls_name}.{attr}"
        layer = layer_of(module)
        counter = _METHOD_COUNTERS.get((cls_name, attr)) if count else None

        def traced(*args, **kwargs):
            if counter is not None:
                counter(tracer, args)
            if sys._getframe(1).f_globals.get("__name__") == module:
                return fn(*args, **kwargs)
            frame = tracer.enter(name, layer)
            try:
                return fn(*args, **kwargs)
            finally:
                tracer.exit(frame)

        traced.__wrapped__ = fn
        return traced


# --- counters at the boundaries ---

def _count_lookup(t, args):
    t.counts["supported.lookups"] += 1


def _count_union(t, args):
    uf, a, b = args
    t.counts["supported.unions"] += 1
    if uf.find(a) != uf.find(b):
        t.counts["supported.merges"] += 1


_METHOD_COUNTERS = {
    ("SuppSet", "support"): _count_lookup,
    ("SuppSet", "__contains__"): _count_lookup,
    ("SuppMap", "__call__"): _count_lookup,
    ("UnionFind", "union"): _count_union,
}


def _called_from(caller, point) -> bool:
    return (caller.f_globals.get("__name__"), caller.f_code.co_name) == point


def _hook_admissible(t, args, result, caller):
    t.counts["atoms.admissibility_checks"] += 1
    if _called_from(caller, STEP_FULL):
        t.counts["automata.guard_passed"] += 1
    elif _called_from(caller, SAME_ORBIT) and t.active["automata.reachable_orbits"]:
        t.counts["automata.orbit_pairs"] += 1


def _hook_restricted_map(t, args, result, caller):
    t.counts["automata.successors_built"] += 1
    if _called_from(caller, STEP_FULL):
        t.counts["automata.successors_kept"] += 1


def _hook_ext_enumerate(t, args, result, caller):
    t.counts["freenom.universe_elems"] += len(result)
    if _called_from(caller, QUOT_CLASSES) and not t.active["checks.run_all"]:
        t.counts["presentations.closures_built"] += 1  # selfcheck's own queries are not counted


def _hook_act_finite(t, args, result, caller):
    if t.active["presentations.orbit_count"]:
        t.counts["presentations.orbit_candidates"] += 1


def _hook_rename(t, args, result, caller):
    t.counts["binding.renames"] += 1


def _hook_extend(t, args, result, caller):
    t.counts["freenom.extend_scan_elems"] += len(args[2])


HOOKS = {
    ("suppsets.freenom", "is_admissible"): _hook_admissible,
    ("suppsets.automata", "is_admissible"): _hook_admissible,
    ("suppsets.automata", "RestrictedMap"): _hook_restricted_map,
    ("suppsets.presentations", "ext_enumerate"): _hook_ext_enumerate,
    ("suppsets.presentations", "act_finite"): _hook_act_finite,
    ("suppsets.binding", "apply"): _hook_rename,
    ("suppsets.binding", "transposition"): _hook_rename,
    ("freenom", "extend"): _hook_extend,
}


def _defining_layer(obj, fallback: str) -> str:
    mod = getattr(obj, "__module__", None) or fallback
    return layer_of(mod)


def check_manifest() -> list:
    """Every listed point that is missing or not callable, by name."""
    missing = []
    for mod_name, names in IMPORT_POINTS.items():
        mod = importlib.import_module(mod_name)
        missing += [f"{mod_name}.{n}" for n in names if not callable(getattr(mod, n, None))]
    for mod_name, classes in METHOD_POINTS.items():
        mod = importlib.import_module(mod_name)
        for cls_name, attrs in classes.items():
            cls = getattr(mod, cls_name, None)
            missing += [f"{mod_name}.{cls_name}.{a}" for a in attrs
                        if cls is None or a not in vars(cls)]
    for mod_name, fn_name in CALLER_POINTS:
        fn = getattr(importlib.import_module(mod_name), fn_name, None)
        if not isinstance(fn, types.FunctionType):
            missing.append(f"{mod_name}.{fn_name}")
    return missing


class Installed:
    """The patches of one traced pass; `remove()` restores every original."""

    def __init__(self, tracer: Tracer):
        missing = check_manifest()
        if missing:
            raise ManifestError("wrap points missing: " + ", ".join(missing))
        self.saved = []
        for mod_name, names in IMPORT_POINTS.items():
            mod = importlib.import_module(mod_name)
            for n in names:
                fn = getattr(mod, n)
                layer = _defining_layer(fn, mod_name)
                span = f"{layer}.{n}"
                if (mod_name, n) in GENERATORS:
                    new = tracer.wrap_generator(span, layer, fn, f"{layer}.maps_enumerated")
                else:
                    new = tracer.wrap(span, layer, fn, HOOKS.get((mod_name, n)))
                self.saved.append((mod, n, fn))
                setattr(mod, n, new)
        for mod_name, classes in METHOD_POINTS.items():
            mod = importlib.import_module(mod_name)
            for cls_name, attrs in classes.items():
                cls = getattr(mod, cls_name)
                for a in attrs:
                    raw = vars(cls)[a]
                    static = isinstance(raw, staticmethod)
                    fn = raw.__func__ if static else raw
                    new = tracer.wrap_method(mod_name, cls_name, fn, a, (cls_name, a) in COUNTED_METHODS)
                    self.saved.append((cls, a, raw))
                    setattr(cls, a, staticmethod(new) if static else new)

    def remove(self):
        for owner, name, original in reversed(self.saved):
            setattr(owner, name, original)
        self.saved = []


class LayerProxy:
    """A layer module whose functions, called by the benchmark, are root spans."""

    def __init__(self, layer: str, module, tracer: Tracer):
        self._layer, self._module, self._tracer = layer, module, tracer
        self._cache = {}

    def __getattr__(self, name):
        value = getattr(self._module, name)
        if not isinstance(value, types.FunctionType):
            return value
        if name not in self._cache:
            self._cache[name] = self._tracer.wrap(
                f"{self._layer}.{name}", self._layer, value, HOOKS.get((self._layer, name)))
        return self._cache[name]


class Ctx:
    """What an op may call: one attribute per layer, and `run_cli(argv)`."""

    def __init__(self, modules: dict, run_cli, tracer: Tracer = None):
        for layer, mod in modules.items():
            setattr(self, layer, LayerProxy(layer, mod, tracer) if tracer else mod)
        self.run_cli = run_cli
