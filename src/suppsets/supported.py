"""Supported sets and supported maps.

A supported set is a finite carrier of opaque element ids together with a
support function assigning each element a finite atom set.  A supported
map may shrink supports but never grow them.  This module provides the
finite-scale categorical toolkit: (co)products, (co)equalizers,
exponentials, image factorizations, isomorphism and subobject tests, and
the supports of finite subsets and of values under a nameless binder.
"""

from __future__ import annotations

import itertools
from collections.abc import Iterable, Mapping
from dataclasses import dataclass, field

from .atoms import EMPTY_SUPPORT, Support, SymmetryId, atom_from_json, support_to_json


def _id_key(x):
    """Deterministic ordering key for heterogeneous element ids."""
    if isinstance(x, tuple):
        return (2, tuple(_id_key(i) for i in x))
    if isinstance(x, str):
        return (1, x)
    return (0, repr(x))


@dataclass(frozen=True)
class SuppSet:
    """A finite supported set: element ids paired with their supports.

    Ids must be hashable and are compared as values, so `1`, `1.0` and
    `True` are one id (a repeat raises `ValueError`) while `1` and `"1"`
    are two.
    """

    items: tuple = ()  # ((elem_id, Support), ...) in fixed order
    _index: dict = field(default=None, compare=False, repr=False)

    def __post_init__(self):
        index = {}
        for x, s in self.items:
            if x in index:
                raise ValueError(f"duplicate element id {x!r}")
            index[x] = s
        object.__setattr__(self, "_index", index)

    @staticmethod
    def of(entries) -> "SuppSet":
        pairs = entries.items() if isinstance(entries, Mapping) else entries
        return SuppSet(tuple((x, s if isinstance(s, Support) else Support.of(s)) for x, s in pairs))

    @property
    def elements(self) -> tuple:
        return tuple(x for x, _ in self.items)

    def support(self, x) -> Support:
        return self._index[x]

    def __contains__(self, x) -> bool:
        try:
            return x in self._index
        except TypeError:  # an unhashable value is never an id
            return False

    def __len__(self) -> int:
        return len(self.items)

    def __iter__(self):
        return iter(self.elements)

    def atoms(self) -> Support:
        return ufs_support(s for _, s in self.items)


def unit_set(support=EMPTY_SUPPORT) -> SuppSet:
    """A singleton supported set; empty support unless told otherwise."""
    return SuppSet(((0, support),))


def bool_set() -> SuppSet:
    """The two-element classifier target, both elements with empty support."""
    return SuppSet(((0, EMPTY_SUPPORT), (1, EMPTY_SUPPORT)))


@dataclass(frozen=True)
class SupportViolation:
    element: object
    result_support: Support
    source_support: Support


@dataclass(frozen=True)
class ViolationReport:
    violations: tuple

    def __bool__(self) -> bool:
        return False  # a report is always a failure witness

    def describe(self) -> list:
        return [
            f"support grows at {v.element!r}: {tuple(v.result_support)} ⊄ {tuple(v.source_support)}"
            for v in self.violations
        ]


@dataclass(frozen=True)
class SuppMap:
    """A support-shrinking function between supported sets."""

    source: SuppSet
    target: SuppSet
    mapping: tuple  # ((x, f(x)), ...) aligned with source order
    _table: dict = field(default=None, compare=False, repr=False)

    def __post_init__(self):
        table = dict(self.mapping)
        if len(table) != len(self.mapping):
            raise ValueError("a supported map lists some source element twice")
        object.__setattr__(self, "_table", table)

    @staticmethod
    def of(source: SuppSet, target: SuppSet, f) -> "SuppMap":
        res = check_supported_map(f, source, target)
        if isinstance(res, ViolationReport):
            raise ValueError("; ".join(res.describe()))
        return res

    def __call__(self, x):
        return self._table[x]

    def as_dict(self) -> dict:
        return dict(self.mapping)

    def is_injective(self) -> bool:
        return len({b for _, b in self.mapping}) == len(self.mapping)

    def is_surjective(self) -> bool:
        vals = {b for _, b in self.mapping}
        return all(y in vals for y in self.target.elements)

    def is_support_reflecting(self) -> bool:
        return all(
            self.target.support(b) == self.source.support(a) for a, b in self.mapping
        )


def check_supported_map(f, X: SuppSet, Y: SuppSet):
    """Build a SuppMap, or report every element whose support would grow.

    `f` is a mapping or callable on the elements of X; it must be total
    and land in Y.
    """
    get = f.__getitem__ if isinstance(f, Mapping) else f
    mapping = []
    violations = []
    for x, sx in X.items:
        y = get(x)
        if y not in Y:
            raise KeyError(f"{y!r} is not in the target carrier")
        if not Y.support(y).issubset(sx):
            violations.append(SupportViolation(x, Y.support(y), sx))
        mapping.append((x, y))
    if violations:
        return ViolationReport(tuple(violations))
    return SuppMap(X, Y, tuple(mapping))


def identity_map(X: SuppSet) -> SuppMap:
    return SuppMap(X, X, tuple((x, x) for x in X.elements))


def compose_maps(g: SuppMap, f: SuppMap) -> SuppMap:
    if f.target != g.source:
        raise ValueError("composition mismatch")
    return SuppMap(f.source, g.target, tuple((x, g(f(x))) for x in f.source.elements))


# --- universal constructions ---

def product(X: SuppSet, Y: SuppSet):
    """Cartesian product; the support of a pair is the union of the parts."""
    items = [((x, y), X.support(x).union(Y.support(y))) for x in X.elements for y in Y.elements]
    P = SuppSet(tuple(items))
    pr1 = SuppMap(P, X, tuple((p, p[0]) for p, _ in items))
    pr2 = SuppMap(P, Y, tuple((p, p[1]) for p, _ in items))
    return P, pr1, pr2


def coproduct(X: SuppSet, Y: SuppSet):
    """Disjoint union; injected elements keep their supports."""
    items = [(("inl", x), X.support(x)) for x in X.elements]
    items += [(("inr", y), Y.support(y)) for y in Y.elements]
    C = SuppSet(tuple(items))
    inl = SuppMap(X, C, tuple((x, ("inl", x)) for x in X.elements))
    inr = SuppMap(Y, C, tuple((y, ("inr", y)) for y in Y.elements))
    return C, inl, inr


class UnionFind:
    def __init__(self, keys):
        self.parent = {k: k for k in keys}

    def find(self, k):
        while self.parent[k] != k:
            self.parent[k] = self.parent[self.parent[k]]
            k = self.parent[k]
        return k

    def union(self, a, b):
        ra, rb = self.find(a), self.find(b)
        if ra != rb:
            self.parent[rb] = ra


def coequalizer(f: SuppMap, g: SuppMap):
    """Quotient the common target by f(r) ~ g(r).

    Each class is named by its least member id and carries the
    intersection of its members' supports.
    """
    if f.source != g.source or f.target != g.target:
        raise ValueError("coequalizer needs a parallel pair")
    X = f.target
    uf = UnionFind(X.elements)
    for r in f.source.elements:
        uf.union(f(r), g(r))
    rep, meet = {}, {}  # class root -> least member id so far, meet of its members' supports
    for x, sx in X.items:
        k = uf.find(x)
        if k not in rep:
            rep[k], meet[k] = x, sx
        else:
            if _id_key(x) < _id_key(rep[k]):
                rep[k] = x
            meet[k] = meet[k].intersect(sx)
    items = sorted(((rep[k], meet[k]) for k in rep), key=lambda it: _id_key(it[0]))
    Q = SuppSet(tuple(items))
    epi = SuppMap(X, Q, tuple((x, rep[uf.find(x)]) for x in X.elements))
    return Q, epi


def equalizer(f: SuppMap, g: SuppMap):
    """The subset where f and g agree, with inherited supports."""
    if f.source != g.source or f.target != g.target:
        raise ValueError("equalizer needs a parallel pair")
    X = f.source
    items = tuple((x, X.support(x)) for x in X.elements if f(x) == g(x))
    E = SuppSet(items)
    mono = SuppMap(E, X, tuple((x, x) for x, _ in items))
    return E, mono


def exponential(E: SuppSet, X: SuppSet) -> SuppSet:
    """All functions E -> X; the support of f is ⋃_e s(f(e)) \\ s(e)."""
    es = E.elements
    items = []
    for choice in itertools.product(X.elements, repeat=len(es)):
        fid = tuple(zip(es, choice))
        supp = EMPTY_SUPPORT
        for e, x in fid:
            supp = supp.union(X.support(x).minus(E.support(e)))
        items.append((fid, supp))
    return SuppSet(tuple(items))


def is_iso(f: SuppMap) -> bool:
    """Isomorphisms are exactly the support-reflecting bijections."""
    return f.is_injective() and f.is_surjective() and f.is_support_reflecting()


def classify_regular_subobject(m: SuppMap) -> SuppMap:
    """The characteristic map X -> 2 of a support-reflecting mono."""
    if not m.is_injective():
        raise ValueError("subobject map is not injective")
    if not m.is_support_reflecting():
        raise ValueError("subobject map is not support-reflecting")
    image = {y for _, y in m.mapping}
    X = m.target
    two = bool_set()
    return SuppMap(X, two, tuple((x, 1 if x in image else 0) for x in X.elements))


def image_factorization(f: SuppMap, support_from: str = "source"):
    """Factor f as epi ∘ mono through its image.

    `support_from="source"` intersects fibre supports (regular epi);
    `support_from="target"` inherits target supports (regular mono).
    """
    if support_from not in ("source", "target"):
        raise ValueError("support_from must be 'source' or 'target'")
    X, Y = f.source, f.target
    source = support_from == "source"
    meet = {}  # each hit y -> the meet of its fibre's supports, in source order
    for x, sx in X.items:
        y = f(x)
        if y not in meet:
            meet[y] = sx
        elif source:
            meet[y] = meet[y].intersect(sx)
    items = tuple((y, meet[y] if source else Y.support(y)) for y in Y.elements if y in meet)
    Im = SuppSet(items)
    epi = SuppMap(X, Im, tuple((x, f(x)) for x in X.elements))
    mono = SuppMap(Im, Y, tuple((y, y) for y, _ in items))
    return epi, Im, mono


def pf_support(X: SuppSet, elems: Iterable) -> Support:
    """Support of a finite subset: the union of its members' supports."""
    return ufs_support(X.support(x) for x in elems)


def ufs_support(supports: Iterable[Support]) -> Support:
    """Union of a finite family of supports."""
    return Support.of(a for s in supports for a in s)


def b_support(s: Support) -> Support:
    """Support of a value under a nameless binder: shift down, dropping 0."""
    return Support.of(a - 1 for a in s if a >= 1)


# --- JSON forms ---

def suppset_to_json(X: SuppSet) -> dict:
    return {
        "elements": [
            {"id": x, "support": support_to_json(s)} for x, s in X.items
        ]
    }


def json_array(v, where: str) -> list:
    """`v`, which must be a JSON array: a string or an object would be
    iterated by its characters or keys without complaint."""
    if not isinstance(v, list):
        raise TypeError(f"{where} must be a JSON array, not {type(v).__name__}")
    return v


def suppset_from_json(d: dict, sym: SymmetryId) -> SuppSet:
    return SuppSet.of(
        [(e["id"], Support.of(atom_from_json(a, sym) for a in json_array(e["support"], "support")))
         for e in json_array(d["elements"], "elements")]
    )


def suppmap_to_json(f: SuppMap) -> dict:
    return {"map": {x: y for x, y in f.mapping}}


def suppmap_from_json(d: dict, source: SuppSet, target: SuppSet) -> SuppMap:
    return SuppMap.of(source, target, dict(d["map"]))
