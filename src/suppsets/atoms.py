"""Atom domains and the three data symmetries.

Atoms are natural numbers (equality and renaming symmetries) or exact
rationals (total-order symmetry).  A symmetry selects the monoid of global
maps acting on the atom domain: finite permutations, monotone bijections
of the rationals, or arbitrary maps moving only finitely many atoms.

Global maps are always materialized as finite data -- moved points, or
piecewise-linear breakpoints with slope-one tails -- never as closures, so
that equality is decidable and serialization exact.  Rational arithmetic
uses :class:`fractions.Fraction` throughout; floats are rejected.
"""

from __future__ import annotations

import operator
from bisect import bisect_left
from collections.abc import Callable, Collection, Iterable, Iterator, Mapping
from dataclasses import dataclass, field
from enum import Enum
from fractions import Fraction
from typing import Union

Atom = Union[int, Fraction]


class SymmetryId(Enum):
    EQUALITY = "equality"
    TOTAL_ORDER = "total-order"
    RENAMING = "renaming"

    @property
    def rational_atoms(self) -> bool:
        return self is SymmetryId.TOTAL_ORDER

    @property
    def is_group(self) -> bool:
        """Renaming maps need not be invertible; the other two symmetries are groups."""
        return self is not SymmetryId.RENAMING

    @staticmethod
    def parse(name: str) -> "SymmetryId":
        for sym in SymmetryId:
            if sym.value == name:
                return sym
        raise ValueError(f"unknown symmetry {name!r}")


def check_atom(sym: SymmetryId, a: Atom) -> Atom:
    """Validate that `a` belongs to the atom domain of `sym`.  A plain `int`
    >= 0 is in every domain and a plain `Fraction` in the total order's;
    `bool` and other subclasses take the full check."""
    t = type(a)
    if (t is int and a >= 0) or (t is Fraction and sym is SymmetryId.TOTAL_ORDER):
        return a
    if isinstance(a, bool) or not isinstance(a, (int, Fraction)):
        raise ValueError(f"{a!r} is not an exact atom")
    if not sym.rational_atoms and (not isinstance(a, int) or a < 0):
        raise ValueError(f"{a!r} is not a natural-number atom ({sym.value})")
    return a


@dataclass(frozen=True)
class Support:
    """A finite set of atoms, stored sorted for canonical equality."""

    atoms: tuple = ()

    @staticmethod
    def of(items: Iterable[Atom]) -> "Support":
        return Support(tuple(sorted(set(items))))

    def __contains__(self, a: Atom) -> bool:
        return a in self.atoms

    def __iter__(self) -> Iterator[Atom]:
        return iter(self.atoms)

    def __len__(self) -> int:
        return len(self.atoms)

    def union(self, other: "Support") -> "Support":
        return Support.of(self.atoms + tuple(other))

    def intersect(self, other: "Support") -> "Support":
        o = set(other)
        return Support.of(a for a in self.atoms if a in o)

    def minus(self, other: Iterable[Atom]) -> "Support":
        o = set(other)
        return Support.of(a for a in self.atoms if a not in o)

    def issubset(self, other: "Support") -> bool:
        o = set(other)
        return all(a in o for a in self.atoms)


EMPTY_SUPPORT = Support()
_ABSENT = object()  # what `FiniteMap.get` hands `__call__` for an atom outside the domain


@dataclass(frozen=True)
class FiniteMap:
    """A finite association of atoms to atoms; equality is pointwise.

    The domain is exactly the key set; entries are stored sorted by key.
    """

    entries: tuple = ()

    @staticmethod
    def of(mapping) -> "FiniteMap":
        pairs = mapping.items() if isinstance(mapping, Mapping) else mapping
        ent = tuple(sorted((a, b) for a, b in pairs))
        keys = [a for a, _ in ent]
        if len(set(keys)) != len(keys):
            raise ValueError("duplicate keys in finite map")
        return FiniteMap(ent)

    @property
    def domain(self) -> Support:
        return Support(tuple(a for a, _ in self.entries))

    @property
    def image(self) -> Support:
        return Support.of(b for _, b in self.entries)

    def __call__(self, a: Atom) -> Atom:
        b = self.get(a, _ABSENT)
        if b is _ABSENT:
            raise KeyError(a)
        return b

    def get(self, a: Atom, default=None):
        for k, v in self.entries:
            if k == a:
                return v
        return default

    def items(self):
        return self.entries

    def __len__(self) -> int:
        return len(self.entries)

    def is_identity(self) -> bool:
        return all(a == b for a, b in self.entries)


def is_admissible(sym: SymmetryId, p: FiniteMap) -> bool:
    """True iff `p` is the restriction of some global map of the symmetry.

    Equality: injective.  Total order: strictly order-preserving.
    Renaming: every map qualifies.
    """
    for a, b in p.items():
        check_atom(sym, a)
        check_atom(sym, b)
    if sym is SymmetryId.RENAMING:
        return True
    values = [b for _, b in p.items()]  # entries are key-sorted
    if sym is SymmetryId.EQUALITY:
        return len(set(values)) == len(values)
    return all(x < y for x, y in zip(values, values[1:]))


def order_type(values: list) -> tuple:
    """Dense ranks of `values`, equal values sharing one, and the value at
    each rank (the first of equal values, as `2` and `Fraction(2)` are).
    Only `<` is used, never hashing: a `Fraction` computes its hash afresh
    on every call, at about the cost of a comparison."""
    order = sorted(range(len(values)), key=values.__getitem__)
    ranks = [0] * len(values)
    at_rank = [values[order[0]]] if values else []
    for i in order[1:]:
        v = values[i]
        if at_rank[-1] < v:
            at_rank.append(v)
        ranks[i] = len(at_rank) - 1
    return ranks, at_rank


# --- piecewise-linear machinery (total-order symmetry) ---

def _pwl_apply(entries: tuple, x: Atom) -> Atom:
    """Evaluate a breakpoint list at x; slope-one tails outside the hull."""
    if not entries:
        return x
    xs = [p for p, _ in entries]
    i = bisect_left(xs, x)
    if i < len(xs) and xs[i] == x:
        return entries[i][1]
    if i == 0:
        x0, y0 = entries[0]
        return y0 + (x - x0)
    if i == len(xs):
        xn, yn = entries[-1]
        return yn + (x - xn)
    (xa, ya), (xb, yb) = entries[i - 1], entries[i]
    return ya + Fraction(yb - ya) * (x - xa) / (xb - xa)


def _pwl_canonical(points: Iterable[tuple]) -> tuple:
    """Sort breakpoints, validate monotonicity, and keep only the points where
    the slope changes (both tails have slope one).  A translation has no such
    point; it keeps its last breakpoint unless it is the identity."""
    pts = sorted(points)
    for (xa, ya), (xb, yb) in zip(pts, pts[1:]):
        if xa == xb or ya >= yb:
            raise ValueError("breakpoints must be strictly increasing in both coordinates")
    slopes = [1] + [Fraction(yb - ya) / (xb - xa) for (xa, ya), (xb, yb) in zip(pts, pts[1:])] + [1]
    kinks = tuple(p for p, left, right in zip(pts, slopes, slopes[1:]) if left != right)
    if kinks or not pts or pts[-1][0] == pts[-1][1]:
        return kinks
    return (pts[-1],)


@dataclass(frozen=True)
class GlobalMap:
    """A materialized monoid element: moved points or PWL breakpoints."""

    sym: SymmetryId
    entries: tuple = ()
    _table: dict = field(default=None, compare=False, repr=False)

    def __post_init__(self):
        if not self.sym.rational_atoms:
            object.__setattr__(self, "_table", dict(self.entries))

    def is_identity(self) -> bool:
        return not self.entries


def identity(sym: SymmetryId) -> GlobalMap:
    return GlobalMap(sym, ())


def _moved_points(mapping) -> tuple:
    pairs = mapping.items() if isinstance(mapping, Mapping) else mapping
    return tuple(sorted((a, b) for a, b in pairs if a != b))


def finite_perm(sym: SymmetryId, mapping) -> GlobalMap:
    """A finite permutation given by (a subset of) its graph; fixed points dropped."""
    if sym.rational_atoms:
        raise ValueError("finite permutations are for natural-number symmetries")
    ent = _moved_points(mapping)
    srcs = {a for a, _ in ent}
    tgts = [b for _, b in ent]
    if len(set(tgts)) != len(tgts) or set(tgts) != srcs:
        raise ValueError("not a finite permutation")
    return GlobalMap(sym, ent)


def finite_renaming(mapping) -> GlobalMap:
    return GlobalMap(SymmetryId.RENAMING, _moved_points(mapping))


def pwl_map(breakpoints) -> GlobalMap:
    pairs = breakpoints.items() if isinstance(breakpoints, Mapping) else breakpoints
    return GlobalMap(SymmetryId.TOTAL_ORDER, _pwl_canonical(pairs))


def transposition(sym: SymmetryId, a: Atom, b: Atom) -> GlobalMap:
    if a == b:
        return identity(sym)
    return finite_perm(sym, {a: b, b: a})


def apply(g: GlobalMap, a: Atom) -> Atom:
    """Evaluate a global map at an atom."""
    check_atom(g.sym, a)
    if g.sym.rational_atoms:
        return _pwl_apply(g.entries, a)
    return g._table.get(a, a)


def compose(g: GlobalMap, h: GlobalMap) -> GlobalMap:
    """The map `a -> g(h(a))`; both arguments must share a symmetry."""
    if g.sym is not h.sym:
        raise ValueError(f"mixed symmetries: {g.sym.value} and {h.sym.value}")
    if g.sym.rational_atoms:
        h_inv = tuple(sorted((y, x) for x, y in h.entries))
        xs = {x for x, _ in h.entries} | {_pwl_apply(h_inv, x) for x, _ in g.entries}
        pts = [(x, apply(g, apply(h, x))) for x in sorted(xs)]
        return GlobalMap(g.sym, _pwl_canonical(pts))
    carrier = {a for a, _ in g.entries} | {a for a, _ in h.entries}
    ent = _moved_points({a: apply(g, apply(h, a)) for a in carrier})
    return GlobalMap(g.sym, ent)


def inverse(g: GlobalMap) -> GlobalMap:
    """Inverse global map; renaming payloads must be permutations."""
    if g.sym.rational_atoms:
        return GlobalMap(g.sym, tuple(sorted((y, x) for x, y in g.entries)))
    tgts = [b for _, b in g.entries]
    if len(set(tgts)) != len(tgts):
        raise ValueError("map is not invertible")
    return GlobalMap(g.sym, tuple(sorted((b, a) for a, b in g.entries)))


@dataclass(frozen=True)
class NominalCarrier:
    """A value domain with a decidable equality, an action, and supports.

    The action must satisfy act(id, v) = v and act(g, act(h, v)) =
    act(g∘h, v); supports must shrink along the action.
    """

    act: Callable[[GlobalMap, object], object]
    supp: Callable[[object], Support]
    eq: Callable[[object, object], bool] = operator.eq


def extend_to_global(sym: SymmetryId, p: FiniteMap) -> GlobalMap:
    """Deterministically complete an admissible finite map to a global one.

    Equality: unmatched carrier elements are paired in sorted order to
    close the permutation.  Total order: piecewise-linear through the
    breakpoints with slope-one tails.  Renaming: identity off the domain.
    """
    if not is_admissible(sym, p):
        raise ValueError(f"map {p.entries!r} is not admissible for {sym.value}")
    if sym is SymmetryId.TOTAL_ORDER:
        return pwl_map(p.items())
    if sym is SymmetryId.RENAMING:
        return finite_renaming(dict(p.items()))
    carrier = set(p.domain) | set(p.image)
    srcs = sorted(carrier - set(p.domain))
    tgts = sorted(carrier - set(p.image))
    full = dict(p.items())
    full.update(zip(srcs, tgts))
    return finite_perm(sym, full)


def extend_to_global_alternate(sym: SymmetryId, p: FiniteMap) -> GlobalMap:
    """A second deterministic completion, still agreeing with `p` on its domain.

    Used to property-check that constructions which pick *some* global
    extension do not depend on the choice.
    """
    if not is_admissible(sym, p):
        raise ValueError(f"map {p.entries!r} is not admissible for {sym.value}")
    if sym is SymmetryId.TOTAL_ORDER:
        if not p.entries:
            return pwl_map({0: 1})
        xmax, ymax = max(p.items())
        return pwl_map(dict(p.items()) | {xmax + 1: ymax + 2})
    if sym is SymmetryId.RENAMING:
        used = set(p.domain) | set(p.image)
        c = fresh(sym, Support.of(used))
        target = min(used) if used else c + 1
        return finite_renaming(dict(p.items()) | {c: target})
    carrier = set(p.domain) | set(p.image)
    srcs = sorted(carrier - set(p.domain))
    tgts = sorted(carrier - set(p.image))
    full = dict(p.items())
    if len(srcs) >= 2:
        full.update(zip(srcs, reversed(tgts)))
    else:
        full.update(zip(srcs, tgts))
        c1 = fresh(sym, Support.of(carrier))
        c2 = fresh(sym, Support.of(carrier | {c1}))
        full.update({c1: c2, c2: c1})
    return finite_perm(sym, full)


def lock_free_witness(sym: SymmetryId, fixed: Support, a: Atom) -> GlobalMap:
    """A global map fixing `fixed` pointwise and moving `a`.

    Equality and renaming use the transposition (a b) with b the smallest
    natural outside fixed+{a}.  Total order moves a halfway towards its
    nearest neighbour in `fixed` (by one, if `fixed` is empty).
    """
    check_atom(sym, a)
    if a in fixed:
        raise ValueError(f"{a!r} is in the fixed set")
    if sym is SymmetryId.TOTAL_ORDER:
        if len(fixed) == 0:
            b = a + 1
        else:
            b = a + Fraction(1, 2) * min(abs(a - x) for x in fixed)
        points = {x: x for x in fixed}
        points[a] = b
        return extend_to_global(sym, FiniteMap.of(points))
    b = fresh(sym, fixed.union(Support.of([a])))
    return transposition(sym, a, b)


def fresh(sym: SymmetryId, avoid: Collection) -> Atom:
    """An atom outside `avoid`: smallest unused natural, or max+1 for rationals."""
    return fresh_atoms(sym, avoid, 1)[0]


def fresh_atoms(sym: SymmetryId, avoid: Collection, count: int) -> list:
    """The first `count` atoms that repeated `fresh` calls would pick, each
    avoiding `avoid` and the ones before it; none when `count` <= 0."""
    if sym.rational_atoms:
        first = (max(avoid) + 1) if len(avoid) else Fraction(0)
        return [first + i for i in range(count)]
    out, used, n = [], set(avoid), 0
    while len(out) < count:
        if n not in used:
            out.append(n)
        n += 1
    return out


def pool_atoms(sym: SymmetryId, n: int) -> Support:
    """A pool of the first `n` atoms that `fresh_atoms` picks."""
    return Support.of(fresh_atoms(sym, EMPTY_SUPPORT, n))


# --- JSON forms: naturals as decimal ints, rationals as "p/q" strings ---

def atom_to_json(a: Atom):
    if isinstance(a, Fraction):
        if a.denominator == 1:
            return int(a)
        return f"{a.numerator}/{a.denominator}"
    return a


def atom_from_json(v, sym: SymmetryId) -> Atom:
    if isinstance(v, bool) or isinstance(v, float):
        raise ValueError(f"inexact atom literal {v!r}")
    if isinstance(v, str):
        try:
            a = Fraction(v) if "/" in v else int(v)
        except ZeroDivisionError:
            raise ValueError(f"bad atom literal {v!r}") from None
    elif isinstance(v, int):
        a = v
    else:
        raise ValueError(f"bad atom literal {v!r}")
    check_atom(sym, a)
    return a


def support_to_json(s: Support) -> list:
    return [atom_to_json(a) for a in s]


_KIND_BY_SYM = {
    SymmetryId.EQUALITY: "perm",
    SymmetryId.RENAMING: "finmap",
    SymmetryId.TOTAL_ORDER: "pwl",
}
_SYM_BY_KIND = {v: k for k, v in _KIND_BY_SYM.items()}


def global_map_to_json(g: GlobalMap) -> dict:
    return {
        "kind": _KIND_BY_SYM[g.sym],
        "entries": [[atom_to_json(a), atom_to_json(b)] for a, b in g.entries],
    }


def global_map_from_json(d: dict) -> GlobalMap:
    sym = _SYM_BY_KIND[d["kind"]]
    pairs = [(atom_from_json(a, sym), atom_from_json(b, sym)) for a, b in d["entries"]]
    if sym is SymmetryId.EQUALITY:
        return finite_perm(sym, pairs)
    if sym is SymmetryId.RENAMING:
        return finite_renaming(pairs)
    return pwl_map(pairs)
