"""Orbit-finite quotients presented by generators and equations.

A presentation is a finite supported set of generators plus finitely many
equations between extension elements over them.  Equality in the quotient
is decided over a bounded atom pool: every equation is instantiated along
every admissible reassignment of its atoms into the pool, and the
resulting pairs are closed into an equivalence over the pool-bounded
extension.  Two closure engines are kept deliberately separate -- a
union-find and a naive fixpoint sweep -- so each can serve as the other's
oracle.  Orbit counts need no closure: they follow from the generators and
equations that fit in the pool, with the enumerating count kept as their
oracle.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .atoms import EMPTY_SUPPORT, GlobalMap, Support, SymmetryId, fresh, fresh_atoms
from .freenom import (
    ExtElem,
    act,
    act_finite,
    admissible_maps,
    check_ext_elem,
    ext_elem_from_json,
    ext_elem_to_json,
    ext_enumerate,
    ext_support,
)
from .supported import SuppSet, UnionFind, suppset_from_json, suppset_to_json


@dataclass(frozen=True)
class FinPresentation:
    sym: SymmetryId
    generators: SuppSet
    equations: tuple = ()  # ((lhs: ExtElem, rhs: ExtElem), ...)

    def __post_init__(self):
        for lhs, rhs in self.equations:
            check_ext_elem(self.generators, lhs)
            check_ext_elem(self.generators, rhs)

    def max_generator_support(self) -> int:
        return max((len(s) for _, s in self.generators.items), default=0)


@dataclass(eq=False)
class QuotElem:
    """An extension element regarded modulo the presented congruence.

    Equality is class equality (`same_class`), never representative
    equality, so the default `==` is deliberately left as identity.
    """

    presentation: FinPresentation
    rep: ExtElem

    def same_class(self, other: "QuotElem", pool: "AtomPool" = None) -> bool:
        if self.presentation != other.presentation:
            return False
        pool = pool or default_pool(self.presentation, [self.rep, other.rep])
        return quot_eq(self.presentation, self.rep, other.rep, pool)


@dataclass(frozen=True)
class AtomPool:
    atoms: Support

    def __len__(self) -> int:
        return len(self.atoms)


class PoolError(ValueError):
    pass


def default_pool(P: FinPresentation, reps=()) -> AtomPool:
    """Supports of the given representatives and of all equation sides,
    padded with 1 + (max generator support size) fresh atoms."""
    base = EMPTY_SUPPORT
    for e in reps:
        base = base.union(ext_support(e))
    for lhs, rhs in P.equations:
        base = base.union(ext_support(lhs)).union(ext_support(rhs))
    spare = 1 + P.max_generator_support()
    return AtomPool(base.union(Support.of(fresh_atoms(P.sym, base, spare))))


def _ext_key(e: ExtElem):
    return (e.pi.images.entries, e.base)


def _instance_pairs(P: FinPresentation, pool: Support):
    """Every equation instantiated along every admissible map into the pool."""
    for lhs, rhs in P.equations:
        dom = ext_support(lhs).union(ext_support(rhs))
        for m in admissible_maps(P.sym, dom, pool):
            yield act_finite(m, lhs), act_finite(m, rhs)


def quot_classes(P: FinPresentation, pool: AtomPool):
    """Union-find closure over the pool-bounded extension.

    Returns (universe, labels) where labels maps each element's key to a
    canonical class label.
    """
    universe = ext_enumerate(P.sym, P.generators, pool.atoms)
    keys = [_ext_key(e) for e in universe]
    uf = UnionFind(keys)
    for el, er in _instance_pairs(P, pool.atoms):
        uf.union(_ext_key(el), _ext_key(er))
    labels = {k: uf.find(k) for k in keys}
    return universe, labels


def _require_in_pool(P: FinPresentation, e: ExtElem, pool: AtomPool):
    check_ext_elem(P.generators, e)
    if not ext_support(e).issubset(pool.atoms):
        raise PoolError(
            f"pool {tuple(pool.atoms)} does not cover the support {tuple(ext_support(e))}"
        )


def quot_eq(P: FinPresentation, e1: ExtElem, e2: ExtElem, pool: AtomPool) -> bool:
    """Class equality of two extension elements over the pool."""
    _require_in_pool(P, e1, pool)
    _require_in_pool(P, e2, pool)
    _, labels = quot_classes(P, pool)
    return labels[_ext_key(e1)] == labels[_ext_key(e2)]


def quot_eq_fixpoint(P: FinPresentation, e1: ExtElem, e2: ExtElem, pool: AtomPool) -> bool:
    """Independent oracle: naive reflexive-symmetric-transitive fixpoint sweep."""
    _require_in_pool(P, e1, pool)
    _require_in_pool(P, e2, pool)
    universe = ext_enumerate(P.sym, P.generators, pool.atoms)
    label = {_ext_key(e): i for i, e in enumerate(universe)}
    pairs = [(_ext_key(a), _ext_key(b)) for a, b in _instance_pairs(P, pool.atoms)]
    changed = True
    while changed:
        changed = False
        for ka, kb in pairs:
            la, lb = label[ka], label[kb]
            if la != lb:
                lo, hi = min(la, lb), max(la, lb)
                for k in label:
                    if label[k] == hi:
                        label[k] = lo
                changed = True
    return label[_ext_key(e1)] == label[_ext_key(e2)]


def orbit_count_enum(P: FinPresentation, pool: AtomPool) -> int:
    """Independent oracle for `orbit_count`: build the pool-bounded
    classes, then merge each class with every admissible image of each of
    its elements."""
    if not P.sym.is_group:
        raise ValueError("orbits are defined for the group symmetries only")
    universe, labels = quot_classes(P, pool)
    if not universe:
        return 0
    uf = UnionFind(set(labels.values()))
    for e in universe:
        ke = labels[_ext_key(e)]
        for m in admissible_maps(P.sym, ext_support(e), pool.atoms):
            uf.union(ke, labels[_ext_key(act_finite(m, e))])
    return len({uf.find(label) for label in set(labels.values())})


def element_count(P: FinPresentation, pool: AtomPool) -> int:
    """Number of congruence classes among the pool-bounded extension."""
    _, labels = quot_classes(P, pool)
    return len(set(labels.values()))


def orbit_count(P: FinPresentation, pool: AtomPool) -> int:
    """Number of orbits of the quotient's pool-bounded slice, in closed form.

    Under a group symmetry the admissible maps from a support into the
    pool are all injections (equality) or all monotone injections (total
    order), so any two elements with the same base are related by one of
    them: each generator whose support fits in the pool is one orbit, and
    an equation whose atoms fit glues the orbits of its two bases.  The
    count is a union-find over generators and depends only on the pool's
    size.  `orbit_count_enum` is the enumerating oracle.  Renaming has no
    orbits.
    """
    if not P.sym.is_group:
        raise ValueError("orbits are defined for the group symmetries only")
    n = len(pool)
    kept = [x for x, s in P.generators.items if len(s) <= n]
    uf = UnionFind(kept)
    for lhs, rhs in P.equations:
        if len(ext_support(lhs).union(ext_support(rhs))) <= n:
            uf.union(lhs.base, rhs.base)
    return len({uf.find(x) for x in kept})


def _witness_targets(sym: SymmetryId, dom: Support, pool: Support) -> Support:
    """Atoms a pool needs so that each support atom can be moved while the
    rest stay fixed: one fresh natural, or the order-symmetry midpoints."""
    if sym is SymmetryId.EQUALITY:
        return Support.of([fresh(sym, dom.union(pool))])
    extra = []
    for a in dom:
        rest = dom.minus([a])
        if rest:
            extra.append(a + Fraction(1, 2) * min(abs(a - x) for x in rest))
        else:
            extra.append(a + 1)
    return Support.of(extra)


def supp_of(P: FinPresentation, e: ExtElem, pool: AtomPool) -> Support:
    """Least subset of the element's support whose pointwise fixation
    fixes its class, found by greedy removal with full re-verification.

    The pool is enriched with the lock-free witness targets of the
    element's support atoms; without them no admissible map could move an
    interior atom of an order-symmetry support while fixing its
    neighbours, and the result would come out too small.
    """
    if not P.sym.is_group:
        raise ValueError("least supports are computed for the group symmetries only")
    _require_in_pool(P, e, pool)
    dom = ext_support(e)
    atoms = pool.atoms.union(_witness_targets(P.sym, dom, pool.atoms))
    _, labels = quot_classes(P, AtomPool(atoms))
    target = labels[_ext_key(e)]

    def fixes_class(kept: Support) -> bool:
        for m in admissible_maps(P.sym, dom, atoms):
            if all(m(a) == a for a in kept):
                if labels[_ext_key(act_finite(m, e))] != target:
                    return False
        return True

    kept = dom
    for a in tuple(dom):
        candidate = kept.minus([a])
        if fixes_class(candidate):
            kept = candidate
    return kept


def act_quot(g: GlobalMap, q: QuotElem) -> QuotElem:
    """Act on the representative; well-definedness is property-tested."""
    return QuotElem(q.presentation, act(g, q.rep))


# --- JSON forms ---

def presentation_to_json(P: FinPresentation) -> dict:
    return {
        "symmetry": P.sym.value,
        "generators": suppset_to_json(P.generators),
        "equations": [
            [ext_elem_to_json(lhs), ext_elem_to_json(rhs)] for lhs, rhs in P.equations
        ],
    }


def presentation_from_json(d: dict) -> FinPresentation:
    sym = SymmetryId.parse(d["symmetry"])
    gens = suppset_from_json(d["generators"], sym)
    eqs = tuple(
        (ext_elem_from_json(lhs, sym), ext_elem_from_json(rhs, sym))
        for lhs, rhs in d.get("equations", [])
    )
    return FinPresentation(sym, gens, eqs)
