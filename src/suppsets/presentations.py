"""Orbit-finite quotients presented by generators and equations.

A presentation is a finite supported set of generators plus finitely many
equations between extension elements over them.  The presented congruence
is the least equivariant equivalence containing the equations.  Under a
group symmetry it is a finite set of pair orbits, which each presentation
saturates from its equation orbits under swap and composition once, so
`quot_eq` and `supp_of` are exact: one lookup per pair, or per support
atom.  Element counts and every renaming query are decided over a bounded
atom pool: every equation is instantiated along every admissible
reassignment of its atoms into the pool, and the resulting pairs are
closed into an equivalence over the pool-bounded extension.  The
union-find closure runs on pool positions: an element is an index found
from its base and the positions of its atoms in the pool, and an
instance is a tuple of positions, so no map or element is built per
instance.  A naive fixpoint sweep over extension elements is kept
deliberately separate, so each engine can serve as the other's oracle,
and both as one-sided oracles of the saturation.  Orbit counts need no closure: they
follow from the generators and equations that fit in the pool, with the
enumerating count kept as their oracle.
"""

from __future__ import annotations

from bisect import bisect_left
from collections import defaultdict
from dataclasses import dataclass
from functools import cached_property
from itertools import product
from operator import itemgetter

from .atoms import EMPTY_SUPPORT, GlobalMap, Support, SymmetryId, fresh_atoms, lock_free_witness, order_type
from .atoms import fresh  # unused here; the benchmark's trace.IMPORT_POINTS wraps it
from .freenom import (
    ExtElem,
    act,
    act_finite,
    admissible_maps,
    admissible_targets,
    check_ext_elem,
    ext_elem_from_json,
    ext_elem_to_json,
    ext_enumerate,
    ext_support,
)
from .supported import SuppSet, UnionFind, json_array, suppset_from_json, suppset_to_json


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

    @cached_property
    def pair_orbits(self) -> frozenset:
        """The congruence's pair orbits off the diagonal (group symmetries
        only), saturated on first use and kept."""
        return _saturate(self)


@dataclass(eq=False)
class QuotElem:
    """An extension element regarded modulo the presented congruence.

    Equality is class equality (`same_class`), never representative
    equality, so the default `==` is deliberately left as identity.
    """

    presentation: FinPresentation
    rep: ExtElem

    def same_class(self, other: "QuotElem") -> bool:
        """`quot_eq` over `default_pool` of the two representatives: exact
        under a group symmetry, decided over that pool under renaming."""
        if self.presentation != other.presentation:
            return False
        pool = default_pool(self.presentation, [self.rep, other.rep])
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


def _picker(at: list):
    """`t -> tuple(t[j] for j in at)`, by `itemgetter` where that returns a tuple."""
    return itemgetter(*at) if len(at) > 1 else lambda t: tuple([t[j] for j in at])


def quot_classes(P: FinPresentation, pool: AtomPool):
    """Union-find closure over the pool-bounded extension, run on pool
    positions.

    The pool's atoms are numbered 0..p-1 in order.  An element is keyed by
    its base and the positions of its images, which `admissible_targets`
    yields in `ext_enumerate`'s order, so a key's index is the element's
    place in the universe.  An equation instance is an admissible tuple of
    positions for the equation's atoms; each side reads its positions off
    that tuple.  An admissible map after an admissible reassignment is
    admissible, so every instance is an element of the universe.  Each
    instance is one `UnionFind.union`, in the order of `_instance_pairs`.

    Returns (universe, labels) where labels maps each element's key to the
    key of its class's representative.
    """
    universe = ext_enumerate(P.sym, P.generators, pool.atoms)
    positions = range(len(pool))
    index = {}
    for x, s in P.generators.items:
        for t in admissible_targets(P.sym, len(s), positions):
            index[x, t] = len(index)
    uf = UnionFind(range(len(index)))
    for lhs, rhs in P.equations:
        dom = ext_support(lhs).union(ext_support(rhs)).atoms
        pick_l, pick_r = (_picker([dom.index(b) for _, b in e.pi.images.entries]) for e in (lhs, rhs))
        for t in admissible_targets(P.sym, len(dom), positions):
            uf.union(index[lhs.base, pick_l(t)], index[rhs.base, pick_r(t)])
    keys = [_ext_key(e) for e in universe]
    return universe, {k: keys[uf.find(i)] for i, k in enumerate(keys)}


def _require_in_pool(P: FinPresentation, pool: AtomPool, *elems: ExtElem):
    for e in elems:
        check_ext_elem(P.generators, e)
        if not ext_support(e).issubset(pool.atoms):
            raise PoolError(
                f"pool {tuple(pool.atoms)} does not cover the support {tuple(ext_support(e))}"
            )


def quot_eq(P: FinPresentation, e1: ExtElem, e2: ExtElem, pool: AtomPool) -> bool:
    """Class equality of two extension elements.  Under a group symmetry it
    is exact: the pool must cover both supports, and the answer is one
    lookup in `P.pair_orbits`.  Under renaming it is decided over the pool."""
    _require_in_pool(P, pool, e1, e2)
    if P.sym.is_group:
        return e1 == e2 or _pair_key(P.sym, e1, e2) in P.pair_orbits
    _, labels = quot_classes(P, pool)
    return labels[_ext_key(e1)] == labels[_ext_key(e2)]


# --- pair orbits ---
#
# Under a group symmetry the orbit of a pair (e1, e2) of extension elements
# is fixed by the two bases and the pattern of the atoms of e1 then e2:
# each atom is named by its first occurrence (equality) or by its rank
# (total order).  A key is `(base1, pattern1, base2, pattern2)`, and its
# names are 0..m-1, so a key is also a representative of its orbit.

def _orbit_key(sym: SymmetryId, x1, atoms1: list, x2, atoms2: list) -> tuple:
    atoms = [*atoms1, *atoms2]
    if sym is SymmetryId.TOTAL_ORDER:
        names = order_type(atoms)[0]
    else:
        first = {}
        names = [first.setdefault(a, len(first)) for a in atoms]
    k = len(atoms1)
    return x1, tuple(names[:k]), x2, tuple(names[k:])


def _pair_key(sym: SymmetryId, e1: ExtElem, e2: ExtElem) -> tuple:
    return _orbit_key(sym, e1.base, [b for _, b in e1.pi.images.entries],
                      e2.base, [b for _, b in e2.pi.images.entries])


def _compose(sym: SymmetryId, o1: tuple, o2: tuple):
    """The orbits of the pairs (a, c) with (a, b) in `o1` and (b, c) in
    `o2`; `o1`'s second base is `o2`'s first.  `o2`'s names for b's atoms
    are renamed to `o1`'s by generator position.  Each of c's other atoms
    either meets one of a's atoms outside b or is new.  Under equality any
    injective choice will do.  Under total order an atom stays in its gap
    between b's atoms, and c's atoms keep their order: o1's name n sits at
    `(2n, 0)`, and c's atom `j` new just above it at `(2n + 1, j)`."""
    x, p, _, q = o1
    _, q2, z, r = o2
    m = 1 + max((*p, *q), default=-1)
    at = dict(zip(q2, q))
    cs = [j for j in r if j not in at]
    if sym is SymmetryId.TOTAL_ORDER:
        at = {j: (2 * n, 0) for j, n in at.items()}
        p = [(2 * n, 0) for n in p]

        def choices(j):
            g = bisect_left(q2, j)
            lo, hi = q[g - 1] if g else -1, q[g] if g < len(q) else m
            return [(2 * lo + 1, j)] + [v for n in range(lo + 1, hi) for v in ((2 * n, 0), (2 * n + 1, j))]

        fits = lambda vs: all(u < v for u, v in zip(vs, vs[1:]))
    else:
        outside_b = sorted(set(p).difference(q))
        choices = lambda j: [*outside_b, m + j]
        fits = lambda vs: len(set(vs)) == len(vs)
    for vs in product(*map(choices, cs)):
        if fits(vs):
            place = {**at, **dict(zip(cs, vs))}
            yield _orbit_key(sym, x, p, z, [place[j] for j in r])


def _saturate(P: FinPresentation) -> frozenset:
    """Every pair orbit (a, c) joined by a chain of equation instances:
    the equation orbits and their swaps are the steps, and each orbit
    reached is composed with every step that starts at its second base.
    Diagonal orbits add nothing and are not kept."""
    if not P.sym.is_group:
        raise ValueError("pair orbits are saturated for the group symmetries only")
    seen, todo, steps = set(), [], defaultdict(list)

    def add(k):
        if k not in seen and (k[0], k[1]) != (k[2], k[3]):
            seen.add(k)
            todo.append(k)

    for lhs, rhs in P.equations:
        add(_pair_key(P.sym, lhs, rhs))
        add(_pair_key(P.sym, rhs, lhs))
    for k in todo:
        steps[k[0]].append(k)
    while todo:
        o = todo.pop()
        for step in steps[o[2]]:
            for k in _compose(P.sym, o, step):
                add(k)
    return frozenset(seen)


def quot_eq_fixpoint(P: FinPresentation, e1: ExtElem, e2: ExtElem, pool: AtomPool) -> bool:
    """Independent oracle: naive reflexive-symmetric-transitive fixpoint sweep."""
    _require_in_pool(P, pool, e1, e2)
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


def supp_of(P: FinPresentation, e: ExtElem, pool: AtomPool) -> Support:
    """Least support of the element's class, exact; the pool only has to
    cover the element.

    In a nominal set with least supports, an atom `a` of a support `T` is
    outside the least support exactly when moving `a` alone, with the rest
    of `T` fixed, keeps the element: under equality the swap of `a` with a
    fresh atom (Pitts, *Nominal Sets*, CUP 2013, Sec. 3), under total order
    a move of `a` inside its gap (Bojanczyk, Klin and Lasota, *Automata
    theory in nominal sets*, LMCS 2014).  So each atom of the element's
    own support takes one lookup in `P.pair_orbits`.
    """
    if not P.sym.is_group:
        raise ValueError("least supports are computed for the group symmetries only")
    _require_in_pool(P, pool, e)
    dom = ext_support(e)
    moves = ((a, act(lock_free_witness(P.sym, dom.minus([a]), a), e)) for a in dom)
    return Support.of(a for a, moved in moves if _pair_key(P.sym, e, moved) not in P.pair_orbits)


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
        for lhs, rhs in json_array(d.get("equations", []), "equations")
    )
    return FinPresentation(sym, gens, eqs)
