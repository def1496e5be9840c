"""The free nominal extension of a supported set.

An element of the extension is a pair (pi, x): a base element x of a
supported set together with an admissible reassignment pi of its support
atoms.  pi is stored canonically as the pointwise restriction of a global
map to the support of x, which makes equality O(|support|) and exact.

The extension is a monad: `unit` embeds base elements with the identity
reassignment, and `mult` collapses a reassignment-of-a-reassignment by
pointwise composition.  `extend` is the universal property: any
support-shrinking valuation of the bases into a carrier with a monoid
action extends uniquely to an action-compatible map on the extension
(such a carrier is an `atoms.NominalCarrier`).  The configurations of a
register automaton are the elements of the extension of its location set.
"""

from __future__ import annotations

import itertools
from collections.abc import Callable, Iterator, Mapping
from dataclasses import dataclass

from .atoms import (
    FiniteMap,
    GlobalMap,
    NominalCarrier,
    Support,
    SymmetryId,
    apply,
    atom_from_json,
    atom_to_json,
    extend_to_global,
    extend_to_global_alternate,
    is_admissible,
)
from .supported import SuppMap, SuppSet


@dataclass(frozen=True)
class RestrictedMap:
    """A global map known only on a finite domain; the canonical class form."""

    sym: SymmetryId
    images: FiniteMap

    def __post_init__(self):
        if not is_admissible(self.sym, self.images):
            raise ValueError(
                f"{self.images.entries!r} is not admissible for {self.sym.value}"
            )

    @property
    def domain(self) -> Support:
        return self.images.domain

    @property
    def image(self) -> Support:
        return self.images.image

    def __call__(self, a):
        return self.images(a)


def restrict(g: GlobalMap, S: Support) -> RestrictedMap:
    """Forget a global map down to its pointwise behaviour on S."""
    return RestrictedMap(g.sym, FiniteMap.of({a: apply(g, a) for a in S}))


def identity_restriction(sym: SymmetryId, S: Support) -> RestrictedMap:
    return RestrictedMap(sym, FiniteMap.of({a: a for a in S}))


@dataclass(frozen=True)
class ExtElem:
    """An element (pi, base) of the free nominal extension."""

    pi: RestrictedMap
    base: object


def check_ext_elem(X: SuppSet, e: ExtElem) -> ExtElem:
    if e.base not in X:
        raise ValueError(f"base {e.base!r} not in carrier")
    if tuple(a for a, _ in e.pi.images.entries) != X.support(e.base).atoms:
        raise ValueError(
            f"reassignment domain {tuple(e.pi.domain)} != support {tuple(X.support(e.base))}"
        )
    return e


def unit(sym: SymmetryId, X: SuppSet, x) -> ExtElem:
    """Embed a base element with the identity reassignment of its support."""
    return ExtElem(identity_restriction(sym, X.support(x)), x)


def ext_support(e: ExtElem) -> Support:
    """The support of an extension element: the image of its reassignment."""
    return e.pi.image


def act(g: GlobalMap, e: ExtElem) -> ExtElem:
    """Post-compose the reassignment with a global map."""
    if g.sym is not e.pi.sym:
        raise ValueError("mixed symmetries")
    return act_finite(lambda b: apply(g, b), e)


def act_finite(m: Callable, e: ExtElem) -> ExtElem:
    """Post-compose the reassignment with `m`, an atom map defined on (at
    least) the element's support.  The keys stay those of `e.pi`, already
    sorted and distinct, so the entries need no re-sorting; the
    `RestrictedMap` constructor is the one admissibility check."""
    images = FiniteMap(tuple((a, m(b)) for a, b in e.pi.images.items()))
    return ExtElem(RestrictedMap(e.pi.sym, images), e.base)


def ext_map(f: SuppMap, e: ExtElem) -> ExtElem:
    """Functorial action on a supported map: restrict pi to the new support."""
    y = f(e.base)
    target_supp = f.target.support(y)
    images = FiniteMap.of({a: e.pi(a) for a in target_supp})
    return ExtElem(RestrictedMap(e.pi.sym, images), y)


def mult(outer: RestrictedMap, e: ExtElem) -> ExtElem:
    """Monad multiplication on a canonical pair: pointwise composition."""
    if outer.domain != ext_support(e):
        raise ValueError(
            f"outer domain {tuple(outer.domain)} != element support {tuple(ext_support(e))}"
        )
    return act_finite(outer, e)


class ExtendPreconditionError(ValueError):
    """Raised when a valuation does not shrink supports."""

    def __init__(self, violations):
        self.violations = violations
        lines = "; ".join(
            f"supp(f({x!r})) = {tuple(sv)} ⊄ {tuple(sx)}" for x, sv, sx in violations
        )
        super().__init__(f"valuation grows supports: {lines}")


def extend(f, carrier: NominalCarrier, X: SuppSet, e: ExtElem):
    """Evaluate the universal extension of the valuation f at e.

    Checks the support precondition on every base element, then applies a
    global completion of e's reassignment to f(base).  The result is
    independent of the completion choice; this is re-verified at runtime
    with a second deterministic completion.
    """
    get = f.__getitem__ if isinstance(f, Mapping) else f
    supp = carrier.supp
    violations = []
    for x, sx in X.items:
        sv = supp(get(x))
        if sv.atoms and not set(sx.atoms).issuperset(sv.atoms):
            violations.append((x, sv, sx))
    if violations:
        raise ExtendPreconditionError(violations)
    sym = e.pi.sym
    value = get(e.base)
    primary = carrier.act(extend_to_global(sym, e.pi.images), value)
    alternate = carrier.act(extend_to_global_alternate(sym, e.pi.images), value)
    if not carrier.eq(primary, alternate):
        raise AssertionError(
            "extension depends on the global completion; carrier action is unsound"
        )
    return primary


def admissible_targets(sym: SymmetryId, k: int, atoms) -> Iterator[tuple]:
    """Every admissible tuple of images, taken from the sorted sequence
    `atoms`, for a sorted domain of `k` atoms, in a fixed order: injective
    (equality), increasing (total order) or any (renaming).  The order
    depends only on positions in `atoms`, so `range(len(atoms))` yields
    the same tuples, written as positions."""
    if sym is SymmetryId.EQUALITY:
        return itertools.permutations(atoms, k)
    if sym is SymmetryId.TOTAL_ORDER:
        return itertools.combinations(atoms, k)
    return itertools.product(atoms, repeat=k)


def admissible_maps(sym: SymmetryId, domain: Support, pool: Support) -> Iterator[FiniteMap]:
    """All admissible finite maps from `domain` into `pool`, in a fixed order.
    The domain is a `Support`, sorted and distinct, so the entries need no
    re-sorting."""
    src = tuple(domain)
    for tgt in admissible_targets(sym, len(src), tuple(pool)):
        yield FiniteMap(tuple(zip(src, tgt)))


def ext_enumerate(sym: SymmetryId, X: SuppSet, pool: Support) -> tuple:
    """The pool-bounded slice of the extension: every (pi, x) landing in the pool."""
    out = []
    for x in X.elements:
        for m in admissible_maps(sym, X.support(x), pool):
            out.append(ExtElem(RestrictedMap(sym, m), x))
    return tuple(out)


# Extension elements as a nominal carrier (canonical equality).
EXT_CARRIER = NominalCarrier(act=act, supp=ext_support)

# Atoms themselves as a nominal carrier.
ATOM_CARRIER = NominalCarrier(act=apply, supp=lambda a: Support((a,)))


# --- JSON forms ---

def ext_elem_to_json(e: ExtElem) -> dict:
    return {
        "pi": {str(atom_to_json(a)): atom_to_json(b) for a, b in e.pi.images.items()},
        "base": e.base,
    }


def ext_elem_from_json(d: dict, sym: SymmetryId) -> ExtElem:
    images = FiniteMap.of(
        {atom_from_json(k, sym): atom_from_json(v, sym) for k, v in d["pi"].items()}
    )
    return ExtElem(RestrictedMap(sym, images), d["base"])
