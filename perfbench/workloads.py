"""Seeded workload generators and their op decks.

A deck is a fixed multiset of ops whose contents (atoms, words, terms)
come from the seed and whose order is a seeded shuffle.  The runner
repeats whole decks, so every run sees the same mix and the percentile
rule sees the same distribution whatever the seed.

Nothing here reads `tests/` or calls the generators in `suppsets.checks`:
a later change to those must not move the workload.  Each op carries the
answer it must give, taken from `refs` or known by construction.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from random import Random
from typing import Callable

import refs

LAYERS = ("atoms", "supported", "freenom", "presentations", "binding", "automata", "checks", "cli")


@dataclass
class Op:
    """One timed operation: `call(ctx)` returns what `check` inspects."""

    kind: str
    layer: str  # the layer the op calls into directly
    call: Callable
    check: Callable
    nodes: int = 0  # named-term nodes handed to `binding`
    letters: int = 0  # word letters handed to `automata.run`


@dataclass
class Workload:
    name: str
    why: str
    ops: list
    kinds: dict  # op kind -> why it is in this workload
    passes: int = 0  # 0: repeat the deck for the run's seconds; n: exactly n passes


def _shuffled(rng: Random, ops: list) -> list:
    rng.shuffle(ops)
    return ops


# --- quotient -------------------------------------------------------------

QUOTIENT_KINDS = {
    "quot_eq": "class equality at a fixed (presentation, pool); many per pair, so a closure cache has something to reuse",
    "supp_of": "least support; rebuilds the closure over an enriched pool",
    "element_count": "one closure per call; closed-form answers",
    "orbit_count": "exponential in the pool; the largest pools form the tail",
    "carrier": "SuppMap.of, compose_maps, coequalizer, image_factorization, is_iso and extend on 500-2000 elements: the linear-scan lookups",
}


def _ext(base, images: dict) -> dict:
    """An extension element in the CLI's JSON form; atoms are naturals."""
    return {"pi": {str(k): v for k, v in images.items()}, "base": base}


def cycle_presentation(k: int) -> dict:
    """One generator of support k and the equation (g, id) = (g, k-cycle)."""
    ident = {i: i for i in range(k)}
    cycle = {i: (i + 1) % k for i in range(k)}
    return {
        "symmetry": "equality",
        "generators": {"elements": [{"id": "g", "support": list(range(k))}]},
        "equations": [[_ext("g", ident), _ext("g", cycle)]],
    }


def order_presentation() -> dict:
    """g of support {0,1}, h of support {0}, and (g, id) = (g, {0->0, 1->2})."""
    return {
        "symmetry": "total-order",
        "generators": {"elements": [{"id": "g", "support": [0, 1]}, {"id": "h", "support": [0]}]},
        "equations": [[_ext("g", {0: 0, 1: 1}), _ext("g", {0: 0, 1: 2})]],
    }


def renaming_presentation() -> dict:
    """g of support {0,1} with the swap equation, under renamings."""
    return {
        "symmetry": "renaming",
        "generators": {"elements": [{"id": "g", "support": [0, 1]}]},
        "equations": [[_ext("g", {0: 1, 1: 0}), _ext("g", {0: 0, 1: 1})]],
    }


def _pool(S, sym_name: str, n: int):
    atoms = [Fraction(i) for i in range(n)] if sym_name == "total-order" else list(range(n))
    return S.presentations.AtomPool(S.atoms.Support.of(atoms))


def _quotient_queries(S, rng: Random, family: str, P, n: int, pool):
    """Four `quot_eq` (two true, two false) and two `supp_of` at one pool."""
    sym = P.sym
    elem = lambda d: S.freenom.ext_elem_from_json(d, sym)
    ops = []
    for truth in (True, True, False, False):
        if family == "pairs":
            a, b, c = rng.sample(range(n), 3)
            lhs = _ext("g", {0: a, 1: b})
            rhs = _ext("g", {0: b, 1: a} if truth else {0: a, 1: c})
        elif family.startswith("cycle"):
            k = int(family[5:])
            xs = rng.sample(range(n), k)
            if truth:
                r = rng.randrange(1, k)
                ys = xs[r:] + xs[:r]
            else:
                i, j = rng.sample(range(k), 2)
                ys = list(xs)
                ys[i], ys[j] = ys[j], ys[i]
            assert refs.is_rotation(tuple(xs), tuple(ys)) == truth
            lhs = _ext("g", dict(enumerate(xs)))
            rhs = _ext("g", dict(enumerate(ys)))
        else:  # order: (g, a<b) and (g, a<c) share a class exactly when a does
            a, b, c = sorted(rng.sample(range(n), 3))
            if truth:
                lhs, rhs = _ext("g", {0: a, 1: b}), _ext("g", {0: a, 1: c})
            elif rng.random() < 0.5:
                lhs, rhs = _ext("g", {0: a, 1: c}), _ext("g", {0: b, 1: c})
            else:
                lhs, rhs = _ext("h", {0: a}), _ext("h", {0: b})
        e1, e2 = elem(lhs), elem(rhs)
        ops.append(Op("quot_eq", "presentations",
                      lambda c, e1=e1, e2=e2: c.presentations.quot_eq(P, e1, e2, pool),
                      lambda r, t=truth: r is t))
    for _ in range(2):
        if family == "pairs":
            atoms = rng.sample(range(n), 2)
            d, want = _ext("g", dict(enumerate(atoms))), set(atoms)
        elif family.startswith("cycle"):
            atoms = rng.sample(range(n), int(family[5:]))
            d, want = _ext("g", dict(enumerate(atoms))), set(atoms)
        elif rng.random() < 0.5:
            a, b = sorted(rng.sample(range(n), 2))
            d, want = _ext("g", {0: a, 1: b}), {a}  # the class forgets b
        else:
            a = rng.randrange(n)
            d, want = _ext("h", {0: a}), {a}
        e = elem(d)
        ops.append(Op("supp_of", "presentations",
                      lambda c, e=e: c.presentations.supp_of(P, e, pool),
                      lambda r, w=frozenset(want): set(r) == w))
    return ops


def _suppmap(SS, X, Y, f: dict):
    """A supported map built from its fields, skipping `SuppMap.of`'s
    quadratic check so that set-up stays linear; supports shrink by construction."""
    return SS.SuppMap(X, Y, tuple((x, f[x]) for x in X.elements))


def carrier_inputs(S, rng: Random, n: int) -> tuple:
    """n elements x_i with 1-3 atoms each, and f: x_i -> y_{i//2} where y's
    support is the meet of its two preimages'; 8 spare y's are never hit.
    Ids are zero-padded so that the least id of a class is its least index."""
    Sup, SS = S.atoms.Support, S.supported
    ids = [f"x{i:05d}" for i in range(n)]
    supps = [frozenset(rng.sample(range(24), rng.randint(1, 3))) for _ in range(n)]
    X = SS.SuppSet.of([(x, Sup.of(s)) for x, s in zip(ids, supps)])
    half = n // 2
    yids = [f"y{j:05d}" for j in range(half + 8)]
    ysupp = [supps[2 * j] & supps[2 * j + 1] for j in range(half)] + [frozenset()] * 8
    Y = SS.SuppSet.of([(y, Sup.of(s)) for y, s in zip(yids, ysupp)])
    fmap = {x: yids[i // 2] for i, x in enumerate(ids)}
    return ids, supps, X, yids, ysupp, Y, fmap


def _carrier_ops(S, rng: Random, n: int, kinds) -> list:
    Sup, SS, FN = S.atoms.Support, S.supported, S.freenom
    ids, supps, X, yids, ysupp, Y, fmap = carrier_inputs(S, rng, n)
    half = n // 2
    f = _suppmap(SS, X, Y, fmap)
    Z = SS.SuppSet.of([("z0", Sup.of([]))] + [(f"z{j:05d}", Sup.of(sorted(s)[:1])) for j, s in enumerate(ysupp) if j % 2])
    gmap = {y: (f"z{j:05d}" if j % 2 and j < half else "z0") for j, y in enumerate(yids)}
    g = _suppmap(SS, Y, Z, gmap)
    ops = []
    if "of" in kinds:
        ops.append(Op("carrier", "supported", lambda c: c.supported.SuppMap.of(X, Y, fmap),
                      lambda r: dict(r.mapping) == fmap and r.source is X and r.target is Y))
    if "compose" in kinds:
        want = {x: gmap[fmap[x]] for x in ids}
        ops.append(Op("carrier", "supported", lambda c: c.supported.compose_maps(g, f),
                      lambda r, want=want: dict(r.mapping) == want))
    if "coequalizer" in kinds:
        merged = sorted(rng.sample(range(half), half // 2))
        R = SS.SuppSet.of([(f"r{j:05d}", Sup.of(supps[2 * j] | supps[2 * j + 1])) for j in merged])
        p1 = _suppmap(SS, R, X, {f"r{j:05d}": ids[2 * j] for j in merged})
        p2 = _suppmap(SS, R, X, {f"r{j:05d}": ids[2 * j + 1] for j in merged})
        want = {x: s for x, s in zip(ids, supps)}
        for j in merged:
            del want[ids[2 * j + 1]]
            want[ids[2 * j]] = supps[2 * j] & supps[2 * j + 1]
        ops.append(Op("carrier", "supported", lambda c: c.supported.coequalizer(p1, p2),
                      lambda r, want=want: {x: frozenset(s) for x, s in r[0].items} == want))
    if "image" in kinds:
        want = {yids[j]: ysupp[j] for j in range(half)}  # the 8 spare y's are not hit
        ops.append(Op("carrier", "supported", lambda c: c.supported.image_factorization(f),
                      lambda r, want=want: {y: frozenset(s) for y, s in r[1].items} == want))
    if "iso" in kinds:
        perm = list(range(n))
        rng.shuffle(perm)
        truth = rng.random() < 0.5
        cids = [f"c{i:05d}" for i in range(n)]
        csupp = [supps[perm[i]] if truth or i else frozenset() for i in range(n)]
        C = SS.SuppSet.of([(x, Sup.of(s)) for x, s in zip(cids, csupp)])
        h = _suppmap(SS, X, C, {ids[perm[i]]: cids[i] for i in range(n)})
        ops.append(Op("carrier", "supported", lambda c: c.supported.is_iso(h),
                      lambda r, t=truth: r is t))
    if "extend" in kinds:
        valuation = {x: min(s) for x, s in zip(ids, supps)}
        i = rng.randrange(n)
        pi = dict(zip(sorted(supps[i]), rng.sample(range(100, 130), len(supps[i]))))
        e = FN.ext_elem_from_json(_ext(ids[i], pi), S.atoms.SymmetryId.EQUALITY)
        ops.append(Op("carrier", "freenom",
                      lambda c: c.freenom.extend(valuation, c.freenom.ATOM_CARRIER, X, e),
                      lambda r, w=pi[min(supps[i])]: r == w))
    return ops


CARRIER_KINDS = ("of", "compose", "coequalizer", "image", "iso", "extend")


def quotient(S, rng: Random, root: Path) -> Workload:
    PR = S.presentations
    with open(root / "data" / "unordered_pairs.json") as fh:
        pairs = PR.presentation_from_json(json.load(fh))
    catalogue = [("pairs", pairs, n, refs.unordered_pairs_count(n), 1) for n in range(3, 13)]
    for k, pools in ((3, (3, 4, 5)), (4, (4, 5))):
        P = PR.presentation_from_json(cycle_presentation(k))
        catalogue += [(f"cycle{k}", P, n, refs.cycle_count(n, k), 1) for n in pools]
    order = PR.presentation_from_json(order_presentation())
    catalogue += [("order", order, n, refs.order_family_count(n), 2) for n in range(4, 13)]
    largest = {("pairs", 11), ("pairs", 12), ("cycle3", 5), ("cycle4", 5), ("order", 11), ("order", 12)}
    ops = []
    for family, P, n, count, orbits in catalogue:
        pool = _pool(S, P.sym.value, n)
        for _ in range(3):
            ops += _quotient_queries(S, rng, family, P, n, pool)
        ops.append(Op("element_count", "presentations",
                      lambda c, P=P, pool=pool: c.presentations.element_count(P, pool),
                      lambda r, w=count: r == w))
        for _ in range(2 if (family, n) in largest else 1):
            ops.append(Op("orbit_count", "presentations",
                          lambda c, P=P, pool=pool: c.presentations.orbit_count(P, pool),
                          lambda r, w=orbits: r == w))
    renaming = PR.presentation_from_json(renaming_presentation())
    for n in range(3, 8):
        pool = _pool(S, "renaming", n)
        ops.append(Op("element_count", "presentations",
                      lambda c, pool=pool: c.presentations.element_count(renaming, pool),
                      lambda r, w=refs.renaming_pairs_count(n): r == w))
    for n in (500, 500, 1000, 1000):
        ops += _carrier_ops(S, rng, n, CARRIER_KINDS)
    ops += _carrier_ops(S, rng, 2000, ("of", "compose"))
    return Workload("quotient", "presentations, freenom and supported do the work; binding and automata none",
                    _shuffled(rng, ops), QUOTIENT_KINDS)


# --- terms ----------------------------------------------------------------

TERMS_KINDS = {
    "print_parse": "show_named then parse_named: the recursive printer and parser",
    "debruijn_round_trip": "to_debruijn then from_debruijn; from_debruijn rescans each body",
    "alpha_renamed": "alpha_eq_terms against a renamed copy (true): quadratic on binder chains, the tail",
    "alpha_perturbed": "alpha_eq_terms against a copy with one changed variable (false)",
    "phi_round_trip": "phi then phi_inv: the nameless-binder isomorphism",
}


def random_term(rng: Random, nodes: int, atoms: int = 12) -> tuple:
    """A flat named term of exactly `nodes` nodes; ~30% abstractions,
    binders drawn from `atoms` names so that shadowing occurs."""
    out, slots = [], [(nodes, ())]
    while slots:
        size, env = slots.pop()
        if size == 1:
            a = rng.choice(env) if env and rng.random() < 0.75 else rng.randrange(atoms)
            out.append(("V", a))
        elif size == 2 or rng.random() < 0.3:
            b = rng.randrange(atoms)
            out.append(("L", b))
            slots.append((size - 1, env + (b,)))
        else:
            left = rng.randint(1, size - 2)
            out.append(("A",))
            slots.append((size - 1 - left, env))
            slots.append((left, env))
    return tuple(out)


def binder_chain(rng: Random, binders: int) -> tuple:
    """\\vb0. ... \\vb(n-1). vb0 vb(n-1) vf: the first and last binders
    and one free atom, so every binder's scope spans the whole chain."""
    names = rng.sample(range(binders * 2), binders)
    free = binders * 2 + rng.randrange(8)
    lams = tuple(("L", b) for b in names)
    return lams + (("A",), ("A",), ("V", names[0]), ("V", names[-1]), ("V", free))


def perturb(rng: Random, flat: tuple) -> tuple:
    """Replace one variable by an atom used nowhere: bound becomes free, or a
    free atom changes, so the copy is never alpha-equivalent."""
    used = {t[1] for t in flat if len(t) > 1}
    spots = [i for i, t in enumerate(flat) if t[0] == "V"]
    i = rng.choice(spots)
    return flat[:i] + (("V", max(used) + 1),) + flat[i + 1:]


def term_ops(S, rng: Random, flat: tuple, kinds) -> list:
    B = S.binding
    term = build_named(B, flat)
    db = refs.to_debruijn(flat)
    n = len(flat)
    text = refs.show(flat)
    ops = []
    if "print_parse" in kinds:
        def call(c, term=term):
            s = c.binding.show_named(term)
            return s, c.binding.parse_named(s)
        ops.append(Op("print_parse", "binding", call,
                      lambda r, text=text: r[0] == text and lib_flat(r[1]) == flat, nodes=n))
    if "debruijn_round_trip" in kinds:
        def call(c, term=term):
            d = c.binding.to_debruijn(term)
            return d, c.binding.from_debruijn(d)
        ops.append(Op("debruijn_round_trip", "binding", call,
                      lambda r: lib_flat(r[0]) == db and refs.to_debruijn(lib_flat(r[1])) == db, nodes=n))
    if "alpha_renamed" in kinds:
        other = build_named(B, refs.rename_binders(flat, 10 ** 6))
        ops.append(Op("alpha_renamed", "binding",
                      lambda c, other=other: c.binding.alpha_eq_terms(term, other),
                      lambda r: r is True, nodes=2 * n))
    if "alpha_perturbed" in kinds:
        changed = perturb(rng, flat)
        truth = refs.alpha_equal(flat, changed)  # False by construction
        other = build_named(B, changed)
        ops.append(Op("alpha_perturbed", "binding",
                      lambda c, other=other: c.binding.alpha_eq_terms(term, other),
                      lambda r, t=truth: r is t, nodes=2 * n))
    if "phi_round_trip" in kinds:
        shifted = frozenset(a - 1 for a in refs.free_atoms(flat) if a >= 1)

        def call(c, term=term):
            cls = c.binding.phi(term)
            return c.binding.supp_abs(cls), c.binding.phi_inv(cls)
        ops.append(Op("phi_round_trip", "binding", call,
                      lambda r: set(r[0]) == shifted and refs.to_debruijn(lib_flat(r[1])) == db, nodes=n))
    return ops


ALL_TERM_KINDS = tuple(TERMS_KINDS)
COPIES = 4  # seeded instances of every size, so one odd term shape moves little


def terms(S, rng: Random, root: Path) -> Workload:
    ops = []
    for _ in range(COPIES):
        for nodes in (50, 200, 500, 1000, 2000):
            ops += term_ops(S, rng, random_term(rng, nodes), ALL_TERM_KINDS)
        for binders in (20, 40, 80, 160):
            ops += term_ops(S, rng, binder_chain(rng, binders), ALL_TERM_KINDS)
        # The deep share: chains of 400-600 binders, without the quadratic alpha.
        for binders in (400, 500, 600):
            ops += term_ops(S, rng, binder_chain(rng, binders), ("print_parse", "debruijn_round_trip"))
    return Workload("terms", "only binding and atoms run: the bypass workload for presentations and supported",
                    _shuffled(rng, ops), TERMS_KINDS)


def build_named(B, flat):
    """Library term objects from flat preorder, built bottom-up without recursion."""
    stack = []
    for tok in reversed(flat):
        if tok[0] == "V":
            stack.append(B.Var(tok[1]))
        elif tok[0] == "L":
            stack.append(B.Lam(tok[1], stack.pop()))
        else:
            fn = stack.pop()
            stack.append(B.App(fn, stack.pop()))
    return stack[0]


def lib_flat(t) -> tuple:
    """Flat preorder of a library term, named or de Bruijn."""
    out, stack = [], [t]
    while stack:
        n = stack.pop()
        name = type(n).__name__
        if name == "Var":
            out.append(("V", n.atom))
        elif name == "Idx":
            out.append(("I", n.index))
        elif name in ("App", "DbApp"):
            out.append(("A",))
            stack.append(n.arg)
            stack.append(n.fn)
        elif name == "Lam":
            out.append(("L", n.binder))
            stack.append(n.body)
        elif name == "DbLam":
            out.append(("L",))
            stack.append(n.body)
        else:
            raise TypeError(f"not a term node: {n!r}")
    return tuple(out)


# --- automata -------------------------------------------------------------

AUTOMATA_KINDS = {
    "run_long": "run on 2k-20k letters with a frontier of at most two: per-letter overhead",
    "run_wide": "run of a guess-and-store automaton whose frontier holds hundreds of configurations: successor dedup and sort",
    "reachable_orbits": "reachability plus the pairwise orbit test",
    "validate": "the structural checks, once per automaton",
}


def guess_store_automaton() -> dict:
    """Accepts words with positions i<j<k<l, w_i != w_j, w_k = w_i, w_l = w_j.

    It guesses i and j, storing both letters, so after reading d distinct
    atoms the frontier holds about d*(d-1) configurations.  Storing a
    letter equal to the first makes a non-injective valuation, which the
    semantics drops: that is the path `automata.successor_keep_ratio` sees.
    """
    def t(src, tgt, assign, guard=()):
        return {"from": src, "to": tgt, "assign": assign, "guard": [list(g) for g in guard]}

    r0, r1 = {"reg": 0}, {"reg": 1}
    return {
        "symmetry": "equality",
        "locations": {"elements": [
            {"id": "s0", "support": []}, {"id": "s1", "support": [0]},
            {"id": "s2", "support": [0, 1]}, {"id": "s3", "support": [1]},
            {"id": "acc", "support": []},
        ]},
        "initial": "s0",
        "final": ["acc"],
        "transitions": [
            t("s0", "s0", {}),
            t("s0", "s1", {"0": "input"}),
            t("s1", "s1", {"0": r0}),
            t("s1", "s2", {"0": r0, "1": "input"}),  # input == r0 is dropped as inadmissible
            t("s2", "s2", {"0": r0, "1": r1}),
            t("s2", "s3", {"1": r1}, [(True, "eq", ["input", r0])]),
            t("s3", "s3", {"1": r1}),
            t("s3", "acc", {}, [(True, "eq", ["input", r1])]),
            t("acc", "acc", {}),
        ],
    }


def _midpoint(rng: Random, n: int) -> int:
    """Where an accepted word's witness goes: near the middle, so that the
    frontier's size after it, and with it the cost, hardly depends on the seed."""
    return n // 2 + rng.randrange(max(1, n // 100))


def repeat_word(rng: Random, n: int, accept: bool) -> list:
    first = rng.randrange(1, 10 ** 6)
    word = [first] + rng.sample(range(10 ** 6 + 1, 10 ** 7), n - 1)
    if accept:
        word[_midpoint(rng, n)] = first
    return word


def ascent_word(rng: Random, n: int, accept: bool) -> list:
    first = Fraction(rng.randrange(10 ** 5, 10 ** 6), rng.randrange(50, 97))
    word = [first] + [first - Fraction(rng.randrange(10 ** 5, 10 ** 6), rng.randrange(50, 97)) for _ in range(n - 1)]
    if accept:
        word[_midpoint(rng, n)] = first + Fraction(1, rng.randrange(50, 97))
    return word


def abab_word(rng: Random, n: int, distinct: int, accept: bool) -> list:
    """Random letters (which contain an a..b..a..b pattern) or, to reject,
    runs of letters in nested order, which never do."""
    atoms = rng.sample(range(1000), distinct)
    if accept:
        return [rng.choice(atoms) for _ in range(n)]
    # a nested sequence such as a b c c b a, each letter in a run of
    # near-equal length
    seq = atoms + atoms[::-1]
    lengths = [n // len(seq)] * len(seq)
    for i in rng.sample(range(len(seq)), n % len(seq)):
        lengths[i] += 1
    return [a for a, k in zip(seq, lengths) for _ in range(k)]


def automata(S, rng: Random, root: Path) -> Workload:
    RA = S.automata
    specs = {}
    for name in ("first_repeat", "ascent_after_first"):
        with open(root / "data" / f"{name}.json") as fh:
            specs[name] = json.load(fh)
    specs["guess_store"] = guess_store_automaton()
    autos = {k: RA.automaton_from_json(v) for k, v in specs.items()}
    ops = []
    # Twenty 2k-letter words give the median a dense class of similar ops.
    for accept in (True, False) * 10:
        word = repeat_word(rng, 2000, accept)
        ops.append(Op("run_long", "automata", lambda c, w=word: c.automata.run(autos["first_repeat"], w),
                      lambda r, t=refs.first_repeats(word): r is t, letters=2000))
    for n in (2000, 5000, 10000, 20000):
        for name, make, pred in (("first_repeat", repeat_word, refs.first_repeats),
                                 ("ascent_after_first", ascent_word, refs.ascends_after_first)):
            for accept in (True, False):
                word = make(rng, n, accept)
                ops.append(Op("run_long", "automata", lambda c, ra=autos[name], w=word: c.automata.run(ra, w),
                              lambda r, t=pred(word): r is t, letters=n))
    for n, distinct in ((40, 8), (60, 12), (80, 16), (100, 20)):
        for accept in (True, False) * 2:
            word = abab_word(rng, n, distinct, accept)
            ops.append(Op("run_wide", "automata", lambda c, w=word: c.automata.run(autos["guess_store"], w),
                          lambda r, t=refs.has_abab(word): r is t, letters=n))
    for name, pools, depths in (("first_repeat", (6, 8, 10), (3, 4)), ("ascent_after_first", (6, 8, 10), (3,)),
                                ("guess_store", (6, 7, 8), (3, 4))):
        rational = specs[name]["symmetry"] == "total-order"
        for n in pools:
            for depth in depths:
                atoms = [Fraction(i) for i in range(n)] if rational else list(range(n))
                want = refs.reachable(specs[name], atoms, depth)
                per_loc = refs.orbit_summary(specs[name], want)
                pool = S.atoms.Support.of(atoms)
                ops.append(Op("reachable_orbits", "automata",
                              lambda c, ra=autos[name], pool=pool, d=depth: c.automata.reachable_orbits(ra, pool, d),
                              lambda r, w=per_loc, k=len(want): r.per_location == w and r.configs_seen == k))
    for ra in autos.values():
        ops.append(Op("validate", "automata", lambda c, ra=ra: c.automata.validate(ra), lambda r: r.ok))
    return Workload("automata", "the same layer two ways: long words with a tiny frontier, and a wide frontier",
                    _shuffled(rng, ops), AUTOMATA_KINDS)


# --- cli ------------------------------------------------------------------

CLI_KINDS = {
    "readme": "every README command, in text and --format json: the import floor and argparse dominate",
    "run_file": "run on a generated 2k-letter word file",
    "quot_pool8": "quot count / quot orbits at pool 8: one-shot presentations use, so a cache must not cost here",
    "lambda_100": "lambda to-db / from-db / alpha-eq on ~100-node terms",
    "selfcheck": "selfcheck --budget 1, the slowest README command",
}


def _cli_op(kind: str, argv: list, check) -> Op:
    return Op(kind, "cli", lambda c, a=tuple(argv): c.run_cli(list(a)), check)


def _expect(code: int, text=None, json_check=None):
    """Exit code, no traceback, and either exact text or a JSON predicate."""
    def check(res):
        rc, out, err = res
        if rc != code or "Traceback" in err:
            return False
        if json_check is not None:
            try:
                return bool(json_check(json.loads(out)))
            except (ValueError, KeyError, TypeError):
                return False
        return text is None or out.rstrip("\n") == text
    return check


def _readme_ops(data: Path) -> list:
    fr, pairs = str(data / "first_repeat.json"), str(data / "unordered_pairs.json")
    rep, norep = str(data / "word_repeat.txt"), str(data / "word_norepeat.txt")
    spec = json.loads((data / "first_repeat.json").read_text())
    configs = refs.reachable(spec, list(range(3)), 3)
    per_loc = refs.orbit_summary(spec, configs)
    total = sum(k for _, k in per_loc)
    orbits_text = ", ".join(f"{q}: {k}" for q, k in per_loc) + f" (total {total}, {len(configs)} configurations)"
    e1 = '{"pi": {"0": 0, "1": 1}, "base": "g"}'
    e2 = '{"pi": {"0": 1, "1": 0}, "base": "g"}'
    e3 = '{"pi": {"0": 4, "1": 7}, "base": "g"}'
    cases = [
        (["validate", fr], 0, "ok", lambda j: j["ok"] is True),
        (["run", fr, rep], 0, "accept", lambda j: j["accept"] is True),
        (["run", fr, norep], 1, "reject", lambda j: j["accept"] is False),
        (["orbits", fr, "--depth", "3", "--pool", "3"], 0, orbits_text,
         lambda j: j["total"] == total and j["configurations"] == len(configs)),
        (["lambda", "to-db", "\\v0. v0 v5"], 0, "\\ #0 #6",
         lambda j: refs.from_json(j["term"], named=False) == refs.parse("\\ #0 #6", named=False)),
        (["lambda", "from-db", "\\ #0 #6"], 0, "\\v0. v0 v5",
         lambda j: refs.from_json(j["term"]) == refs.parse("\\v0. v0 v5")),
        (["lambda", "alpha-eq", "\\v0. v0 v2", "\\v1. v1 v2"], 0, "alpha-equivalent",
         lambda j: j["alpha_equivalent"] is True),
        (["quot", "count", pairs, "--pool", "3"], 0, "3", lambda j: j["count"] == 3),
        (["quot", "orbits", pairs, "--pool", "3"], 0, "1", lambda j: j["orbits"] == 1),
        (["quot", "eq", pairs, e1, e2], 0, "equal", lambda j: j["equal"] is True),
        (["quot", "supp", pairs, e3], 0, "4 7", lambda j: j["support"] == [4, 7]),
    ]
    ops = []
    for argv, code, text, jcheck in cases:
        ops.append(_cli_op("readme", argv, _expect(code, text)))
        ops.append(_cli_op("readme", argv + ["--format", "json"], _expect(code, json_check=jcheck)))
    ops.append(_cli_op("selfcheck", SELFCHECK, _selfcheck_passes(0)))
    ops.append(_cli_op("selfcheck", SELFCHECK + ["--format", "json"],
                       _expect(0, json_check=lambda j: j["ok"] is True and j["budget"] == 1)))
    return ops


SELFCHECK = ["selfcheck", "--seed", "0", "--budget", "1"]  # as the README has it


def _selfcheck_passes(seed: int):
    last = f"selfcheck: PASS (seed={seed}, budget=1)"
    return lambda r: r[0] == 0 and r[1].rstrip("\n").endswith(last) and "Traceback" not in r[2]


def _lambda_ops(rng: Random) -> list:
    """to-db (text), from-db (json), and alpha-eq against a renamed (text)
    and a perturbed (json) copy, on one ~100-node term."""
    t = random_term(rng, 101)
    db = refs.to_debruijn(t)
    json_fmt = ["--format", "json"]
    return [
        _cli_op("lambda_100", ["lambda", "to-db", refs.show(t)], _expect(0, refs.show(db))),
        _cli_op("lambda_100", ["lambda", "from-db", refs.show(db)] + json_fmt,
                _expect(0, json_check=lambda j: refs.to_debruijn(refs.from_json(j["term"])) == db)),
        _cli_op("lambda_100", ["lambda", "alpha-eq", refs.show(t), refs.show(refs.rename_binders(t, 500))],
                _expect(0, "alpha-equivalent")),
        _cli_op("lambda_100", ["lambda", "alpha-eq", refs.show(t), refs.show(perturb(rng, t))] + json_fmt,
                _expect(1, json_check=lambda j: j["alpha_equivalent"] is False)),
    ]


def cli_inputs(rng: Random, root: Path, work: Path) -> list:
    """Write the generated files into `work` and return the op deck."""
    data = root / "data"
    ops = _readme_ops(data)
    fr = str(data / "first_repeat.json")
    json_fmt = ["--format", "json"]
    for i, (accept, fmt) in enumerate([(True, []), (False, json_fmt), (False, []), (True, json_fmt)]):
        word = repeat_word(rng, 2000, accept)
        path = work / f"word{i}.txt"
        path.write_text("\n".join(map(str, word)) + "\n")
        code = 0 if refs.first_repeats(word) else 1
        check = (_expect(code, json_check=lambda j, t=not code: j["accept"] is t) if fmt
                 else _expect(code, "accept" if code == 0 else "reject"))
        ops.append(_cli_op("run_file", ["run", fr, str(path)] + fmt, check))
    pairs = str(data / "unordered_pairs.json")
    count = refs.unordered_pairs_count(8)
    ops += [
        _cli_op("quot_pool8", ["quot", "count", pairs, "--pool", "8"], _expect(0, str(count))),
        _cli_op("quot_pool8", ["quot", "count", pairs, "--pool", "8"] + json_fmt,
                _expect(0, json_check=lambda j: j["count"] == count and j["pool_size"] == 8)),
        _cli_op("quot_pool8", ["quot", "orbits", pairs, "--pool", "8"], _expect(0, "1")),
        _cli_op("quot_pool8", ["quot", "orbits", pairs, "--pool", "8"] + json_fmt,
                _expect(0, json_check=lambda j: j["orbits"] == 1 and j["pool_size"] == 8)),
    ]
    for _ in range(2):
        ops += _lambda_ops(rng)
    return ops


def cli(S, rng: Random, root: Path, work: Path) -> Workload:
    ops = _shuffled(rng, cli_inputs(rng, root, work))
    return Workload("cli", "each op is a fresh process doing one small query", ops, CLI_KINDS)


# --- known defects --------------------------------------------------------

DEFECT_KINDS = {
    "deep_parse": "parse_named on 400-600 nested parentheses (RecursionError at the seed)",
    "deep_chain": "to_debruijn and alpha_eq_terms on a 600-binder chain",
    "contract": "CLI inputs that break the README exit-code contract at the seed",
    "selfcheck_seed51": "selfcheck --seed 51 --budget 1: a total-order quot_eq verdict changes as the pool grows",
}


def nested_parens(depth: int) -> tuple:
    """(v0 (v1 (v2 ... ))): each level nests an application one paren deeper."""
    flat = []
    for i in range(depth):
        flat += [("A",), ("V", i)]
    return tuple(flat) + (("V", depth),)


def defects(S, rng: Random, root: Path, work: Path) -> Workload:
    ops = []
    for depth in (400, 500, 600):
        flat = nested_parens(depth)
        text = refs.show(flat)
        ops.append(Op("deep_parse", "binding", lambda c, s=text: c.binding.parse_named(s),
                      lambda r, f=flat: lib_flat(r) == f, nodes=len(flat)))
    chain = binder_chain(rng, 600)
    ops += term_ops(S, rng, chain, ("debruijn_round_trip", "alpha_perturbed"))
    for op in ops[-2:]:
        op.kind = "deep_chain"
    bad = work / "bad_schema.json"
    bad.write_text(json.dumps({"symmetry": "equality", "locations": {"elements": 5}, "initial": "q0",
                               "final": [], "transitions": []}))
    data = root / "data"
    contract = lambda res: res[0] == 2 and "Traceback" not in res[2]
    ops.append(_cli_op("contract", ["validate", str(bad)], contract))
    ops.append(_cli_op("contract", ["quot", "count", str(data / "unordered_pairs.json"), "--pool", "-3"], contract))
    ops.append(_cli_op("contract", ["orbits", str(data / "first_repeat.json"), "--depth", "-1"], contract))
    ops.append(_cli_op("contract", ["selfcheck", "--budget", "-1"], contract))
    deep = nested_parens(600)
    ops.append(_cli_op("contract", ["lambda", "to-db", refs.show(deep)], _expect(0, refs.show(refs.to_debruijn(deep)))))
    ops.append(_cli_op("selfcheck_seed51", ["selfcheck", "--seed", "51", "--budget", "1"], _selfcheck_passes(51)))
    return Workload("defects", "the known defects: deep terms and contract inputs, once each",
                    ops, DEFECT_KINDS, passes=1)


def build(name: str, S, seed: int, root: Path, work: Path) -> Workload:
    """The workload `name` for `seed`; `S` maps layer names to modules."""
    rng = Random(f"perfbench:{name}:{seed}")
    if name in ("cli", "defects"):
        return globals()[name](S, rng, root, work)
    return globals()[name](S, rng, root)


WORKLOADS = ("quotient", "terms", "automata", "cli", "defects")
