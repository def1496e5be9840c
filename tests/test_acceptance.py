"""Acceptance suite.

Each test covers one numbered criterion, prints a single PASS/FAIL line,
and asserts zero failures.  Expected values come from independent oracles
computed inside the test, never from the code paths under test.
"""

import itertools
from fractions import Fraction
from random import Random

from suppsets.atoms import (
    FiniteMap,
    Support,
    SymmetryId,
    apply,
    fresh,
    lock_free_witness,
    pool_atoms,
)
from suppsets.automata import (
    PfSubsets,
    determinize_generic,
    initial_config,
    reachable_orbits,
    run,
    step,
)
from suppsets.binding import (
    AbsClass,
    alpha_eq,
    alpha_eq_terms,
    free_atoms,
    phi,
    phi_inv,
    show_named,
    supp_abs,
    to_debruijn,
)
from suppsets.checks import (
    alpha_bruteforce,
    alpha_fresh_swap,
    ascent_automaton,
    first_repeat_automaton,
    nfa_simulate,
    random_admissible,
    random_ext_elem,
    random_global,
    random_nfa,
    random_suppset,
    random_term,
)
from suppsets.freenom import (
    ExtElem,
    RestrictedMap,
    act,
    ext_enumerate,
    ext_support,
    identity_restriction,
    mult,
    unit,
)
from suppsets.presentations import (
    AtomPool,
    FinPresentation,
    quot_eq,
    quot_eq_fixpoint,
    element_count,
    orbit_count,
)
from suppsets.supported import (
    SuppMap,
    SuppSet,
    b_support,
    check_supported_map,
    classify_regular_subobject,
    coequalizer,
    compose_maps,
    is_iso,
    unit_set,
)

EQ = SymmetryId.EQUALITY
ORD = SymmetryId.TOTAL_ORDER
RN = SymmetryId.RENAMING


def report(n: int, label: str, failures: list, checks: int):
    status = "PASS" if not failures else "FAIL"
    print(f"[criterion {n}] {status}: {label} ({checks} checks, {len(failures)} failures)")
    assert not failures, failures[:5]


def test_criterion_1_monad_laws():
    failures = []
    checks = 0
    for sym in (EQ, ORD, RN):
        rng = Random(f"monad:{sym.value}")
        pool = pool_atoms(sym, 6)
        for _ in range(1000):
            X = random_suppset(rng, sym, pool, max_elems=5, max_supp=3)
            e = random_ext_elem(rng, sym, X, pool)
            supp = ext_support(e)
            # left unit: collapsing the identity reassignment changes nothing
            if mult(identity_restriction(sym, supp), e) != e:
                failures.append(f"left unit: {sym.value} {e}")
            # right unit: collapsing onto a unit installs the outer map
            x = e.base
            outer = RestrictedMap(sym, random_admissible(rng, sym, X.support(x), pool))
            if mult(outer, unit(sym, X, x)) != ExtElem(outer, x):
                failures.append(f"right unit: {sym.value} {x!r}")
            # associativity of collapsing
            o2 = RestrictedMap(sym, random_admissible(rng, sym, supp, pool))
            o1 = RestrictedMap(sym, random_admissible(rng, sym, o2.image, pool))
            composed = RestrictedMap(
                sym, FiniteMap.of({a: o1(b) for a, b in o2.images.items()})
            )
            if mult(o1, mult(o2, e)) != mult(composed, e):
                failures.append(f"associativity: {sym.value} {e}")
            checks += 3
    report(1, "monad laws, 1000 draws per symmetry, exact equality", failures, checks)


def test_criterion_2_unordered_pairs():
    failures = []
    checks = 0
    gens = SuppSet.of({"g": Support.of([0, 1])})
    swap_eq = (
        ExtElem(RestrictedMap(EQ, FiniteMap.of({0: 1, 1: 0})), "g"),
        ExtElem(RestrictedMap(EQ, FiniteMap.of({0: 0, 1: 1})), "g"),
    )
    P = FinPresentation(EQ, gens, (swap_eq,))

    small = AtomPool(Support.of([0, 1, 2]))
    elems = ext_enumerate(EQ, gens, small.atoms)
    if len(elems) != 6:
        failures.append(f"enumeration gave {len(elems)} elements, wanted 6")
    if element_count(P, small) != 3:
        failures.append(f"element count {element_count(P, small)}, wanted 3")
    if orbit_count(P, small) != 1:
        failures.append(f"orbit count {orbit_count(P, small)}, wanted 1")
    checks += 3

    five = AtomPool(Support.of([0, 1, 2, 3, 4]))
    six = AtomPool(Support.of([0, 1, 2, 3, 4, 5]))
    for e1 in elems:
        for e2 in elems:
            uf = quot_eq(P, e1, e2, five)
            fx = quot_eq_fixpoint(P, e1, e2, five)
            grown = quot_eq(P, e1, e2, six)
            checks += 3
            if uf != fx:
                failures.append(f"closure engines disagree on {e1} ~ {e2}")
            if uf != grown:
                failures.append(f"verdict changed under pool growth on {e1} ~ {e2}")
            want = (e1.pi.image == e2.pi.image)  # same two-element set of atoms
            if uf != want:
                failures.append(f"{e1} ~ {e2} decided {uf}, wanted {want}")
    report(2, "unordered pairs: counts, 36 oracle pairs, pool stability", failures, checks)


def test_criterion_3_phi_correctness():
    rng = Random("phi")
    failures = []
    checks = 0
    for _ in range(500):
        x = random_term(rng, rng.randint(1, 6), 5)
        a = phi(x)
        checks += 3
        if supp_abs(a) != b_support(free_atoms(x)):
            failures.append(f"support reflection broken at {show_named(x)}")
        if not alpha_eq_terms(phi_inv(a), x):
            failures.append(f"phi_inv . phi body not alpha-equal at {show_named(x)}")
        cls = AbsClass(rng.randrange(5), random_term(rng, rng.randint(1, 6), 5))
        if not alpha_eq(phi(phi_inv(cls)), cls):
            failures.append(f"phi . phi_inv broken at binder {cls.binder}")
    report(3, "phi: support reflection and both round trips, 500 draws", failures, checks)


def _alpha_variant(rng: Random, t):
    """An alpha-equal term with renamed binders: fix the free atoms, move
    the rest by a random permutation over a widened atom range."""
    free = set(free_atoms(t))
    movable = [a for a in range(8) if a not in free]
    shuffled = movable[:]
    rng.shuffle(shuffled)
    from suppsets.atoms import finite_perm
    from suppsets.binding import act_term

    return act_term(finite_perm(EQ, dict(zip(movable, shuffled))), t)


def test_criterion_4_alpha_triple_agreement():
    rng = Random("alpha")
    failures = []
    checks = 0
    for i in range(500):
        t1 = random_term(rng, rng.randint(1, 5), 5)
        if i % 2:
            t2 = _alpha_variant(rng, t1)
        else:
            t2 = random_term(rng, rng.randint(1, 5), 5)
        via_db = to_debruijn(t1) == to_debruijn(t2)
        via_fresh = alpha_fresh_swap(t1, t2)
        via_bf = alpha_bruteforce(t1, t2, extra=2)
        production = alpha_eq_terms(t1, t2)
        checks += 1
        if not (via_db == via_fresh == via_bf == production):
            failures.append(
                f"{show_named(t1)} vs {show_named(t2)}: "
                f"db={via_db} fresh={via_fresh} brute={via_bf} production={production}"
            )
    report(4, "alpha equivalence: three deciders and alpha_eq_terms agree on 500 pairs", failures, checks)


def test_criterion_5_first_repeat_semantics():
    ra = first_repeat_automaton()
    pool = tuple(range(4))
    failures = []
    checks = 0
    for length in (1, 2, 3, 4):
        for word in itertools.product(pool, repeat=length):
            want = any(a == word[0] for a in word[1:])
            checks += 1
            if run(ra, list(word)) != want:
                failures.append(f"run({list(word)}) != {want}")
    if checks != 340:
        failures.append(f"enumerated {checks} words, wanted 340")
    rng = Random("first-repeat")
    for _ in range(100):
        g = random_global(rng, EQ, pool_atoms(EQ, 7))
        word = [rng.randrange(7) for _ in range(rng.randint(0, 4))]
        checks += 1
        if run(ra, word) != run(ra, [apply(g, a) for a in word]):
            failures.append(f"equivariance broken on {word}")
    report(5, "first-repeat: 340 words exactly + 100 permuted runs", failures, checks)


def test_criterion_6_generic_determinization():
    rng = Random("subset")
    failures = []
    checks = 0
    for _ in range(50):
        nfa = random_nfa(rng, max_states=4, letters="ab")
        det = determinize_generic(PfSubsets, nfa)
        for length in range(7):
            for word in itertools.product(nfa.alphabet, repeat=length):
                checks += 1
                if det.accepts(word) != nfa_simulate(nfa, word):
                    failures.append(f"language mismatch on {''.join(word)!r}")
        for q in nfa.states:
            checks += 1
            if det.observe(frozenset([q])) != nfa.coalg(q):
                failures.append(f"d({{{q}}}) != c({q})")
    report(6, "generic subset construction vs direct simulation, 50 NFAs", failures, checks)


def _random_parallel_pair(rng: Random, pool):
    X = random_suppset(rng, EQ, pool, max_elems=6, max_supp=3)
    r_ids = [f"r{i}" for i in range(rng.randint(1, 4))]
    f_raw = {r: rng.choice(X.elements) for r in r_ids}
    g_raw = {r: rng.choice(X.elements) for r in r_ids}
    R = SuppSet.of(
        [(r, X.support(f_raw[r]).union(X.support(g_raw[r]))) for r in r_ids]
    )
    return SuppMap.of(R, X, f_raw), SuppMap.of(R, X, g_raw), X


def test_criterion_7_category_laws():
    rng = Random("category")
    pool = pool_atoms(EQ, 6)
    failures = []
    checks = 0
    for _ in range(200):
        f, g, X = _random_parallel_pair(rng, pool)
        Q, epi = coequalizer(f, g)
        for y in Q.elements:
            fibre = [x for x in X.elements if epi(x) == y]
            expect = X.support(fibre[0])
            for m in fibre[1:]:
                expect = expect.intersect(X.support(m))
            checks += 1
            if Q.support(y) != expect:
                failures.append(f"class {y!r}: {tuple(Q.support(y))} != {tuple(expect)}")

    def all_suppmaps(Xs, Ys):
        for choice in itertools.product(Ys.elements, repeat=len(Xs)):
            m = check_supported_map(dict(zip(Xs.elements, choice)), Xs, Ys)
            if isinstance(m, SuppMap):
                yield m

    for _ in range(40):
        A_ = random_suppset(rng, EQ, pool_atoms(EQ, 3), max_elems=3, max_supp=2)
        B_ = random_suppset(rng, EQ, pool_atoms(EQ, 3), max_elems=3, max_supp=2, prefix="f")
        for f in all_suppmaps(A_, B_):
            has_inverse = any(
                all(ginv(f(x)) == x for x in A_.elements)
                and all(f(ginv(y)) == y for y in B_.elements)
                for ginv in all_suppmaps(B_, A_)
            )
            checks += 1
            if is_iso(f) != has_inverse:
                failures.append(f"is_iso mismatch on {f.mapping}")

    for _ in range(100):
        X = random_suppset(rng, EQ, pool, max_elems=4, max_supp=3)
        chosen = [x for x in X.elements if rng.random() < 0.5]
        S = SuppSet.of([(x, X.support(x)) for x in chosen])
        m = SuppMap.of(S, X, {x: x for x in chosen})
        chi = classify_regular_subobject(m)
        pullback = SuppSet.of([(x, X.support(x)) for x in X.elements if chi(x) == 1])
        checks += 1
        if not is_iso(SuppMap.of(S, pullback, {x: x for x in chosen})):
            failures.append(f"pullback carrier mismatch for subset {chosen!r}")
        for x in X.elements:
            if chi(x) != 1:
                continue
            cone = unit_set(X.support(x))
            d = SuppMap.of(cone, X, {0: x})
            u = check_supported_map({0: x}, cone, S)
            checks += 1
            if not isinstance(u, SuppMap) or compose_maps(m, u).mapping != d.mapping:
                failures.append(f"cone through {x!r} does not factor")
    report(7, "coequalizer supports, iso iff inverse, classifier pullbacks", failures, checks)


def test_criterion_8_lock_free_witnesses():
    failures = []
    checks = 0
    for sym in (EQ, ORD, RN):
        rng = Random(f"lockfree:{sym.value}")
        pool = pool_atoms(sym, 10)
        for _ in range(200):
            fixed = Support.of(rng.sample(tuple(pool), rng.randint(0, 6)))
            a = fresh(sym, fixed)
            if sym is ORD and rng.random() < 0.5 and len(fixed) >= 2:
                # also exercise interior atoms, not just fresh ones
                lo, hi = sorted(rng.sample(tuple(fixed), 2))[:2]
                a = lo + (hi - lo) * Fraction(1, 3)
                if a in fixed:
                    a = fresh(sym, fixed)
            w = lock_free_witness(sym, fixed, a)
            checks += 1
            if not all(apply(w, r) == r for r in fixed) or apply(w, a) == a:
                failures.append(f"witness law broken: {sym.value} {tuple(fixed)} {a}")
            if sym is ORD:
                if len(fixed):
                    b = a + Fraction(1, 2) * min(abs(a - x) for x in fixed)
                else:
                    b = a + 1
                checks += 1
                if apply(w, a) != b:
                    failures.append(
                        f"midpoint rule broken: {tuple(fixed)} {a} -> {apply(w, a)} != {b}"
                    )
    report(8, "lock-free witnesses, 200 draws per symmetry", failures, checks)


def test_criterion_9_configuration_equivariance():
    failures = []
    checks = 0
    cases = (
        (first_repeat_automaton(), EQ, "first-repeat"),
        (ascent_automaton(), ORD, "ascent"),
    )
    for ra, sym, name in cases:
        rng = Random(f"equivariance:{name}")
        pool = pool_atoms(sym, 6)
        atoms = tuple(pool)
        reach = [initial_config(ra)]
        for c in list(reach):
            for a in atoms[:3]:
                reach.extend(step(ra, c, a))
        for _ in range(100):
            g = random_global(rng, sym, pool)
            c = rng.choice(reach)
            a = rng.choice(atoms)
            lhs = step(ra, act(g, c), apply(g, a))
            rhs = tuple(sorted(
                (act(g, s) for s in step(ra, c, a)),
                key=lambda s: (str(s.base), s.pi.images.entries),
            ))
            checks += 1
            if lhs != rhs:
                failures.append(f"{name}: step not equivariant at {c} input {a}")
        small = reachable_orbits(ra, pool_atoms(sym, 3), 3)
        big = reachable_orbits(ra, pool_atoms(sym, 4), 3)
        checks += 1
        if small.as_dict() != big.as_dict():
            failures.append(f"{name}: orbit counts changed under pool growth")
    report(9, "configuration automata: 100 group elements each + orbit stability",
           failures, checks)
