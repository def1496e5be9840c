"""Randomized self-check suites over all modules.

Each suite draws instances from a seeded generator, checks the module's
algebraic properties against independent recomputations, and reports
counterexamples verbatim.  `run_all` drives every suite at a trial budget;
budget 0 produces an empty report.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from random import Random

from . import atoms as A
from . import automata as RA
from . import binding as B
from . import freenom as FN
from . import presentations as PR
from . import supported as SS

SYMS = (A.SymmetryId.EQUALITY, A.SymmetryId.TOTAL_ORDER, A.SymmetryId.RENAMING)


# --- generators ---

def random_support(rng: Random, sym, pool: A.Support, max_size: int) -> A.Support:
    k = rng.randint(0, min(max_size, len(pool)))
    return A.Support.of(rng.sample(tuple(pool), k))


def random_admissible(rng: Random, sym, domain: A.Support, pool: A.Support) -> A.FiniteMap:
    src = tuple(domain)
    atoms = tuple(pool)
    if sym is A.SymmetryId.EQUALITY:
        tgt = rng.sample(atoms, len(src))
    elif sym is A.SymmetryId.TOTAL_ORDER:
        tgt = sorted(rng.sample(atoms, len(src)))
    else:
        tgt = [rng.choice(atoms) for _ in src]
    return A.FiniteMap.of(zip(src, tgt))


def random_global(rng: Random, sym, pool: A.Support) -> A.GlobalMap:
    dom = random_support(rng, sym, pool, len(pool))
    return A.extend_to_global(sym, random_admissible(rng, sym, dom, pool))


def random_suppset(rng: Random, sym, pool: A.Support, max_elems: int = 5,
                   max_supp: int = 3, prefix: str = "e") -> SS.SuppSet:
    n = rng.randint(1, max_elems)
    return SS.SuppSet.of(
        [(f"{prefix}{i}", random_support(rng, sym, pool, max_supp)) for i in range(n)]
    )


def random_ext_elem(rng: Random, sym, X: SS.SuppSet, pool: A.Support) -> FN.ExtElem:
    x = rng.choice(X.elements)
    m = random_admissible(rng, sym, X.support(x), pool)
    return FN.ExtElem(FN.RestrictedMap(sym, m), x)


def random_term(rng: Random, depth: int, n_atoms: int = 5):
    if depth <= 0 or rng.random() < 0.3:
        return B.Var(rng.randrange(n_atoms))
    if rng.random() < 0.5:
        return B.App(random_term(rng, depth - 1, n_atoms), random_term(rng, depth - 1, n_atoms))
    return B.Lam(rng.randrange(n_atoms), random_term(rng, depth - 1, n_atoms))


def random_nfa(rng: Random, max_states: int = 4, letters: str = "ab") -> RA.Nfa:
    n = rng.randint(1, max_states)
    states = tuple(range(n))
    delta = {}
    for q in states:
        for a in letters:
            k = rng.randint(0, n)
            delta[(q, a)] = frozenset(rng.sample(states, k))
    final = frozenset(q for q in states if rng.random() < 0.4)
    return RA.Nfa(states, tuple(letters), rng.choice(states), final, delta)


def nfa_simulate(nfa: RA.Nfa, word) -> bool:
    """Direct forward simulation; the oracle for the generic determinizer."""
    current = {nfa.initial}
    for a in word:
        current = set().union(*(nfa.delta.get((q, a), frozenset()) for q in current))
    return bool(current & nfa.final)


def alpha_fresh_swap(t1, t2) -> bool:
    """Alpha equivalence via one fresh witness per binder pair (oracle)."""
    match (t1, t2):
        case (B.Var(a), B.Var(b)):
            return a == b
        case (B.App(f1, x1), B.App(f2, x2)):
            return alpha_fresh_swap(f1, f2) and alpha_fresh_swap(x1, x2)
        case (B.Lam(a, x), B.Lam(b, y)):
            avoid = A.Support.of([a, b]).union(B.free_atoms(x)).union(B.free_atoms(y))
            eq = A.SymmetryId.EQUALITY
            c = A.fresh(eq, avoid)
            return alpha_fresh_swap(
                B.act_term(A.transposition(eq, c, a), x),
                B.act_term(A.transposition(eq, c, b), y),
            )
    return False


def alpha_bruteforce(t1, t2, extra: int = 2) -> bool:
    """Alpha equivalence by searching every sufficiently fresh swap witness."""
    match (t1, t2):
        case (B.Var(a), B.Var(b)):
            return a == b
        case (B.App(f1, x1), B.App(f2, x2)):
            return alpha_bruteforce(f1, f2, extra) and alpha_bruteforce(x1, x2, extra)
        case (B.Lam(a, x), B.Lam(b, y)):
            supports = B.free_atoms(x).union(B.free_atoms(y))
            size = len(supports) + extra
            pool = []
            avoid = supports.union(A.Support.of([a, b]))
            n = 0
            while len(pool) < size:
                if n not in avoid:
                    pool.append(n)
                n += 1
            eq = A.SymmetryId.EQUALITY
            return any(
                alpha_bruteforce(
                    B.act_term(A.transposition(eq, c, a), x),
                    B.act_term(A.transposition(eq, c, b), y),
                    extra,
                )
                for c in pool
            )
    return False


def random_presentation(rng: Random, sym, pool: A.Support) -> PR.FinPresentation:
    gens = random_suppset(rng, sym, pool, max_elems=2, max_supp=2, prefix="g")
    eqs = []
    for _ in range(rng.randint(0, 2)):
        x = rng.choice(gens.elements)
        lhs = FN.ExtElem(FN.RestrictedMap(sym, random_admissible(rng, sym, gens.support(x), pool)), x)
        rhs = FN.ExtElem(FN.RestrictedMap(sym, random_admissible(rng, sym, gens.support(x), pool)), x)
        eqs.append((lhs, rhs))
    return PR.FinPresentation(sym, gens, tuple(eqs))


# --- reporting ---

@dataclass
class SuiteResult:
    name: str
    trials: int = 0
    failures: list = field(default_factory=list)

    def check(self, ok: bool, detail: str):
        self.trials += 1
        if not ok:
            self.failures.append(detail)


@dataclass
class Report:
    seed: int
    budget: int
    suites: list

    @property
    def ok(self) -> bool:
        return all(not s.failures for s in self.suites)

    def to_text(self) -> str:
        lines = []
        for s in self.suites:
            status = "ok" if not s.failures else f"{len(s.failures)} FAILURES"
            lines.append(f"{s.name}: {s.trials} checks, {status}")
            lines.extend(f"  counterexample: {f}" for f in s.failures)
        lines.append(f"selfcheck: {'PASS' if self.ok else 'FAIL'} (seed={self.seed}, budget={self.budget})")
        return "\n".join(lines)

    def to_json(self) -> dict:
        return {
            "seed": self.seed,
            "budget": self.budget,
            "ok": self.ok,
            "suites": [
                {"name": s.name, "checks": s.trials, "failures": s.failures}
                for s in self.suites
            ],
        }


# --- suites ---

def suite_atoms(rng: Random, n: int) -> SuiteResult:
    res = SuiteResult("atoms")
    for _ in range(n):
        for sym in SYMS:
            pool = A.pool_atoms(sym, 8)
            fixed = random_support(rng, sym, pool, 4)
            a = A.fresh(sym, fixed)
            w = A.lock_free_witness(sym, fixed, a)
            ok = all(A.apply(w, r) == r for r in fixed) and A.apply(w, a) != a
            res.check(ok, f"lock_free_witness({sym.value}, {tuple(fixed)}, {a})")
            if sym is A.SymmetryId.TOTAL_ORDER and len(fixed):
                b = a + Fraction(1, 2) * min(abs(a - x) for x in fixed)
                res.check(A.apply(w, a) == b, f"order witness moved {a} to {A.apply(w, a)}, wanted {b}")
            g, h, k = (random_global(rng, sym, pool) for _ in range(3))
            sample = tuple(pool) + (a,)
            left, right = A.compose(A.compose(g, h), k), A.compose(g, A.compose(h, k))
            assoc = all(A.apply(left, x) == A.apply(right, x) for x in sample)
            res.check(assoc, f"compose associativity ({sym.value})")
            p = random_admissible(rng, sym, random_support(rng, sym, pool, 3), pool)
            gg = A.extend_to_global(sym, p)
            res.check(
                all(A.apply(gg, x) == y for x, y in p.items()),
                f"extend_to_global does not restrict to {p.entries!r}",
            )
    return res


def suite_supported(rng: Random, n: int) -> SuiteResult:
    res = SuiteResult("supported-sets")
    sym = A.SymmetryId.EQUALITY
    pool = A.pool_atoms(sym, 6)
    for _ in range(n):
        X = random_suppset(rng, sym, pool)
        R_elems = [f"r{i}" for i in range(rng.randint(1, 4))]
        fg = []
        for which in range(2):
            fg.append({r: rng.choice(X.elements) for r in R_elems})
        R = SS.SuppSet.of(
            [(r, X.support(fg[0][r]).union(X.support(fg[1][r]))) for r in R_elems]
        )
        f = SS.SuppMap.of(R, X, fg[0])
        g = SS.SuppMap.of(R, X, fg[1])
        Q, epi = SS.coequalizer(f, g)
        for y in Q.elements:
            fibre = [x for x in X.elements if epi(x) == y]
            expect = X.support(fibre[0])
            for m in fibre[1:]:
                expect = expect.intersect(X.support(m))
            res.check(Q.support(y) == expect,
                      f"coequalizer class {y!r} support {tuple(Q.support(y))} != {tuple(expect)}")
        P, pr1, pr2 = SS.product(X, X)
        ok = all(P.support((x, y)) == X.support(x).union(X.support(y))
                 for x in X.elements for y in X.elements)
        res.check(ok, "product support is not the union")
        E = SS.SuppSet.of([("a", random_support(rng, sym, pool, 2))])
        XE = SS.exponential(E, X)
        res.check(len(XE) == len(X) ** len(E), "exponential carrier size")
    return res


def suite_freenom(rng: Random, n: int) -> SuiteResult:
    res = SuiteResult("free-extension")
    for _ in range(n):
        for sym in SYMS:
            pool = A.pool_atoms(sym, 6)
            X = random_suppset(rng, sym, pool)
            e = random_ext_elem(rng, sym, X, pool)
            supp = FN.ext_support(e)
            # left unit
            res.check(FN.mult(FN.identity_restriction(sym, supp), e) == e, f"left unit at {e}")
            # right unit
            x = e.base
            u = FN.unit(sym, X, x)
            outer = FN.RestrictedMap(sym, random_admissible(rng, sym, X.support(x), pool))
            res.check(FN.mult(outer, u) == FN.ExtElem(outer, x), f"right unit at {x!r}")
            # associativity
            o2 = FN.RestrictedMap(sym, random_admissible(rng, sym, supp, pool))
            o1 = FN.RestrictedMap(sym, random_admissible(rng, sym, o2.image, pool))
            composed = FN.RestrictedMap(
                sym, A.FiniteMap.of({a: o1(b) for a, b in o2.images.items()})
            )
            res.check(
                FN.mult(o1, FN.mult(o2, e)) == FN.mult(composed, e),
                f"associativity at {e}",
            )
            # action functoriality on a global map
            g = random_global(rng, sym, pool)
            h = random_global(rng, sym, pool)
            res.check(FN.act(g, FN.act(h, e)) == FN.act(A.compose(g, h), e),
                      f"action is not monoidal at {e}")
    return res


def suite_presentations(rng: Random, n: int) -> SuiteResult:
    res = SuiteResult("presentations")
    for _ in range(n):
        for sym in (A.SymmetryId.EQUALITY, A.SymmetryId.TOTAL_ORDER):
            small = A.pool_atoms(sym, 3)
            P = random_presentation(rng, sym, small)
            pool = PR.default_pool(P)
            universe, labels = PR.quot_classes(P, pool)
            if not universe:
                continue
            e1, e2 = rng.choice(universe), rng.choice(universe)
            uf_verdict = labels[PR._ext_key(e1)] == labels[PR._ext_key(e2)]
            fx_verdict = PR.quot_eq_fixpoint(P, e1, e2, pool)
            res.check(uf_verdict == fx_verdict,
                      f"closure engines disagree on {e1} ~ {e2} ({sym.value})")
            exact = PR.quot_eq(P, e1, e2, pool)
            res.check(exact or not uf_verdict,
                      f"pool-equal but exact-unequal at {e1} ~ {e2} ({sym.value})")
            s = PR.supp_of(P, e1, pool)
            dom = FN.ext_support(e1)
            res.check(s.issubset(dom), f"least support {tuple(s)} too big")
            witness = {a: A.lock_free_witness(sym, dom.minus([a]), a) for a in dom}
            wide = pool.atoms.union(A.Support.of(A.apply(w, a) for a, w in witness.items()))
            _, wide_labels = PR.quot_classes(P, PR.AtomPool(wide))
            for a, w in witness.items():
                droppable = wide_labels[PR._ext_key(FN.act(w, e1))] == wide_labels[PR._ext_key(e1)]
                res.check(not (droppable and a in s),
                          f"pool-droppable atom {a} kept in the least support of {e1} ({sym.value})")
            if not P.equations:
                res.check(s == dom, "free least support should be full")
    return res


def suite_binding(rng: Random, n: int) -> SuiteResult:
    res = SuiteResult("binding")
    for _ in range(n):
        t1 = random_term(rng, rng.randint(1, 5))
        t2 = random_term(rng, rng.randint(1, 5))
        pairs = [(t1, t2), (t1, B.from_debruijn(B.to_debruijn(t1)))]
        for u, v in pairs:
            via_db = B.to_debruijn(u) == B.to_debruijn(v)
            via_fresh = alpha_fresh_swap(u, v)
            via_bf = alpha_bruteforce(u, v)
            production = B.alpha_eq_terms(u, v)
            res.check(
                via_db == via_fresh == via_bf == production,
                f"alpha disagreement on {B.show_named(u)} vs {B.show_named(v)}: "
                f"db={via_db} fresh={via_fresh} brute={via_bf} production={production}",
            )
        x = random_term(rng, rng.randint(1, 5))
        a = B.phi(x)
        res.check(
            B.supp_abs(a) == SS.b_support(B.free_atoms(x)),
            f"phi is not support-reflecting at {B.show_named(x)}",
        )
        res.check(
            B.alpha_eq_terms(B.phi_inv(a), x),
            f"phi round trip broken at {B.show_named(x)}",
        )
    return res


def suite_automata(rng: Random, n: int) -> SuiteResult:
    res = SuiteResult("automata")
    ra = first_repeat_automaton()
    eq = A.SymmetryId.EQUALITY
    pool = A.pool_atoms(eq, 4)
    for _ in range(n):
        word = [rng.choice(tuple(pool)) for _ in range(rng.randint(0, 5))]
        want = any(a == word[0] for a in word[1:]) if word else False
        res.check(RA.run(ra, word) == want, f"first-repeat run({word}) != {want}")
        g = random_global(rng, eq, A.pool_atoms(eq, 6))
        res.check(
            RA.run(ra, [A.apply(g, a) for a in word]) == RA.run(ra, word),
            f"run not orbit-invariant on {word}",
        )
        nfa = random_nfa(rng)
        det = RA.determinize_generic(RA.PfSubsets, nfa)
        word2 = [rng.choice(nfa.alphabet) for _ in range(rng.randint(0, 6))]
        res.check(
            det.accepts(word2) == nfa_simulate(nfa, word2),
            f"determinization disagrees with simulation on {word2!r}",
        )
        q = rng.choice(nfa.states)
        flag, delta = nfa.coalg(q)
        res.check(
            det.observe(frozenset([q])) == (flag, delta),
            f"d({{{q}}}) != c({q})",
        )
    return res


def _first_letter_automaton(sym, r, relation: str, args: tuple) -> RA.RegisterAutomaton:
    """Stores the first letter in register `r`, then accepts once the literal
    `relation(*args)` holds; `args` are `RA.INPUT` and `RA.Reg(r)`."""
    locs = SS.SuppSet.of([("q0", ()), ("q1", (r,)), ("qa", ())])
    t = (
        RA.make_transition("q0", RA.TRUE_GUARD, "q1", {r: RA.INPUT}),
        RA.make_transition("q1", RA.Guard((RA.Literal(True, relation, args),)), "qa", {}),
        RA.make_transition("q1", RA.Guard((RA.Literal(False, relation, args),)), "q1", {r: RA.Reg(r)}),
        RA.make_transition("qa", RA.TRUE_GUARD, "qa", {}),
    )
    return RA.RegisterAutomaton(sym, locs, "q0", frozenset(["qa"]), t)


def first_repeat_automaton() -> RA.RegisterAutomaton:
    """Accepts words in which some letter after the first equals the first."""
    return _first_letter_automaton(A.SymmetryId.EQUALITY, 0, "eq", (RA.INPUT, RA.Reg(0)))


def ascent_automaton() -> RA.RegisterAutomaton:
    """Accepts words in which some letter after the first exceeds the first."""
    r = Fraction(0)
    return _first_letter_automaton(A.SymmetryId.TOTAL_ORDER, r, "lt", (RA.Reg(r), RA.INPUT))


SUITES = (  # (suite, trials per unit of budget)
    (suite_atoms, 40),
    (suite_supported, 25),
    (suite_freenom, 40),
    (suite_presentations, 10),
    (suite_binding, 40),
    (suite_automata, 30),
)


def run_all(seed: int = 0, budget: int = 1) -> Report:
    suites = []
    if budget > 0:
        for fn, trials in SUITES:
            suites.append(fn(Random(f"{seed}:{fn.__name__}"), trials * budget))
    return Report(seed, budget, suites)
