import dataclasses
import itertools
import json
import math
import sys
from collections import Counter
from fractions import Fraction
from pathlib import Path
from random import Random

import pytest
from hypothesis import assume, given, settings, strategies as st

from suppsets.atoms import (
    FiniteMap,
    Support,
    SymmetryId,
    apply,
    check_atom,
    is_admissible,
    pool_atoms,
    transposition,
)
from suppsets import automata as automata_module
from suppsets.automata import (
    ConfigAutomaton,
    ExtConfigs,
    Guard,
    INPUT,
    InputRef,
    Literal,
    Nfa,
    OrbitSummary,
    PfSubsets,
    Reg,
    RegisterAutomaton,
    TRUE_GUARD,
    Transition,
    UnresolvedRegister,
    automaton_from_json,
    automaton_to_json,
    determinize_generic,
    eval_guard,
    holds,
    initial_config,
    make_transition,
    reachable_configs,
    reachable_orbits,
    run,
    step,
    step_full,
    validate,
)
from suppsets.checks import (
    ascent_automaton,
    first_repeat_automaton,
    nfa_simulate,
    random_global,
    random_nfa,
)
from suppsets.freenom import ExtElem, RestrictedMap, act, check_ext_elem, unit
from suppsets.supported import SuppSet, b_support

EQ = SymmetryId.EQUALITY
ORD = SymmetryId.TOTAL_ORDER
DATA = Path(__file__).resolve().parent.parent / "data"


def config(ra, loc, valuation):
    return ExtElem(RestrictedMap(ra.sym, FiniteMap.of(valuation)), loc)


class TestValidate:
    def test_first_repeat_is_coherent(self):
        assert validate(first_repeat_automaton()).ok

    def test_ascent_is_coherent(self):
        assert validate(ascent_automaton()).ok

    def test_initialized_initial_location(self):
        ra = first_repeat_automaton()
        bad = RegisterAutomaton(
            EQ,
            SuppSet.of([("q0", Support.of([0])), ("q1", Support.of([0])), ("qa", Support())]),
            "q0",
            frozenset(["qa"]),
            ra.transitions,
        )
        report = validate(bad)
        assert not report.ok
        assert any("uninitialized" in e for e in report.errors)

    def test_non_injective_assignment(self):
        locs = SuppSet.of([("q0", Support()), ("q1", Support.of([0, 1]))])
        t = make_transition("q0", TRUE_GUARD, "q1", {0: INPUT, 1: INPUT})
        report = validate(RegisterAutomaton(EQ, locs, "q0", frozenset(), (t,)))
        assert any("not injective" in e for e in report.errors)

    def test_guard_register_outside_source(self):
        locs = SuppSet.of([("q0", Support()), ("q1", Support())])
        g = Guard((Literal(True, "eq", (INPUT, Reg(3))),))
        t = make_transition("q0", g, "q1", {})
        report = validate(RegisterAutomaton(EQ, locs, "q0", frozenset(), (t,)))
        assert any("outside the source support" in e for e in report.errors)

    def test_unknown_relation(self):
        locs = SuppSet.of([("q0", Support())])
        g = Guard((Literal(True, "between", (INPUT, INPUT)),))
        t = make_transition("q0", g, "q0", {})
        report = validate(RegisterAutomaton(EQ, locs, "q0", frozenset(), (t,)))
        assert any("unknown relation" in e for e in report.errors)

    @pytest.mark.parametrize("sym", [EQ, ORD, SymmetryId.RENAMING])
    def test_relations_of_the_symmetry(self, sym):
        """`lt` is a guard relation under total order only; both are binary."""
        locs = SuppSet.of([("q0", Support())])
        report = validate(RegisterAutomaton(sym, locs, "q0", frozenset(), (
            make_transition("q0", Guard((Literal(True, "lt", (INPUT, INPUT)),)), "q0", {}),
            make_transition("q0", Guard((Literal(True, "eq", (INPUT,)),)), "q0", {}),
        )))
        lt_error = () if sym is ORD else ("transition 0 ('q0' -> 'q0'): unknown relation 'lt'",)
        assert report.errors == (*lt_error, "transition 1 ('q0' -> 'q0'): relation 'eq' expects 2 arguments")

    def test_assignment_must_cover_target(self):
        locs = SuppSet.of([("q0", Support()), ("q1", Support.of([0]))])
        t = make_transition("q0", TRUE_GUARD, "q1", {})
        report = validate(RegisterAutomaton(EQ, locs, "q0", frozenset(), (t,)))
        assert any("target registers" in e for e in report.errors)

    def test_argument_neither_input_nor_register(self):
        """A bare atom as a guard argument or an assignment source is
        rejected, once for each; `run` would raise `AttributeError` on it."""
        locs = SuppSet.of([("q0", Support()), ("q1", Support.of([0]))])
        t = Transition("q0", Guard((Literal(True, "eq", (INPUT, 3)),)), "q1", ((0, 3),))
        report = validate(RegisterAutomaton(EQ, locs, "q0", frozenset(), (t,)))
        assert report.errors == (
            "transition 0 ('q0' -> 'q1'): guard argument 3 is neither INPUT nor a register",
            "transition 0 ('q0' -> 'q1'): assignment source 3 is neither INPUT nor a register",
        )

    def test_unhashable_assignment_source(self):
        """An unhashable source is reported like any other bad source; the
        injectivity test compares sources by `==` and never hashes them."""
        locs = SuppSet.of([("q0", Support()), ("q1", Support.of([0]))])
        t = Transition("q0", TRUE_GUARD, "q1", ((0, [3]),))
        report = validate(RegisterAutomaton(EQ, locs, "q0", frozenset(), (t,)))
        assert report.errors == (
            "transition 0 ('q0' -> 'q1'): assignment source [3] is neither INPUT nor a register",
        )


@st.composite
def small_automata(draw):
    """Automata over three locations whose transitions mostly pass `validate`:
    assignments read distinct sources, guards now and then a stray register."""
    names = ("q0", "q1", "q2")
    supports = [()] + [tuple(sorted(draw(st.sets(st.integers(0, 3), max_size=3)))) for _ in names[1:]]
    transitions = []
    for _ in range(draw(st.integers(0, 5))):
        i, j = draw(st.integers(0, 2)), draw(st.integers(0, 2))
        sources = [INPUT] + [Reg(a) for a in supports[i]]
        assign = dict(zip(supports[j], draw(st.permutations(sources))))
        refs = st.sampled_from(sources + [Reg(4)]) if draw(st.integers(0, 4)) == 0 else st.sampled_from(sources)
        literals = draw(st.lists(st.builds(lambda pos, a, b: Literal(pos, "eq", (a, b)), st.booleans(), refs, refs),
                                 max_size=2))
        transitions.append(make_transition(names[i], Guard(tuple(literals)), names[j], assign))
    sym = draw(st.sampled_from((EQ, SymmetryId.RENAMING)))
    return RegisterAutomaton(sym, SuppSet.of(list(zip(names, supports))), "q0", frozenset(), tuple(transitions))


class TestBinderEncoding:
    """Under the binder, the input is atom 0 and old register k is atom k+1;
    what a location's transitions refer to, shifted back out, lies in its
    support whenever `validate` accepts the automaton."""

    @staticmethod
    def outside_support(ra, q):
        shifted = []
        for t in ra.outgoing(q):
            refs = [r for _, r in t.assign] + [r for lit in t.guard.literals for r in lit.args]
            shifted += [0 if isinstance(r, InputRef) else r.atom + 1 for r in refs]
        return b_support(Support.of(shifted))

    def test_shipped_automaton(self):
        ra = first_repeat_automaton()
        assert [tuple(self.outside_support(ra, q)) for q in ra.locations.elements] == [(), (0,), ()]

    @given(small_automata())
    def test_accepted_automata(self, ra):
        assume(validate(ra).ok)
        for q in ra.locations.elements:
            assert self.outside_support(ra, q).issubset(ra.locations.support(q))


class TestEvalGuard:
    def test_eq_literal(self):
        val = RestrictedMap(EQ, FiniteMap.of({0: 5}))
        g = Guard((Literal(True, "eq", (INPUT, Reg(0))),))
        assert eval_guard(g, val, 5)
        assert not eval_guard(g, val, 3)

    def test_negation(self):
        val = RestrictedMap(EQ, FiniteMap.of({0: 5}))
        g = Guard((Literal(False, "eq", (INPUT, Reg(0))),))
        assert not eval_guard(g, val, 5)

    def test_order_literal(self):
        val = RestrictedMap(ORD, FiniteMap.of({Fraction(0): Fraction(1, 2)}))
        g = Guard((Literal(True, "lt", (Reg(Fraction(0)), INPUT)),))
        assert eval_guard(g, val, Fraction(2))
        assert not eval_guard(g, val, Fraction(1, 4))

    def test_unresolved_register(self):
        val = RestrictedMap(EQ, FiniteMap.of({}))
        g = Guard((Literal(True, "eq", (INPUT, Reg(0))),))
        with pytest.raises(UnresolvedRegister):
            eval_guard(g, val, 1)


class TestStep:
    def setup_method(self):
        self.ra = first_repeat_automaton()

    def test_initial_step_stores_input(self):
        succ = step(self.ra, initial_config(self.ra), 5)
        assert succ == (config(self.ra, "q1", {0: 5}),)

    def test_matching_input_accepts(self):
        succ = step(self.ra, config(self.ra, "q1", {0: 5}), 5)
        assert succ == (config(self.ra, "qa", {}),)

    def test_mismatching_input_loops(self):
        succ = step(self.ra, config(self.ra, "q1", {0: 5}), 3)
        assert succ == (config(self.ra, "q1", {0: 5}),)

    def test_valuation_of_another_symmetry_is_checked(self):
        """The frontier loop steps a valuation's order type, so it must be
        admissible for the automaton's symmetry; one built under another
        symmetry is checked against it on the way in."""
        tied = ExtElem(RestrictedMap(SymmetryId.RENAMING, FiniteMap.of({0: 5, 1: 5})), "q1")
        with pytest.raises(ValueError, match=r"^\(\(0, 5\), \(1, 5\)\) is not admissible for equality$"):
            step(self.ra, tied, 3)
        renamed = ExtElem(RestrictedMap(SymmetryId.RENAMING, FiniteMap.of({0: 5})), "q1")
        assert step(self.ra, renamed, 5) == (config(self.ra, "qa", {}),)

    def test_inadmissible_successor_dropped_with_flag(self):
        # a two-register location forced to store the same value twice
        locs = SuppSet.of([("q0", Support()), ("p", Support.of([0])), ("d", Support.of([0, 1]))])
        ts = (
            make_transition("q0", TRUE_GUARD, "p", {0: INPUT}),
            make_transition("p", TRUE_GUARD, "d", {0: Reg(0), 1: INPUT}),
        )
        ra = RegisterAutomaton(EQ, locs, "q0", frozenset(["d"]), ts)
        assert validate(ra).ok
        c = config(ra, "p", {0: 7})
        kept, dropped = step_full(ra, c, 7)
        assert kept == ()
        assert len(dropped) == 1
        # the renaming symmetry keeps the duplicate-storing successor
        ra2 = RegisterAutomaton(SymmetryId.RENAMING, locs, "q0", frozenset(["d"]), ts)
        c2 = config(ra2, "p", {0: 7})
        kept2, dropped2 = step_full(ra2, c2, 7)
        assert len(kept2) == 1 and not dropped2


class TestOutOfDomainInputs:
    """A stored input outside the atom domain raises the atom check's error;
    it is not dropped as an inadmissible successor."""

    CASES = [
        (first_repeat_automaton, -1, "-1 is not a natural-number atom (equality)"),
        (first_repeat_automaton, Fraction(1, 2), "Fraction(1, 2) is not a natural-number atom (equality)"),
        (first_repeat_automaton, True, "True is not an exact atom"),
        (ascent_automaton, 0.5, "0.5 is not an exact atom"),
    ]

    @pytest.mark.parametrize("make, letter, message", CASES)
    def test_run_raises(self, make, letter, message):
        with pytest.raises(ValueError) as exc:
            run(make(), [letter])
        assert str(exc.value) == message

    @pytest.mark.parametrize("make, letter, message", CASES)
    def test_step_full_raises(self, make, letter, message):
        ra = make()
        with pytest.raises(ValueError) as exc:
            step_full(ra, initial_config(ra), letter)
        assert str(exc.value) == message


class TestRun:
    def test_first_repeat_examples(self):
        ra = first_repeat_automaton()
        assert run(ra, [5, 3, 5])
        assert not run(ra, [5, 3, 4])
        assert not run(ra, [])

    def test_matches_predicate_exhaustively(self):
        ra = first_repeat_automaton()
        pool = tuple(range(3))
        words = [[]]
        for _ in range(3):
            words = [w + [a] for w in words for a in pool] + words
        for w in words:
            expected = any(a == w[0] for a in w[1:]) if w else False
            assert run(ra, w) == expected, w

    def test_ascent_automaton(self):
        ra = ascent_automaton()
        assert run(ra, [Fraction(1), Fraction(1, 2), Fraction(3, 2)])
        assert not run(ra, [Fraction(1), Fraction(1)])

    def test_validated_runs_never_hit_unresolved_registers(self):
        rng = Random(5)
        for ra in (first_repeat_automaton(), ascent_automaton()):
            atoms = tuple(pool_atoms(ra.sym, 4))
            for _ in range(50):
                word = [rng.choice(atoms) for _ in range(rng.randint(0, 5))]
                run(ra, word)  # must not raise


class TestEquivariance:
    @pytest.mark.parametrize("seed", range(10))
    def test_step_commutes_with_the_action_equality(self, seed):
        rng = Random(seed)
        ra = first_repeat_automaton()
        g = random_global(rng, EQ, pool_atoms(EQ, 6))
        for c in (initial_config(ra), config(ra, "q1", {0: rng.randrange(6)})):
            a = rng.randrange(6)
            lhs = step(ra, act(g, c), apply(g, a))
            rhs = tuple(sorted((act(g, s) for s in step(ra, c, a)),
                               key=lambda s: (str(s.base), s.pi.images.entries)))
            assert lhs == rhs

    @pytest.mark.parametrize("seed", range(10))
    def test_step_commutes_with_the_action_order(self, seed):
        rng = Random(seed)
        ra = ascent_automaton()
        pool = pool_atoms(ORD, 5)
        g = random_global(rng, ORD, pool)
        atoms = tuple(pool)
        for c in (initial_config(ra), config(ra, "q1", {Fraction(0): rng.choice(atoms)})):
            a = rng.choice(atoms)
            lhs = step(ra, act(g, c), apply(g, a))
            rhs = tuple(sorted((act(g, s) for s in step(ra, c, a)),
                               key=lambda s: (str(s.base), s.pi.images.entries)))
            assert lhs == rhs

    @pytest.mark.parametrize("seed", range(10))
    def test_run_is_orbit_invariant(self, seed):
        rng = Random(seed)
        ra = first_repeat_automaton()
        g = random_global(rng, EQ, pool_atoms(EQ, 6))
        word = [rng.randrange(6) for _ in range(rng.randint(0, 5))]
        assert run(ra, word) == run(ra, [apply(g, a) for a in word])


class TestConfigsAreExtElems:
    """A configuration is an element of the free extension of the location
    set: the location is its base and the register valuation its `pi`."""

    @pytest.mark.parametrize("sym", [EQ, ORD])
    @pytest.mark.parametrize("name", ["first_repeat", "ascent_after_first"])
    def test_reached_and_stepped_configs_are_ext_elems(self, name, sym):
        ra = shipped_automaton(name, sym)
        pool = pool_atoms(sym, 4)
        reached = reachable_configs(ra, pool, 3)
        assert len(reached) > 1
        for c in reached:
            assert check_ext_elem(ra.locations, c) is c
            for a in pool:
                for d in step(ra, c, a):
                    assert check_ext_elem(ra.locations, d) is d

    @pytest.mark.parametrize("make", [first_repeat_automaton, ascent_automaton,
                                      lambda: shipped_automaton("first_repeat", EQ),
                                      lambda: shipped_automaton("ascent_after_first", ORD)])
    def test_initial_config_is_the_unit(self, make):
        ra = make()
        assert validate(ra).ok
        assert initial_config(ra) == unit(ra.sym, ra.locations, ra.initial)
        assert ConfigAutomaton(ra).initial == initial_config(ra)

    def test_act_refuses_a_map_of_another_symmetry(self):
        ra = first_repeat_automaton()
        c = config(ra, "q1", {0: 5})
        g = transposition(SymmetryId.RENAMING, 5, 6)
        with pytest.raises(ValueError, match="^mixed symmetries$"):
            act(g, c)


class TestDeterminizeClassical:
    def test_worked_nfa(self):
        nfa = Nfa(
            states=(1, 2),
            alphabet=("a", "b"),
            initial=1,
            final=frozenset([2]),
            delta={(1, "a"): frozenset([1, 2]), (2, "b"): frozenset([2])},
        )
        det = determinize_generic(PfSubsets, nfa)
        assert det.accepts("ab")
        assert not det.accepts("b")

    def test_singleton_observation_matches_coalgebra(self):
        nfa = random_nfa(Random(3))
        det = determinize_generic(PfSubsets, nfa)
        for q in nfa.states:
            assert det.observe(frozenset([q])) == nfa.coalg(q)

    @pytest.mark.parametrize("seed", range(15))
    def test_language_matches_simulation(self, seed):
        rng = Random(seed)
        nfa = random_nfa(rng)
        det = determinize_generic(PfSubsets, nfa)
        for _ in range(25):
            word = [rng.choice(nfa.alphabet) for _ in range(rng.randint(0, 6))]
            assert det.accepts(word) == nfa_simulate(nfa, word)

    def test_unsupported_monad(self):
        with pytest.raises(ValueError):
            determinize_generic(object, random_nfa(Random(0)))

    def test_instance_and_coalgebra_must_match(self):
        with pytest.raises(ValueError, match="^the pf instance determinizes an Nfa$"):
            determinize_generic(PfSubsets, first_repeat_automaton())
        with pytest.raises(ValueError, match="^the ext instance determinizes a RegisterAutomaton$"):
            determinize_generic(ExtConfigs, random_nfa(Random(0)))

    def test_ext_instance_is_step(self):
        ra = first_repeat_automaton()
        conf = determinize_generic(ExtConfigs, ra)
        assert isinstance(conf, ConfigAutomaton)
        assert conf.accepts([5, 3, 5]) == run(ra, [5, 3, 5])
        assert conf.successor((initial_config(ra),), 5) == step(ra, initial_config(ra), 5)


class TestReachableOrbits:
    def test_first_repeat_summary(self):
        ra = first_repeat_automaton()
        summary = reachable_orbits(ra, pool_atoms(EQ, 3), 3)
        assert summary.as_dict() == {"q0": 1, "q1": 1, "qa": 1}

    def test_depth_zero(self):
        ra = first_repeat_automaton()
        summary = reachable_orbits(ra, pool_atoms(EQ, 3), 0)
        assert summary.as_dict() == {"q0": 1, "q1": 0, "qa": 0}

    def test_stable_under_pool_growth(self):
        for ra, sym in ((first_repeat_automaton(), EQ), (ascent_automaton(), ORD)):
            small = reachable_orbits(ra, pool_atoms(sym, 3), 3)
            big = reachable_orbits(ra, pool_atoms(sym, 4), 3)
            assert small.as_dict() == big.as_dict()

    def test_renaming_rejected(self):
        locs = SuppSet.of([("q0", Support())])
        ra = RegisterAutomaton(SymmetryId.RENAMING, locs, "q0", frozenset(), ())
        with pytest.raises(ValueError):
            reachable_orbits(ra, pool_atoms(SymmetryId.RENAMING, 2), 1)


def guess_store_automaton(symmetry="equality"):
    """Guesses two distinct letters and stores both: many configurations per
    location.  Under total order the second must exceed the first."""
    def t(src, tgt, assign, guard=()):
        return {"from": src, "to": tgt, "assign": assign, "guard": list(guard)}

    r0, r1 = {"reg": 0}, {"reg": 1}
    return automaton_from_json({
        "symmetry": symmetry,
        "locations": {"elements": [{"id": q, "support": s} for q, s in
                                   (("s0", []), ("s1", [0]), ("s2", [0, 1]), ("s3", [1]), ("acc", []))]},
        "initial": "s0",
        "final": ["acc"],
        "transitions": [
            t("s0", "s0", {}), t("s0", "s1", {"0": "input"}), t("s1", "s1", {"0": r0}),
            t("s1", "s2", {"0": r0, "1": "input"}), t("s2", "s2", {"0": r0, "1": r1}),
            t("s2", "s3", {"1": r1}, [[True, "eq", ["input", r0]]]), t("s3", "s3", {"1": r1}),
            t("s3", "acc", {}, [[True, "eq", ["input", r1]]]), t("acc", "acc", {}),
        ],
    })


def pairwise_orbits(ra, pool, depth) -> dict:
    """Orbit counts by a union-find over every pair of reachable configurations
    at one location: a pair is joined when the value map forced between their
    valuations is a bijection (equality) or strictly increasing (order)."""
    configs = reachable_configs(ra, pool, depth)
    parent = list(range(len(configs)))

    def find(i):
        while parent[i] != i:
            i = parent[i]
        return i

    def related(c1, c2):
        e1, e2 = c1.pi.images.entries, c2.pi.images.entries
        if c1.base != c2.base or [r for r, _ in e1] != [r for r, _ in e2]:
            return False
        pairs = sorted({(x, y) for (_, x), (_, y) in zip(e1, e2)})
        if len({x for x, _ in pairs}) != len(pairs) or len({y for _, y in pairs}) != len(pairs):
            return False
        return ra.sym is EQ or all(a[1] < b[1] for a, b in zip(pairs, pairs[1:]))

    for i, c1 in enumerate(configs):
        for j in range(i):
            if related(c1, configs[j]):
                parent[find(i)] = find(j)
    roots = {}
    for i, c in enumerate(configs):
        roots.setdefault(c.base, set()).add(find(i))
    return {q: len(roots.get(q, ())) for q in ra.locations.elements}


class TestOrbitRepresentatives:
    def test_register_domains_split_orbits(self):
        """`q` is entered with one register on one transition and with two on
        the other.  `validate` rejects this automaton, so `suppsets orbits`
        never counts it; only `reachable_orbits` on an unvalidated automaton
        meets two register domains at one location, and they are two orbits."""
        locs = SuppSet.of([("s0", Support()), ("s", Support.of([0])), ("q", Support.of([0, 1]))])
        ra = RegisterAutomaton(EQ, locs, "s0", frozenset(), (
            make_transition("s0", TRUE_GUARD, "s", {0: INPUT}),
            make_transition("s", TRUE_GUARD, "q", {0: Reg(0)}),
            make_transition("s", TRUE_GUARD, "q", {0: Reg(0), 1: INPUT}),
        ))
        assert not validate(ra).ok
        summary = reachable_orbits(ra, pool_atoms(EQ, 3), 2)
        assert summary.as_dict() == {"s0": 1, "s": 1, "q": 2}
        assert summary.configs_seen == 1 + 3 + 3 + 6

    @pytest.mark.parametrize("make, sym", [(first_repeat_automaton, EQ), (ascent_automaton, ORD),
                                           (guess_store_automaton, EQ)])
    def test_matches_pairwise_union_find(self, make, sym):
        ra = make()
        for n in range(3, 7):
            for depth in range(4):
                pool = pool_atoms(sym, n)
                assert reachable_orbits(ra, pool, depth).as_dict() == pairwise_orbits(ra, pool, depth)

    @given(small_automata(), st.integers(3, 5), st.integers(0, 3))
    def test_random_automata_match_pairwise_union_find(self, ra, n, depth):
        assume(validate(ra).ok)
        ra = RegisterAutomaton(EQ, ra.locations, ra.initial, ra.final, ra.transitions)
        pool = pool_atoms(EQ, n)
        assert reachable_orbits(ra, pool, depth).as_dict() == pairwise_orbits(ra, pool, depth)


class TestLocationIds:
    def test_int_and_str_locations_stay_apart(self):
        ra = automaton_from_json({
            "symmetry": "equality",
            "locations": {"elements": [{"id": q, "support": []} for q in ("s", 1, "1")]},
            "initial": "s",
            "final": ["1"],
            "transitions": [{"from": "s", "to": 1}, {"from": "s", "to": "1"}],
        })
        assert validate(ra).ok
        assert run(ra, [0])
        summary = reachable_orbits(ra, pool_atoms(EQ, 2), 1)
        assert summary.per_location == (("s", 1), (1, 1), ("1", 1))

    def test_summary_dict_keys_by_location(self):
        summary = OrbitSummary((("s", 1), (1, 1), ("1", 1)), 3)
        assert summary.as_dict() == {"s": 1, 1: 1, "1": 1}


class TestJson:
    def test_shipped_files_round_trip(self):
        for name in ("first_repeat.json", "ascent_after_first.json"):
            doc = json.loads((DATA / name).read_text())
            ra = automaton_from_json(doc)
            assert validate(ra).ok
            again = automaton_from_json(automaton_to_json(ra))
            assert automaton_to_json(again) == automaton_to_json(ra)

    def test_shipped_equals_builtin(self):
        for name, build in (("first_repeat.json", first_repeat_automaton),
                            ("ascent_after_first.json", ascent_automaton)):
            doc = json.loads((DATA / name).read_text())
            ra = automaton_from_json(doc)
            built = build()
            assert automaton_to_json(ra) == automaton_to_json(built)


class TestLettersCheckedAtTheBoundary:
    """Every letter is checked against the atom domain, also one that no
    transition stores: `[5, -1]` raises as `[-1]` does."""

    CASES = [
        (-1, "-1 is not a natural-number atom (equality)"),
        (True, "True is not an exact atom"),
        (Fraction(1, 2), "Fraction(1, 2) is not a natural-number atom (equality)"),
    ]

    @pytest.mark.parametrize("letter, message", CASES)
    def test_run(self, letter, message):
        with pytest.raises(ValueError) as exc:
            run(first_repeat_automaton(), [5, letter])
        assert str(exc.value) == message

    @pytest.mark.parametrize("letter, message", CASES)
    def test_step(self, letter, message):
        ra = first_repeat_automaton()
        with pytest.raises(ValueError) as exc:
            step(ra, config(ra, "q1", {0: 5}), letter)
        assert str(exc.value) == message

    @pytest.mark.parametrize("letter, message", CASES)
    def test_config_automaton_successor(self, letter, message):
        ra = first_repeat_automaton()
        conf = determinize_generic(ExtConfigs, ra)
        (after_five,) = conf.successor((conf.initial,), 5)
        with pytest.raises(ValueError) as exc:
            conf.successor((after_five,), letter)
        assert str(exc.value) == message

    @pytest.mark.parametrize("letter, message", CASES)
    def test_run_after_a_long_stay(self, letter, message):
        """The frontier `q1(5)` stays on every new letter, so all but the
        first of the 1,000 are skipped; the bad letter still raises."""
        with pytest.raises(ValueError) as exc:
            run(first_repeat_automaton(), [5, *range(6, 1006), letter])
        assert str(exc.value) == message

    def test_letter_checked_with_an_empty_frontier(self):
        locs = SuppSet.of([("q0", Support())])
        ra = RegisterAutomaton(EQ, locs, "q0", frozenset(), ())
        with pytest.raises(ValueError, match=r"^-1 is not a natural-number atom \(equality\)$"):
            run(ra, [0, -1])


# --- the per-letter path before transitions were compiled: the oracle ---

def _oracle_holds(name, args):
    if name == "eq":
        return args[0] == args[1]
    if name == "lt":
        return args[0] < args[1]
    raise ValueError(f"relation {name!r} has no interpretation")


def oracle_eval_guard(g, val, input_atom):
    def resolve(ref):
        if isinstance(ref, InputRef):
            return input_atom
        got = val.images.get(ref.atom)
        if got is None:
            raise UnresolvedRegister(ref.atom)
        return got

    for lit in g.literals:
        value = _oracle_holds(lit.relation, tuple(resolve(r) for r in lit.args))
        if value != lit.positive:
            return False
    return True


def oracle_step_full(ra, c, input_atom):
    kept, dropped = [], []
    for t in ra.outgoing(c.base):
        if not oracle_eval_guard(t.guard, c.pi, input_atom):
            continue
        images = {}
        for reg, ref in t.assign:
            images[reg] = input_atom if isinstance(ref, InputRef) else c.pi(ref.atom)
        fm = FiniteMap.of(images)
        try:
            kept.append(ExtElem(RestrictedMap(ra.sym, fm), t.target))
        except ValueError:
            if is_admissible(ra.sym, fm):
                raise
            dropped.append((t, fm))
    return tuple(kept), tuple(dropped)


def outcome(fn, *args):
    """A result, or the type and message of the exception raised."""
    try:
        return "ok", fn(*args)
    except Exception as e:  # the comparison covers every exception type
        return type(e), str(e)


@st.composite
def perturbed_automata(draw):
    """`small_automata` draws, validated or not, under any symmetry, with
    literals now and then `lt`, an unknown relation or another arity, and
    transitions now and then built directly with unsorted or repeated
    assignment pairs that may read a register the source lacks."""
    ra = draw(small_automata())
    sym = draw(st.sampled_from((EQ, ORD, SymmetryId.RENAMING)))
    refs = st.sampled_from([INPUT] + [Reg(a) for a in range(5)])
    transitions = []
    for t in ra.transitions:
        literals = []
        for lit in t.guard.literals:
            relation = draw(st.sampled_from(("eq", "eq", "lt", "between")))
            args = lit.args
            if draw(st.integers(0, 9)) == 0:
                args = draw(st.lists(refs, min_size=1, max_size=3).map(tuple))
            literals.append(Literal(lit.positive, relation, args))
        assign = t.assign
        if draw(st.integers(0, 3)) == 0:
            extra = draw(st.lists(st.tuples(st.integers(0, 4), refs), max_size=2))
            assign = tuple(draw(st.permutations(list(assign) + extra)))
        transitions.append(Transition(t.source, Guard(tuple(literals)), t.target, assign))
    return RegisterAutomaton(sym, ra.locations, ra.initial, ra.final, tuple(transitions))


class TestCompiledStepMatchesOracle:
    """`step_full` and `eval_guard` keep and drop the same successors in the
    same order as the oracle loop, and raise the same exceptions with the
    same messages.  They interpret each transition directly, as the oracle
    does; the comparison stays to check any later fast path."""

    @staticmethod
    def letters(ra, c, rng):
        pool = [0, 1, 2, 3, 4] + [v for _, v in c.pi.images.items()]
        if ra.sym is ORD:
            pool += [Fraction(1, 2), Fraction(7, 2)]
        return [rng.choice(pool) for _ in range(3)]

    @staticmethod
    def valuations(ra, rng):
        """Admissible valuations of random register sets, at any location."""
        for q in ra.locations.elements:
            regs = sorted(rng.sample(range(5), rng.randint(0, 3)))
            values = sorted(rng.sample(range(6), len(regs)))
            if ra.sym is not ORD:
                rng.shuffle(values)
            yield ExtElem(RestrictedMap(ra.sym, FiniteMap.of(dict(zip(regs, values)))), q)

    def compare(self, ra, c, a):
        got = outcome(step_full, ra, c, a)
        assert got == outcome(oracle_step_full, ra, c, a)
        for t in ra.outgoing(c.base):
            assert (outcome(eval_guard, t.guard, c.pi, a)
                    == outcome(oracle_eval_guard, t.guard, c.pi, a))
        return got

    @settings(max_examples=300, deadline=None)
    @given(perturbed_automata(), st.integers(0, 2 ** 32))
    def test_random_automata(self, ra, seed):
        rng = Random(seed)
        frontier = [initial_config(ra)] + list(self.valuations(ra, rng))
        for _ in range(4):
            nxt = []
            for c in frontier[:6]:
                for a in self.letters(ra, c, rng):
                    kind, result = self.compare(ra, c, a)
                    if kind == "ok":
                        nxt += result[0]
            frontier = nxt

    @pytest.mark.parametrize("name, args", [("eq", (1, 1)), ("eq", (1, 2)), ("lt", (1, 2)), ("lt", (2, 1)),
                                            ("between", (1, 2)), ("eq", (1,)), ("lt", (1, 2, 0))])
    def test_signature_holds(self, name, args):
        assert outcome(holds, name, args) == outcome(_oracle_holds, name, args)

    def test_exceptions_are_exercised(self):
        """Each exception the comparison is meant to cover is raised on a
        hand-built automaton, by `step_full` and the oracle alike."""
        locs = SuppSet.of([("q0", Support.of([0])), ("q1", Support.of([0, 1]))])
        c = config(RegisterAutomaton(EQ, locs, "q0", frozenset(), ()), "q0", {0: 5})
        cases = [
            (Transition("q0", Guard((Literal(True, "eq", (INPUT, Reg(3))),)), "q1", ()), UnresolvedRegister),
            (Transition("q0", Guard((Literal(True, "between", (INPUT, Reg(0))),)), "q1", ()), ValueError),
            (Transition("q0", TRUE_GUARD, "q1", ((0, Reg(0)), (1, Reg(2)))), KeyError),
            (Transition("q0", TRUE_GUARD, "q1", ((1, Reg(0)), (0, INPUT))), None),
            (Transition("q0", TRUE_GUARD, "q1", ((0, Reg(3)), (0, INPUT))), KeyError),
            (Transition("q0", TRUE_GUARD, "q1", ((1, Reg(4)), (0, Reg(3)))), KeyError),
        ]
        for t, raised in cases:
            ra = RegisterAutomaton(EQ, locs, "q0", frozenset(), (t,))
            kind, _ = self.compare(ra, c, 7)
            assert kind == (raised or "ok")
        unknown = RegisterAutomaton(EQ, locs, "q0", frozenset(), (cases[1][0],))
        assert any("unknown relation 'between'" in e for e in validate(unknown).errors)


# --- the frontier loop before steps were memoised per orbit: the oracle ---

def oracle_successors(ra, configs, letters):
    for a in letters:
        check_atom(ra.sym, a)
    seen = {}
    for c in configs:
        for a in letters:
            for succ in step_full(ra, c, a)[0]:
                seen.setdefault((succ.base, succ.pi.images.entries), succ)
    return tuple(sorted(seen.values(), key=lambda c: (str(c.base), c.pi.images.entries)))


def oracle_run(ra, word):
    frontier = (initial_config(ra),)
    for a in word:
        frontier = oracle_successors(ra, frontier, (a,))
    return any(c.base in ra.final for c in frontier)


def oracle_reachable_configs(ra, pool, depth):
    frontier = (initial_config(ra),)
    seen = dict.fromkeys(frontier)
    letters = tuple(pool)
    for _ in range(depth):
        frontier = [c for c in oracle_successors(ra, frontier, letters) if c not in seen]
        if not frontier:
            break
        seen.update(dict.fromkeys(frontier))
    return tuple(sorted(seen, key=lambda c: (str(c.base), c.pi.images.entries)))


class TestOrbitMemoMatchesOracle:
    """`run` and `reachable_configs`, which step once per order type and
    rename, give the sorted-frontier loop's results and raise its exceptions
    with its messages."""

    @staticmethod
    def compare_runs(ra, finals, words):
        """Every prefix of every word, under each final set: with a single
        final location the verdict says whether that location is live."""
        for final in finals:
            ra = RegisterAutomaton(ra.sym, ra.locations, ra.initial, final, ra.transitions)
            for word in words:
                for i in range(len(word) + 1):
                    assert outcome(run, ra, word[:i]) == outcome(oracle_run, ra, word[:i])

    @settings(max_examples=300, deadline=None)
    @given(perturbed_automata(), st.data())
    def test_run(self, ra, data):
        final = data.draw(st.sets(st.sampled_from(ra.locations.elements)))
        pool = tuple(pool_atoms(ra.sym, data.draw(st.integers(1, 4))))
        words = data.draw(st.lists(st.lists(st.sampled_from(pool), max_size=8), min_size=1, max_size=3))
        self.compare_runs(ra, [final] + [{q} for q in ra.locations.elements], words)

    @pytest.mark.parametrize("sym", [EQ, ORD, SymmetryId.RENAMING])
    @settings(max_examples=50, deadline=None)
    @given(ra=perturbed_automata(), data=st.data())
    def test_long_words(self, sym, ra, data):
        """Few atoms and long words, so that frontiers and letter positions
        recur and `run` skips letters its frontier stays on.  Total-order
        words mix `k` with `Fraction(k)`."""
        ra = RegisterAutomaton(sym, ra.locations, ra.initial, ra.final, ra.transitions)
        pool = tuple(pool_atoms(sym, data.draw(st.integers(2, 4))))
        if sym is ORD:
            pool += tuple(int(a) for a in pool)
        word = data.draw(st.lists(st.sampled_from(pool), min_size=20, max_size=60))
        self.compare_runs(ra, [{q} for q in ra.locations.elements], [word])

    @pytest.mark.parametrize("make", [first_repeat_automaton, ascent_automaton, guess_store_automaton])
    def test_shipped_automata(self, make):
        ra = make()
        rng = Random(11)
        pool = tuple(pool_atoms(ra.sym, 4))
        words = [[rng.choice(pool) for _ in range(rng.randint(0, 8))] for _ in range(60)]
        words += [[rng.choice(pool) for _ in range(rng.randint(20, 40))] for _ in range(2)]
        self.compare_runs(ra, [{q} for q in ra.locations.elements], words)

    @pytest.mark.parametrize("sym", [EQ, ORD])
    def test_stay_is_stepped_after_the_frontier_changes(self, sym):
        """`q1` stays on a letter new to its register and `q2` leaves on
        one.  On `5 6 5 7`, `6` records the new-letter position as a stay
        at `q1`; `5` moves the frontier to `q2` with the same values, and
        `7`, in that position again, must be stepped to `acc`."""
        locs = SuppSet.of([("q0", Support()), ("q1", Support.of([0])), ("q2", Support.of([0])),
                           ("acc", Support())])
        same, other = Guard((Literal(True, "eq", (INPUT, Reg(0))),)), Guard((Literal(False, "eq", (INPUT, Reg(0))),))
        ts = (
            make_transition("q0", TRUE_GUARD, "q1", {0: INPUT}),
            make_transition("q1", other, "q1", {0: Reg(0)}),
            make_transition("q1", same, "q2", {0: Reg(0)}),
            make_transition("q2", same, "q2", {0: Reg(0)}),
            make_transition("q2", other, "acc", {}),
        )
        ra = RegisterAutomaton(sym, locs, "q0", frozenset(["acc"]), ts)
        assert validate(ra).ok
        word = [5, 6, 5, 7]
        assert run(ra, word) and not run(ra, word[:3])
        self.compare_runs(ra, [{q} for q in ra.locations.elements], [word, word + [5, 6]])

    @settings(max_examples=200, deadline=None)
    @given(perturbed_automata(), st.integers(3, 5), st.integers(0, 3))
    def test_reachable_configs(self, ra, n, depth):
        pool = pool_atoms(ra.sym, n)
        assert outcome(reachable_configs, ra, pool, depth) == outcome(oracle_reachable_configs, ra, pool, depth)

    def test_error_of_the_sorted_frontier(self):
        """After `5` the frontier is `z` then `a` in discovery order, `a`
        then `z` sorted.  On `6`, `z`'s guard raises `ValueError` and `a`'s
        `UnresolvedRegister`; the sorted loop meets `a` first."""
        locs = SuppSet.of([("p", Support()), ("z", Support.of([0])), ("a", Support.of([0]))])
        ts = (
            make_transition("p", TRUE_GUARD, "z", {0: INPUT}),
            make_transition("p", TRUE_GUARD, "a", {0: INPUT}),
            make_transition("z", Guard((Literal(True, "between", (INPUT, Reg(0))),)), "z", {0: Reg(0)}),
            make_transition("a", Guard((Literal(True, "eq", (INPUT, Reg(3))),)), "a", {0: Reg(0)}),
        )
        ra = RegisterAutomaton(EQ, locs, "p", frozenset(), ts)
        assert outcome(oracle_run, ra, [5, 6]) == (UnresolvedRegister, "3")
        assert outcome(run, ra, [5, 6]) == (UnresolvedRegister, "3")
        pool = Support.of([5, 6])
        assert outcome(reachable_configs, ra, pool, 2) == outcome(oracle_reachable_configs, ra, pool, 2)


    def test_register_domain_in_the_memo_key(self):
        """Unvalidated, `q` is reached with register 0 and with register 1
        holding the same value: one order type, two steps.  The second reads
        the register it lacks."""
        locs = SuppSet.of([("p", Support()), ("q", Support.of([0])), ("acc", Support())])
        ts = (
            make_transition("p", TRUE_GUARD, "q", {0: INPUT}),
            make_transition("p", TRUE_GUARD, "q", {1: INPUT}),
            make_transition("q", Guard((Literal(True, "eq", (INPUT, Reg(0))),)), "acc", {}),
        )
        ra = RegisterAutomaton(EQ, locs, "p", frozenset(["acc"]), ts)
        assert outcome(oracle_run, ra, [5, 5]) == (UnresolvedRegister, "0")
        assert outcome(run, ra, [5, 5]) == (UnresolvedRegister, "0")

    @pytest.mark.parametrize("sym", [EQ, SymmetryId.RENAMING])
    def test_lt_guard_under_a_symmetry_that_ignores_order(self, sym):
        """Unvalidated, an `lt` guard compares values that the symmetry does
        not order: after `5`, the input `3` passes it and `7` does not,
        though both are new to the register."""
        locs = SuppSet.of([("q0", Support()), ("q1", Support.of([0])), ("acc", Support())])
        ts = (
            make_transition("q0", TRUE_GUARD, "q1", {0: INPUT}),
            make_transition("q1", TRUE_GUARD, "q1", {0: Reg(0)}),
            make_transition("q1", Guard((Literal(True, "lt", (INPUT, Reg(0))),)), "acc", {}),
        )
        ra = RegisterAutomaton(sym, locs, "q0", frozenset(["acc"]), ts)
        for word, accepted in (([5, 3], True), ([5, 7, 3], True), ([5, 7], False)):
            assert outcome(run, ra, word) == outcome(oracle_run, ra, word) == ("ok", accepted)
        pool = Support.of([3, 5, 7])
        assert outcome(reachable_configs, ra, pool, 2) == outcome(oracle_reachable_configs, ra, pool, 2)


def positions_automaton(raising=False):
    """Total order, two registers `r0 < r1` at `two`, then one target per
    position of the input: below `r0`, on it, between, on `r1`, above.  `kept`
    stores the input alone, `wide` stores it between the registers (dropped
    unless it lies there).  With `raising`, an input below `r0` reaches a
    guard literal that has no interpretation."""
    two = Support.of([0, 1])
    locs = SuppSet.of([("p", Support()), ("one", Support.of([0])), ("two", two), ("kept", Support.of([1])),
                       ("wide", Support.of([0, 1, 2]))]
                      + [(q, two) for q in ("below", "on0", "mid", "on1", "above")])

    def lit(rel, x, y):
        return Literal(True, rel, (x, y))

    r0, r1 = Reg(0), Reg(1)
    keep = {0: r0, 1: r1}
    ts = [
        make_transition("p", TRUE_GUARD, "one", {0: INPUT}),
        make_transition("one", TRUE_GUARD, "two", {0: r0, 1: INPUT}),
        make_transition("two", TRUE_GUARD, "two", keep),
        make_transition("two", Guard((lit("lt", INPUT, r0),)), "below", keep),
        make_transition("two", Guard((lit("eq", INPUT, r0),)), "on0", keep),
        make_transition("two", Guard((lit("lt", r0, INPUT), lit("lt", INPUT, r1))), "mid", keep),
        make_transition("two", Guard((lit("eq", INPUT, r1),)), "on1", keep),
        make_transition("two", Guard((lit("lt", r1, INPUT),)), "above", keep),
        make_transition("two", TRUE_GUARD, "kept", {1: INPUT}),
        make_transition("two", TRUE_GUARD, "wide", {0: r0, 1: INPUT, 2: r1}),
    ]
    if raising:
        ts.append(make_transition("two", Guard((lit("lt", INPUT, r0), lit("between", INPUT, r0))), "two", keep))
    return RegisterAutomaton(ORD, locs, "p", frozenset(), tuple(ts))


class TestPositionsAgreeWithOracle:
    """The frontier loop names an orbit by the input's position among the
    register values; every position, and atoms of both types that are
    equal, give the sorted-frontier loop's answers and exceptions."""

    LETTERS = (1, Fraction(1, 2), 2, Fraction(2), 3, Fraction(7, 2), 5, Fraction(5), 9, Fraction(19, 2))

    @pytest.mark.parametrize("raising", [False, True])
    def test_run(self, raising):
        ra = positions_automaton(raising)
        assert validate(ra).ok != raising
        words = [[*prefix, a] for prefix in ([2, 5], [Fraction(2), 5], [2, Fraction(5)]) for a in self.LETTERS]
        words += [[2, 5, a, b] for a in self.LETTERS for b in self.LETTERS]
        TestOrbitMemoMatchesOracle.compare_runs(ra, [{q} for q in ra.locations.elements], words)

    @pytest.mark.parametrize("raising", [False, True])
    def test_run_after_a_long_stay(self, raising):
        """After `2, 5` the frontier stays on `3` and on `Fraction(3)`, so
        all but the first two of the 1,000 middle letters are skipped; a
        letter below `r0` then steps, and raises as the oracle does."""
        ra = positions_automaton(raising)
        ra = RegisterAutomaton(ra.sym, ra.locations, ra.initial, {"below"}, ra.transitions)
        word = [2, 5, *[3, Fraction(3)] * 500, 1]
        got = outcome(run, ra, word)
        assert got == outcome(oracle_run, ra, word)
        assert got == ((ValueError, "relation 'between' has no interpretation") if raising else ("ok", True))

    @pytest.mark.parametrize("raising", [False, True])
    @pytest.mark.parametrize("pool", [(Fraction(1, 2), 2, Fraction(7, 2), 5, 9), (1, Fraction(2), 3, Fraction(5), 9)])
    def test_reachable_configs(self, raising, pool):
        ra = positions_automaton(raising)
        pool = Support.of(pool)
        for depth in range(5):
            assert outcome(reachable_configs, ra, pool, depth) == outcome(oracle_reachable_configs, ra, pool, depth)

    def test_every_position_is_reached(self):
        ra = positions_automaton()
        reached = {c.base for c in reachable_configs(ra, Support.of([1, 2, 3, 5, 9]), 3)}
        assert {"below", "on0", "mid", "on1", "above", "kept", "wide"} <= reached

    def test_register_value_wins(self):
        """On a value the stored atom is the register's, as `order_type`
        keeps the first of equal values: `Fraction(2)` for input `2`."""
        ra = positions_automaton()
        c = config(ra, "two", {0: Fraction(2), 1: 5})
        kept = [d.pi(1) for d in step(ra, c, 2) if d.base == "kept"]
        assert kept == [2] and type(kept[0]) is Fraction


class CountedFraction(Fraction):
    """A `Fraction` that counts its comparisons in `CountedFraction.calls`."""

    calls = 0
    __hash__ = Fraction.__hash__

    def _counted(name):
        inner = getattr(Fraction, name)

        def compare(self, other):
            CountedFraction.calls += 1
            return inner(self, other)

        return compare

    __eq__, __lt__, __le__, __gt__, __ge__ = map(_counted, ("__eq__", "__lt__", "__le__", "__gt__", "__ge__"))
    del _counted


class TestLocateByFloor:
    """On `run`'s stay path a total-order letter is located by the integer
    floors of the frontier's values, and compared as a `Fraction` (by
    `_between`) only when some value shares its floor."""

    @pytest.mark.parametrize("accept", [False, True])
    def test_an_ascent_word_compares_a_constant_number_of_times(self, accept):
        """No letter after the first shares its floor: once the frontier
        stays, a letter is located with no `Fraction` comparison at all."""
        rng = Random(19)
        ra = ascent_automaton()
        counts = set()
        for n in (20, 200, 20000):
            first = CountedFraction(rng.randrange(10 ** 5, 10 ** 6), rng.randrange(50, 97))
            word = [first] + [CountedFraction(first - Fraction(rng.randrange(10 ** 5, 10 ** 6), rng.randrange(50, 97)))
                              for _ in range(n - 1)]
            if accept:
                word[n // 2] = CountedFraction(first + Fraction(3, 2))
            assert all(math.floor(a) != math.floor(first) for a in word[1:])
            CountedFraction.calls = 0
            assert run(ra, word) is accept
            counts.add(CountedFraction.calls)
        assert len(counts) == 1 and counts.pop() <= 10

    @pytest.mark.parametrize("make, length", [(ascent_automaton, 24), (positions_automaton, 24),
                                              (lambda: guess_store_automaton("total-order"), 12)])
    def test_run_on_same_floor_letters(self, make, length):
        """Letters that mostly share a floor with the frontier's values,
        negatives and `k` beside `Fraction(k)` included: `run` gives the
        sorted-frontier loop's answers."""
        ra = make()
        rng = Random(29)
        pool = [Fraction(k, 6) for k in range(-4, 10)] + [-1, 0, 1]
        words = [[rng.choice(pool) for _ in range(rng.randint(length // 2, length))] for _ in range(12)]
        TestOrbitMemoMatchesOracle.compare_runs(ra, [{q} for q in ra.locations.elements], words)


class TestOneStepPerOrbit:
    """`run` calls `step_full` once per location, register domain and
    position of the input among the register values, however long the
    word, and steps its frontier (`_moves`) only on a letter in a position
    among the frontier's values that it has not stayed on: no clock, a
    count."""

    @staticmethod
    def count_steps(monkeypatch, ra, word, name="step_full"):
        calls = []
        inner = getattr(automata_module, name)

        def counted(*args):
            calls.append(args)
            return inner(*args)

        monkeypatch.setattr(automata_module, name, counted)
        run(ra, word)
        return len(calls)

    @staticmethod
    def repeat_word(rng, n, accept):
        word = [1] + rng.sample(range(2, 10 * n), n - 1)
        if accept:
            word[n // 2] = 1
        return word

    @staticmethod
    def ascent_word(rng, n, accept):
        first = Fraction(rng.randrange(10 ** 5, 10 ** 6), rng.randrange(50, 97))
        word = [first] + [first - Fraction(rng.randrange(1, 10 ** 6), rng.randrange(50, 97)) for _ in range(n - 1)]
        if accept:
            word[n // 2] = first + Fraction(1, 3)
        return word

    @pytest.mark.parametrize("accept", [True, False])
    def test_long_words(self, monkeypatch, accept):
        """A fresh automaton per word: its step table starts empty."""
        rng = Random(7)
        for make_ra, make in ((first_repeat_automaton, self.repeat_word), (ascent_automaton, self.ascent_word)):
            counts = {self.count_steps(monkeypatch, make_ra(), make(rng, n, accept)) for n in (200, 2000, 20000)}
            assert len(counts) == 1 and counts.pop() <= 4

    @pytest.mark.parametrize("accept", [True, False])
    def test_long_words_step_the_frontier_a_few_times(self, monkeypatch, accept):
        """One unspied run first fills the automaton's tables, so `_inert`'s
        probes through `_moves` are cached and only `run`'s own calls are
        counted."""
        rng = Random(7)
        for ra, make in ((first_repeat_automaton(), self.repeat_word), (ascent_automaton(), self.ascent_word)):
            counts = set()
            for n in (200, 2000, 20000):
                word = make(rng, n, accept)
                run(ra, word)
                counts.add(self.count_steps(monkeypatch, ra, word, "_moves"))
                monkeypatch.undo()
            assert len(counts) == 1 and 1 <= counts.pop() <= 4

    def test_wide_frontier(self, monkeypatch):
        rng = Random(3)
        atoms = rng.sample(range(1000), 20)
        counts = [self.count_steps(monkeypatch, guess_store_automaton(), [rng.choice(atoms) for _ in range(n)])
                  for n in (40, 100)]
        assert counts[0] == counts[1] == 9  # k+1 positions at each location: 1+2+3+2+1

    def test_total_order_positions(self, monkeypatch):
        """Under total order the input sits on one of k register values or in
        one of k+1 gaps: at most 2k+1 steps per location and register domain."""
        rng = Random(5)
        atoms = rng.sample(range(1000), 20)
        for n in (40, 100):
            ra = guess_store_automaton("total-order")
            steps = Counter()

            def counted(ra, c, a):
                steps[c.base, c.pi.domain] += 1
                return step_full(ra, c, a)

            monkeypatch.setattr(automata_module, "step_full", counted)
            run(ra, [rng.choice(atoms) for _ in range(n)])
            assert steps[("s2", Support.of([0, 1]))] > 1
            assert all(m <= 2 * len(dom) + 1 for (_, dom), m in steps.items())


class TestOrbitTable:
    """The step table belongs to the automaton: `run`, `reachable_configs`
    and `step` on one automaton share it, and a position whose step raises
    is not stored."""

    @pytest.mark.parametrize("symmetry", ["equality", "total-order"])
    def test_no_position_is_stepped_twice(self, monkeypatch, symmetry):
        """`step_full` runs on rank templates, one per position, so a
        repeated `(location, valuation, input)` is a position stepped
        twice."""
        ra = guess_store_automaton(symmetry)
        rng = Random(31)
        atoms = rng.sample(range(1000), 10)
        first, second = ([rng.choice(atoms) for _ in range(40)] for _ in range(2))
        run(ra, first)
        steps = []

        def counted(ra, c, a):
            steps.append((c.base, c.pi.images.entries, a))
            return step_full(ra, c, a)

        monkeypatch.setattr(automata_module, "step_full", counted)
        assert run(ra, second) == oracle_run(ra, second)
        pool = Support.of(atoms[:4])
        assert reachable_configs(ra, pool, 3) == oracle_reachable_configs(ra, pool, 3)
        before = len(steps)
        assert step(ra, initial_config(ra), atoms[0]) == oracle_successors(ra, (initial_config(ra),), atoms[:1])
        assert len(steps) == before and len(set(steps)) == len(steps)

    def test_a_raising_position_is_not_stored(self):
        """Below `r0` the `raising` positions automaton reads a relation
        with no interpretation: each run raises as the oracle does, and the
        position is missing from the table after both."""
        ra = positions_automaton(raising=True)
        word = [2, 5, 3, 1]
        for _ in range(2):
            assert outcome(run, ra, word) == outcome(oracle_run, ra, word) == (
                ValueError, "relation 'between' has no interpretation")
        assert ("two", (0, 1), 0) not in ra._orbits and ("two", (0, 1), 2) in ra._orbits

    def test_fields_are_frozen(self):
        ra = first_repeat_automaton()
        with pytest.raises(dataclasses.FrozenInstanceError):
            ra.final = frozenset()


def spy_moves(monkeypatch):
    """Record `(keys, letters, gone, made)` for every `_moves` call that
    `run` makes; `_inert`'s probes and `_successors` go unrecorded."""
    calls = []
    inner = automata_module._moves

    def spied(ra, keys, letters, keep=False):
        keys = list(keys)
        gone, made = inner(ra, keys, letters, keep)
        if sys._getframe(1).f_code is run.__code__:
            calls.append((keys, letters, gone, made))
        return gone, made

    monkeypatch.setattr(automata_module, "_moves", spied)
    return calls


def successor_states(ra, word) -> list:
    """The configuration automaton's states along `word`, by `successor`."""
    states = [(initial_config(ra),)]
    for a in word:
        states.append(ConfigAutomaton(ra).successor(states[-1], a))
    return states


class TestInertKeys:
    """An inert key, which every letter outside its values keeps as it is,
    is stepped only on a letter equal to a value that moves it; the others
    on every letter."""

    @pytest.mark.parametrize("symmetry", ["equality", "total-order"])
    def test_wide_words_step_the_keys_that_hold_the_letter(self, monkeypatch, symmetry):
        """On a new letter only `s0` (which stores it) and `s1` (which adds
        it as a second register) change; `s2`, `s3` and `acc` keep every key
        there as it is, so their keys are handed in only on a letter they
        hold."""
        ra = guess_store_automaton(symmetry)
        rng = Random(13)
        atoms = rng.sample(range(1000), 20)
        words = [[rng.choice(atoms) for _ in range(100)] for _ in range(3)]
        for word in words:
            states = successor_states(ra, word)
            calls = spy_moves(monkeypatch)
            accepted = run(ra, word)
            monkeypatch.undo()
            assert calls and accepted and any(c.base == "acc" for c in states[-1])
            for keys, (a,), _, _ in calls:
                assert all(loc in ("s0", "s1") or a in vals for loc, _, vals in keys)
            handed, frontiers = sum(len(keys) for keys, _, _, _ in calls), sum(map(len, states[:-1]))
            assert frontiers > 10_000 and handed < frontiers / 4

    @staticmethod
    def leaving_automaton(symmetry):
        """`guess_store_automaton` whose `s2` keeps its pair only on an input
        other than the first register, where it moves on to `s3`: `s2` is
        inert, and a touched `s2` key leaves the frontier (`s1` cannot add it
        back, as storing its own value is inadmissible)."""
        ra = guess_store_automaton(symmetry)
        keep_unless_r0 = Guard((Literal(False, "eq", (INPUT, Reg(0))),))
        ts = tuple(Transition(t.source, keep_unless_r0, t.target, t.assign) if (t.source, t.target) == ("s2", "s2")
                   else t for t in ra.transitions)
        return RegisterAutomaton(ra.sym, ra.locations, ra.initial, ra.final, ts)

    @pytest.mark.parametrize("symmetry", ["equality", "total-order"])
    def test_a_doubled_self_loop_is_inert(self, symmetry):
        """With `s2 → s2` listed twice, both of its templates keep an `s2`
        key in place, so the key steps to itself alone and is inert."""
        ra = guess_store_automaton(symmetry)
        loop = next(t for t in ra.transitions if (t.source, t.target) == ("s2", "s2"))
        ra = RegisterAutomaton(ra.sym, ra.locations, ra.initial, ra.final, (*ra.transitions, loop))
        assert automata_module._inert(ra, "s2", (0, 1))
        rng = Random(17)
        atoms = rng.sample(range(100), 8)
        words = [[rng.choice(atoms) for _ in range(30)] for _ in range(3)]
        TestOrbitMemoMatchesOracle.compare_runs(ra, [{"s2"}, {"s3"}, {"acc"}], words)

    @pytest.mark.parametrize("symmetry", ["equality", "total-order"])
    def test_a_touched_inert_key_leaves(self, monkeypatch, symmetry):
        ra = self.leaving_automaton(symmetry)
        assert validate(ra).ok
        rng = Random(17)
        atoms = rng.sample(range(100), 8)
        words = [[rng.choice(atoms) for _ in range(30)] for _ in range(3)]
        calls = spy_moves(monkeypatch)
        TestOrbitMemoMatchesOracle.compare_runs(ra, [{"s2"}, {"s3"}, {"acc"}], words)
        left = [k for keys, _, gone, made in calls for k in gone if k[0] == "s2" and k not in made]
        assert calls and left

    def test_renaming_keys_are_never_inert(self, monkeypatch):
        """Under renaming every call hands in the whole frontier: the last
        call's keys, less those that went and were not made again, and the
        keys it made."""
        ra = guess_store_automaton("renaming")
        rng = Random(19)
        atoms = rng.sample(range(100), 6)
        words = [[rng.choice(atoms) for _ in range(30)] for _ in range(4)]
        for word in words:
            calls = spy_moves(monkeypatch)
            assert run(ra, word) == oracle_run(ra, word)
            monkeypatch.undo()
            assert calls
            frontier = {automata_module._key(initial_config(ra))}
            for keys, _, gone, made in calls:
                assert set(keys) == frontier
                frontier = frontier - set(gone) | set(made)

    @pytest.mark.parametrize("sym", [EQ, ORD])
    def test_error_with_inert_keys_live(self, sym):
        """`a` keeps a key on every letter outside its register, so it is
        inert; on its register's value a guard reads a missing register.
        `z` is active and raises on its register's value too, another error.
        After `4 5`, the letter `5` touches `a(5)`, not `a(4)`, and is handed
        `z` first: the replay in `_config_key` order lets `a(5)` decide."""
        locs = SuppSet.of([("p", Support()), ("a", Support.of([0])), ("z", Support.of([0])), ("y", Support())])
        on_r0 = Literal(True, "eq", (INPUT, Reg(0)))
        ts = (
            make_transition("p", TRUE_GUARD, "p", {}),
            make_transition("p", TRUE_GUARD, "a", {0: INPUT}),
            make_transition("p", TRUE_GUARD, "z", {0: INPUT}),
            make_transition("a", Guard((Literal(False, "eq", (INPUT, Reg(0))),)), "a", {0: Reg(0)}),
            make_transition("a", Guard((on_r0, Literal(True, "eq", (INPUT, Reg(3))))), "a", {0: Reg(0)}),
            make_transition("z", TRUE_GUARD, "y", {}),
            make_transition("z", Guard((on_r0, Literal(True, "between", (INPUT, Reg(0))))), "z", {0: Reg(0)}),
        )
        ra = RegisterAutomaton(sym, locs, "p", frozenset(["y"]), ts)
        assert automata_module._inert(ra, "a", (0,)) and not automata_module._inert(ra, "z", (0,))
        for word, want in (([4, 5, 5], (UnresolvedRegister, "3")), ([4, 5, 6], ("ok", True)),
                           ([4, 5, 6, 4], (UnresolvedRegister, "3"))):
            assert outcome(run, ra, word) == outcome(oracle_run, ra, word) == want


class TestFrontierByChanges:
    """`run` changes its frontier by what `_moves` reports: a key that a
    letter keeps is left as it is, a key that goes leaves unless another key
    makes it again, and an inert key is handed in only on a letter equal to
    the value of a register that moves it.  Each against `oracle_run`."""

    @staticmethod
    def swap_automaton(sym):
        """`q` moves to `r` on any letter but its register's value; `r` keeps
        itself and makes `q` again.  Once both hold `x`, a letter other than
        `x` steps `q(x)` away while `r(x)` makes it again."""
        locs = SuppSet.of([("p", Support()), ("q", Support.of([0])), ("r", Support.of([0])), ("acc", Support())])
        same, other = Guard((Literal(True, "eq", (INPUT, Reg(0))),)), Guard((Literal(False, "eq", (INPUT, Reg(0))),))
        ts = (
            make_transition("p", TRUE_GUARD, "q", {0: INPUT}),
            make_transition("q", other, "r", {0: Reg(0)}),
            make_transition("q", same, "acc", {}),
            make_transition("r", TRUE_GUARD, "r", {0: Reg(0)}),
            make_transition("r", TRUE_GUARD, "q", {0: Reg(0)}),
            make_transition("acc", TRUE_GUARD, "acc", {}),
        )
        return RegisterAutomaton(sym, locs, "p", frozenset(["acc"]), ts)

    @pytest.mark.parametrize("sym", [EQ, ORD])
    def test_a_key_that_goes_and_is_made_again_stays(self, monkeypatch, sym):
        """On `8` the frontier `{q(5), r(5)}` loses `q(5)` to its own step
        and gets it back from `r(5)`: it stays, so `9` and `10` are skipped,
        and the last `5` still steps `q(5)` to `acc`."""
        ra = self.swap_automaton(sym)
        assert validate(ra).ok
        word = [5, 6, 7, 8, 9, 10, 5]
        calls = spy_moves(monkeypatch)
        assert run(ra, word) is oracle_run(ra, word) is True
        q5 = ("q", (0,), (5,))
        assert [a for _, (a,), _, _ in calls] == [5, 6, 7, 8, 5]
        _, _, gone, made = calls[3]
        assert gone == [q5] and q5 in made
        assert q5 in calls[4][0]
        monkeypatch.undo()
        rng = Random(43)
        words = [word] + [[rng.choice([1, 2, 3, 5, 8]) for _ in range(12)] for _ in range(20)]
        TestOrbitMemoMatchesOracle.compare_runs(ra, [{q} for q in ra.locations.elements], words)

    @pytest.mark.parametrize("symmetry", ["equality", "total-order"])
    def test_a_second_register_does_not_hand_in_its_key(self, monkeypatch, symmetry):
        """`s2` moves only on its first register's value, where it goes on
        to `s3`.  On `1 3 2 3` the last `3` is stepped, for `s1(2)` makes
        `s2(2, 3)`, while `s2(1, 3)`, which holds it second, is not handed
        in."""
        ra = guess_store_automaton(symmetry)
        word = [1, 3, 2, 3]
        calls = spy_moves(monkeypatch)
        assert run(ra, word) is oracle_run(ra, word)
        assert any(c.base == "s2" and c.pi.images.entries == ((0, 1), (1, 3))
                   for c in successor_states(ra, word)[3])
        assert calls[-1][1] == (3,) and ("s2", (0, 1), (1, 3)) not in calls[-1][0]
        rng = Random(41)
        atoms = rng.sample(range(1000), 12)
        words = [word] + [[rng.choice(atoms) for _ in range(60)] for _ in range(3)]
        for w in words:
            del calls[:]
            assert run(ra, w) is oracle_run(ra, w)
            s2_handed = [(vals, a) for keys, (a,), _, _ in calls for loc, _, vals in keys if loc == "s2"]
            assert calls and all(vals[0] == a for vals, a in s2_handed)
        assert s2_handed

    @pytest.mark.parametrize("symmetry", ["equality", "total-order"])
    def test_inert_flags(self, symmetry):
        """`1 << k` marks an inert key with k registers, so one with none
        (`acc`) is truthy too; bit i marks a register whose value moves it."""
        ra = guess_store_automaton(symmetry)
        inert = automata_module._inert
        assert inert(ra, "acc", ()) == 1
        assert not inert(ra, "s0", ()) and not inert(ra, "s1", (0,))
        assert inert(ra, "s2", (0, 1)) == 0b101 and inert(ra, "s3", (1,)) == 0b11
        assert not inert(guess_store_automaton("renaming"), "acc", ())
        rng = Random(47)
        words = [[rng.choice(range(6)) for _ in range(rng.randint(0, 14))] for _ in range(30)]
        TestOrbitMemoMatchesOracle.compare_runs(ra, [{q} for q in ra.locations.elements], words)


# --- every word up to symmetry, against the oracle ---

def equality_types(n: int) -> list:
    """One word per equality type of length `n`: restricted growth strings,
    each letter the index of its class in order of first appearance."""
    words = [()]
    for _ in range(n):
        words = [w + (c,) for w in words for c in range(max(w, default=-1) + 2)]
    return words


def order_types(n: int) -> list:
    """One word per order type of length `n`: each letter its rank among the
    word's distinct letters, every rank from 0 up used."""
    return [w for w in itertools.product(range(n), repeat=n) if set(w) == set(range(max(w, default=-1) + 1))]


def oracle_live(ra, word) -> set:
    """The locations of the sorted-frontier loop's frontier after `word`."""
    frontier = (initial_config(ra),)
    for a in word:
        frontier = oracle_successors(ra, frontier, (a,))
    return {c.base for c in frontier}


def live_by_run(ra, word, variants=None) -> set:
    """The locations `run` finds live after `word`: one run per location,
    each with that location alone final."""
    variants = variants or single_final_variants(ra)
    return {q for q, v in variants if run(v, word)}


def single_final_variants(ra) -> list:
    return [(q, RegisterAutomaton(ra.sym, ra.locations, ra.initial, frozenset([q]), ra.transitions))
            for q in ra.locations.elements]


def shipped_automaton(name, sym):
    spec = json.loads((DATA / f"{name}.json").read_text())
    return automaton_from_json({**spec, "symmetry": sym.value})


def ascent_under_equality():
    """`ascent_after_first` compares with `lt`, so under equality `run`
    locates letters by the `_ranked` fallback."""
    return shipped_automaton("ascent_after_first", EQ)


def second_again_automaton(sym):
    """Stores the first two letters and accepts once the second comes again;
    under total order only a second letter above the first can be stored.
    The frontier stays on a letter between the two, and under total order a
    letter on the second value that shares its floor with the first must
    not be taken for a letter in the gap."""
    r0, r1 = {"reg": 0}, {"reg": 1}
    return automaton_from_json({
        "symmetry": sym.value,
        "locations": {"elements": [{"id": q, "support": s} for q, s in
                                   (("q0", []), ("q1", [0]), ("q2", [0, 1]), ("acc", []))]},
        "initial": "q0",
        "final": ["acc"],
        "transitions": [
            {"from": "q0", "to": "q1", "assign": {"0": "input"}},
            {"from": "q1", "to": "q2", "assign": {"0": r0, "1": "input"}},
            {"from": "q2", "to": "q2", "assign": {"0": r0, "1": r1}},
            {"from": "q2", "to": "acc", "assign": {}, "guard": [[True, "eq", ["input", r1]]]},
            {"from": "acc", "to": "acc", "assign": {}},
        ],
    })


class TestEveryWordUpToSymmetry:
    """`run` is equivariant and starts with no registers, so the words of a
    length fall into finitely many orbits: equality types under equality,
    order types under total order.  One word per orbit checks every word of
    that length; the fast paths are not written equivariantly, so each orbit
    gets several representatives, each aimed at one of them.  Under equality
    `ascent_after_first` compares with `lt` and runs the `_ranked` fallback."""

    EQUALITY = {
        "naturals": list,
        "descending": lambda w: [10 ** 6 - 7 * c for c in w],  # sorted values reverse first appearance
    }
    ORDER = {
        "naturals": list,
        "one floor": lambda w: [Fraction(r + 1, len(w) + 1) for r in w],  # all in (0, 1): `_between` compares
        "k and Fraction(k)": lambda w: [Fraction(r) if i % 2 else r for i, r in enumerate(w)],
        # negative ints and halves, pairs of them on one floor
        "negatives": lambda w: [(r - 2 * len(w)) // 2 if r % 2 == 0 else Fraction(r - 2 * len(w), 2) for r in w],
    }

    AUTOMATA = {
        "first_repeat": lambda sym: shipped_automaton("first_repeat", sym),
        "ascent_after_first": lambda sym: shipped_automaton("ascent_after_first", sym),
        "guess_store": lambda sym: guess_store_automaton(sym.value),
        "second_again": second_again_automaton,
    }

    @pytest.mark.parametrize("sym, longest", [(EQ, 6), (ORD, 5)])
    @pytest.mark.parametrize("name", AUTOMATA)
    def test_run_matches_oracle(self, name, sym, longest):
        ra = self.AUTOMATA[name](sym)
        variants = single_final_variants(ra)
        types, schemes = (equality_types, self.EQUALITY) if sym is EQ else (order_types, self.ORDER)
        for n in range(longest + 1):
            for w in types(n):
                for scheme in schemes.values():
                    word = scheme(w)
                    assert live_by_run(ra, word, variants) == oracle_live(ra, word), (name, word)

    def test_the_corpus_counts_orbits(self):
        """Bell numbers under equality, Fubini numbers under total order."""
        assert [len(equality_types(n)) for n in range(7)] == [1, 1, 2, 5, 15, 52, 203]
        assert [len(order_types(n)) for n in range(6)] == [1, 1, 3, 13, 75, 541]


class TestOutOfDomainOnTheSkipPath:
    """`run` checks a letter's domain inline and calls `check_atom` only when
    that check fails, so a bad letter raises `check_atom`'s exception, with
    its message, before the frontier stays and after."""

    # before any letter, before the frontier stays, on the letter that stays it, two letters after, and
    # after a thousand: distinct and descending, so below the first letter under total order, and in
    # one gap of the order type under `_ranked`
    PREFIXES = ([], [5], [5, 3], [5, 3, 2, 1], [1002, *range(1001, 0, -1)])

    @pytest.mark.parametrize("make, letter", [(first_repeat_automaton, a) for a in (True, -1, 1.5, Fraction(1, 2), "a")]
                             + [(ascent_automaton, a) for a in (True, 1.5)]
                             + [(ascent_under_equality, a) for a in (True, -1, 1.5, Fraction(1, 2), "a")])
    def test_raises_as_check_atom(self, make, letter):
        ra = make()
        want = outcome(check_atom, ra.sym, letter)
        assert want[0] is ValueError
        for prefix in self.PREFIXES:
            assert outcome(run, ra, [*prefix, letter]) == want
            assert outcome(run, ra, [*prefix, letter, 4]) == want

    @pytest.mark.parametrize("make", [first_repeat_automaton, ascent_automaton])
    def test_an_int_subclass_is_accepted(self, make):
        class Nat(int):
            pass

        ra = make()
        for word in ([Nat(5), Nat(3), 3, Nat(2)], [Nat(5), Nat(3), 3, Nat(2), Nat(5)], [5, Nat(3), Nat(7)]):
            assert run(ra, word) == oracle_run(ra, word)
            assert live_by_run(ra, word) == oracle_live(ra, word)

    @pytest.mark.parametrize("make", [ascent_automaton, lambda: guess_store_automaton("total-order")])
    def test_ints_and_equal_fractions_mixed(self, make):
        """Every word of length at most 4 over `1, 2, Fraction(2), 5/2, 3`."""
        ra = make()
        variants = single_final_variants(ra)
        pool = (1, 2, Fraction(2), Fraction(5, 2), 3)
        for n in range(5):
            for word in itertools.product(pool, repeat=n):
                assert live_by_run(ra, word, variants) == oracle_live(ra, word), word

    @staticmethod
    def repeat_stay_automaton():
        """Equality: stores the first letter and stays while it repeats; any
        other letter moves to `gone`, which has no registers.  The frontier
        stays on the stored value and not on a new letter."""
        r0 = {"reg": 0}
        return automaton_from_json({
            "symmetry": "equality",
            "locations": {"elements": [{"id": "q0", "support": []}, {"id": "q1", "support": [0]},
                                       {"id": "gone", "support": []}]},
            "initial": "q0",
            "final": ["q1"],
            "transitions": [
                {"from": "q0", "to": "q1", "assign": {"0": "input"}},
                {"from": "q1", "to": "q1", "assign": {"0": r0}, "guard": [[True, "eq", ["input", r0]]]},
                {"from": "q1", "to": "gone", "assign": {}, "guard": [[False, "eq", ["input", r0]]]},
                {"from": "gone", "to": "gone", "assign": {}},
            ],
        })

    @pytest.mark.parametrize("make, word", [
        (first_repeat_automaton, [1, *range(2, 1003)]),  # new letters stay: 1 is the value that does not
        (repeat_stay_automaton, [1] * 1002),  # only 1 stays
        (ascent_under_equality, [1, *[0] * 1001]),
        (ascent_automaton, [1, *range(-1, -1002, -1)]),
    ], ids=["among new", "among value", "ranked", "between"])
    def test_true_while_one_is_a_value(self, make, word):
        """`True == 1` and both hash alike, so a set of values would take
        `True` for the value `1`: the type test must come first."""
        ra = make()
        assert run(ra, word) == oracle_run(ra, word)
        for tail in ([True], [True, 1], [True, 2]):
            assert outcome(run, ra, [*word, *tail]) == (ValueError, "True is not an exact atom")

    @pytest.mark.parametrize("accept", [False, True])
    @pytest.mark.parametrize("make, prefix, accepting", [
        (ascent_automaton, [1000], 1001), (lambda: second_again_automaton(ORD), [-100, 2000], 2000)],
        ids=["ascent", "second_again"])
    def test_total_order_letters_of_every_type_in_a_skipped_run(self, make, prefix, accepting, accept):
        """A negative `int`, an `int` subclass and a `Fraction` subclass among
        letters that the frontier stays on: all in (-99, 999), below the
        ascent's first letter and between `second_again`'s two."""
        class Nat(int):
            pass

        class Frac(Fraction):
            pass

        ra = make()
        rng = Random(43)
        for odd in (-7, Nat(3), Frac(5, 2), Nat(0), Frac(-13, 4)):
            for _ in range(3):
                word = [*prefix, *(Fraction(rng.randrange(-99 * 7, 999 * 7), 7) for _ in range(300))]
                word[rng.randrange(len(prefix) + 1, len(word))] = odd
                if accept:
                    word[rng.randrange(len(word) // 2, len(word))] = accepting
                assert run(ra, word) is accept is oracle_run(ra, word), (odd, word)
                assert live_by_run(ra, word) == oracle_live(ra, word)


class TestStepPath:
    """`_moves` locates a letter under `_among` inline and renames each
    stored template with its `itemgetter`: spies and the step table's keys,
    no clock."""

    def test_moves_makes_no_among_call(self, monkeypatch):
        """On the guess-and-store 100-letter words under equality.  The spy
        is set before the automaton is built, so that `ra._locate` is it."""
        callers = Counter()
        inner = automata_module._among

        def spied(vals, a):
            callers[sys._getframe(1).f_code.co_name] += 1
            return inner(vals, a)

        monkeypatch.setattr(automata_module, "_among", spied)
        ra = guess_store_automaton()
        assert ra._locate is spied
        steps = spy_moves(monkeypatch)
        rng = Random(3)
        atoms = rng.sample(range(1000), 20)
        for _ in range(4):
            word = [rng.choice(atoms) for _ in range(100)]
            assert run(ra, word) == oracle_run(ra, word)
        assert sum(len(keys) for keys, *_ in steps) > 100
        assert callers["_moves"] == 0 and callers["run"] > 0, callers

    # Every position of every location and register domain under `_among`
    # (k+1) and `_between` (2k+1), and the order types that occur under
    # `_ranked`: the inline locate and the shared lookup add and lose none.
    ORBIT_KEYS = {
        ("guess_store", EQ): {("acc", (), 0), ("s0", (), 0), ("s1", (0,), 0), ("s1", (0,), 1), ("s2", (0, 1), 0),
                              ("s2", (0, 1), 1), ("s2", (0, 1), 2), ("s3", (1,), 0), ("s3", (1,), 1)},
        ("guess_store", ORD): {("acc", (), 0), ("s0", (), 0), ("s1", (0,), 0), ("s1", (0,), 1), ("s1", (0,), 2),
                               ("s2", (0, 1), 0), ("s2", (0, 1), 1), ("s2", (0, 1), 2), ("s2", (0, 1), 3),
                               ("s2", (0, 1), 4), ("s3", (1,), 0), ("s3", (1,), 1), ("s3", (1,), 2)},
        ("ascent_after_first", EQ): {("q0", (), (0,)), ("q1", (0,), (0, 1)), ("q1", (0,), (1, 0)), ("qa", (), (0,))},
        ("ascent_after_first", ORD): {("q0", (), 0), ("q1", (0,), 0), ("q1", (0,), 2), ("qa", (), 0)},
        ("first_repeat", EQ): {("q0", (), 0), ("q1", (0,), 0), ("q1", (0,), 1), ("qa", (), 0)},
        ("first_repeat", ORD): {("q0", (), 0), ("q1", (0,), 0), ("q1", (0,), 1), ("q1", (0,), 2), ("qa", (), 0)},
    }

    @pytest.mark.parametrize("name, sym", ORBIT_KEYS, ids=lambda v: getattr(v, "value", v))
    def test_the_step_table_keys_at_seed_1(self, name, sym):
        """Words of 40-100 letters over 20 atoms drawn at seed 1."""
        ra = guess_store_automaton(sym.value) if name == "guess_store" else shipped_automaton(name, sym)
        rng = Random(1)
        atoms = rng.sample(range(1000), 20)
        for n in (40, 60, 80, 100):
            word = [rng.choice(atoms) for _ in range(n)]
            assert run(ra, word) == oracle_run(ra, word)
        assert set(ra._orbits) == self.ORBIT_KEYS[name, sym]


class TestSkippedLettersMakeNoCall:
    """A letter that `run` skips is checked and located inline: spies on
    `check_atom` and on every locator, set before the automaton is built so
    that `ra._locate` is one of them, count a few calls per step of the
    frontier, not one per letter.  No clock."""

    SPIED = ("check_atom", "_among", "_between", "_ranked", "_moves")

    @pytest.mark.parametrize("accept", [True, False])
    @pytest.mark.parametrize("make_ra, make", [(first_repeat_automaton, TestOneStepPerOrbit.repeat_word),
                                               (ascent_automaton, TestOneStepPerOrbit.ascent_word)])
    def test_two_thousand_letters(self, monkeypatch, make_ra, make, accept):
        calls = Counter()
        for name in self.SPIED:
            def spied(*args, _inner=getattr(automata_module, name), _name=name):
                calls[_name] += 1
                if _name == "_moves" and sys._getframe(1).f_code is run.__code__:
                    calls["run"] += 1
                return _inner(*args)

            monkeypatch.setattr(automata_module, name, spied)
        ra = make_ra()
        assert ra._locate in (automata_module._among, automata_module._between)
        word = make(Random(37), 2000, accept)
        assert run(ra, word) is accept
        steps = calls.pop("_moves")  # `run`'s steps and `_inert`'s probes
        assert 0 < calls.pop("run") <= steps <= 8
        assert all(n <= 3 * steps for n in calls.values()), calls
