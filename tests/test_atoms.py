from fractions import Fraction
from random import Random

import pytest
from hypothesis import given, strategies as st

from suppsets.atoms import (
    _pwl_apply,
    _pwl_canonical,
    FiniteMap,
    Support,
    SymmetryId,
    apply,
    atom_from_json,
    check_atom,
    compose,
    extend_to_global,
    extend_to_global_alternate,
    finite_perm,
    fresh,
    fresh_atoms,
    global_map_from_json,
    global_map_to_json,
    identity,
    inverse,
    is_admissible,
    lock_free_witness,
    pool_atoms,
    pwl_map,
    transposition,
)
from suppsets.checks import random_admissible, random_global

EQ = SymmetryId.EQUALITY
ORD = SymmetryId.TOTAL_ORDER
RN = SymmetryId.RENAMING

perm_dicts = st.permutations(list(range(5))).map(lambda p: dict(zip(range(5), p)))


class TestApply:
    def test_transposition(self):
        assert apply(transposition(EQ, 0, 1), 0) == 1

    def test_identity(self):
        assert apply(identity(EQ), 7) == 7

    def test_pwl_interpolation(self):
        g = pwl_map({0: 0, 2: 2, 1: Fraction(3, 2)})
        assert apply(g, Fraction(1, 2)) == Fraction(3, 4)

    def test_pwl_is_monotone_bijective_on_samples(self):
        g = pwl_map({0: 0, 2: 2, 1: Fraction(3, 2)})
        xs = [Fraction(n, 4) for n in range(-8, 17)]
        ys = [apply(g, x) for x in xs]
        assert ys == sorted(ys) and len(set(ys)) == len(ys)
        assert all(apply(inverse(g), y) == x for x, y in zip(xs, ys))

    def test_bool_rejected_though_the_table_holds_its_int(self):
        """`True == 1` and both hash alike, so the permutation's table alone
        would map `True` to 2: the atom check must come first."""
        with pytest.raises(ValueError, match=r"^True is not an exact atom$"):
            apply(finite_perm(EQ, {1: 2, 2: 1}), True)


def pwl_canonical_restart(points) -> tuple:
    """The former canonical form, as an oracle: drop any breakpoint the
    others already predict, and start again until none is left."""
    pts = sorted(points)
    changed = True
    while changed:
        changed = False
        for i in range(len(pts)):
            rest = tuple(pts[:i] + pts[i + 1:])
            if _pwl_apply(rest, pts[i][0]) == pts[i][1]:
                pts = list(rest)
                changed = True
                break
    return tuple(pts)


# Strictly increasing breakpoint lists with small rational steps, so that
# collinear runs, unit-slope stretches and translations come up often.
steps = st.fractions(min_value=Fraction(1, 2), max_value=3, max_denominator=2)
breakpoints = st.tuples(
    st.integers(-4, 4), st.integers(-4, 4), st.lists(st.tuples(steps, steps), max_size=6),
).map(lambda t: [(t[0] + sum(dx for dx, _ in t[2][:i]), t[1] + sum(dy for _, dy in t[2][:i]))
                 for i in range(len(t[2]) + 1)])


class TestPwlCanonical:
    def test_translation_keeps_its_last_breakpoint(self):
        assert _pwl_canonical({-2: 2, 2: 6, 5: 9}.items()) == ((5, 9),)

    def test_identity_keeps_nothing(self):
        assert _pwl_canonical({-2: -2, 2: 2, 5: 5}.items()) == ()

    def test_only_slope_changes_stay(self):
        assert _pwl_canonical([(0, 0), (1, 2), (2, 4), (3, 5)]) == ((0, 0), (2, 4))

    @given(breakpoints)
    def test_matches_the_restart_loop(self, pts):
        got = _pwl_canonical(pts)
        assert got == pwl_canonical_restart(pts)
        assert all(_pwl_apply(got, x) == y for x, y in pts)


class TestCompose:
    def test_involution(self):
        s = transposition(EQ, 0, 1)
        assert compose(s, s) == identity(EQ)

    def test_pointwise_law(self):
        g, h = transposition(EQ, 0, 1), transposition(EQ, 1, 2)
        c = compose(g, h)
        assert all(apply(c, a) == apply(g, apply(h, a)) for a in range(4))

    def test_unit_law(self):
        h = transposition(EQ, 2, 5)
        assert compose(identity(EQ), h) == h
        assert compose(h, identity(EQ)) == h

    def test_mixed_symmetries_rejected(self):
        with pytest.raises(ValueError):
            compose(identity(EQ), identity(RN))

    @given(perm_dicts, perm_dicts)
    def test_pointwise_law_random(self, d1, d2):
        g, h = finite_perm(EQ, d1), finite_perm(EQ, d2)
        c = compose(g, h)
        assert all(apply(c, a) == apply(g, apply(h, a)) for a in range(7))

    @given(perm_dicts, perm_dicts, perm_dicts)
    def test_associative(self, d1, d2, d3):
        g, h, k = (finite_perm(EQ, d) for d in (d1, d2, d3))
        assert compose(compose(g, h), k) == compose(g, compose(h, k))


class TestAdmissible:
    def test_equality_needs_injectivity(self):
        assert not is_admissible(EQ, FiniteMap.of({0: 3, 1: 3}))

    def test_order_needs_monotonicity(self):
        assert not is_admissible(ORD, FiniteMap.of({0: 5, 1: 2}))

    def test_renaming_takes_anything(self):
        assert is_admissible(RN, FiniteMap.of({0: 3, 1: 3}))

    def test_wrong_atom_domain(self):
        with pytest.raises(ValueError):
            is_admissible(EQ, FiniteMap.of({Fraction(1, 2): 0}))


class _Nat(int):
    """An `int` subclass: it takes the full atom check, not the fast path."""


class _Frac(Fraction):
    pass


class TestCheckAtom:
    """The fast path (a plain `int` >= 0, a plain `Fraction` under total
    order) gives the same results and messages as the full check."""

    @pytest.mark.parametrize("sym, a, message", [
        (EQ, True, "True is not an exact atom"),
        (ORD, True, "True is not an exact atom"),
        (RN, False, "False is not an exact atom"),
        (EQ, -1, "-1 is not a natural-number atom (equality)"),
        (RN, -1, "-1 is not a natural-number atom (renaming)"),
        (EQ, 0.5, "0.5 is not an exact atom"),
        (ORD, 0.5, "0.5 is not an exact atom"),
        (EQ, Fraction(1, 2), "Fraction(1, 2) is not a natural-number atom (equality)"),
        (RN, Fraction(2), "Fraction(2, 1) is not a natural-number atom (renaming)"),
        (EQ, _Nat(-3), "-3 is not a natural-number atom (equality)"),
        (EQ, _Frac(1, 2), "_Frac(1, 2) is not a natural-number atom (equality)"),
    ])
    def test_rejects(self, sym, a, message):
        with pytest.raises(ValueError) as exc:
            check_atom(sym, a)
        assert str(exc.value) == message

    @pytest.mark.parametrize("sym, a", [
        (EQ, 0), (RN, 7), (ORD, 0), (ORD, 5), (ORD, -1),
        (ORD, Fraction(1, 2)), (ORD, Fraction(-7, 3)), (ORD, Fraction(4)),
        (EQ, _Nat(3)), (ORD, _Nat(3)), (ORD, _Frac(1, 2)),
    ])
    def test_accepts_and_returns_the_atom(self, sym, a):
        assert check_atom(sym, a) is a

    def test_serves_apply_admissibility_and_json(self):
        with pytest.raises(ValueError, match=r"^True is not an exact atom$"):
            apply(identity(EQ), True)
        with pytest.raises(ValueError, match=r"^-1 is not a natural-number atom \(equality\)$"):
            is_admissible(EQ, FiniteMap(((0, -1),)))
        with pytest.raises(ValueError, match=r"^Fraction\(1, 2\) is not a natural-number atom \(equality\)$"):
            atom_from_json("1/2", EQ)
        assert atom_from_json("1/2", ORD) == Fraction(1, 2)
        for sym in (None, EQ, ORD):
            with pytest.raises(ValueError, match=r"^bad atom literal '1/0'$"):
                atom_from_json("1/0", sym)
        assert apply(identity(ORD), Fraction(1, 2)) == Fraction(1, 2)
        assert is_admissible(ORD, FiniteMap(((0, Fraction(1, 2)), (1, 3))))


class TestExtendToGlobal:
    def test_already_a_permutation(self):
        g = extend_to_global(EQ, FiniteMap.of({0: 1, 1: 0}))
        assert g == transposition(EQ, 0, 1)

    def test_cycle_closing(self):
        g = extend_to_global(EQ, FiniteMap.of({0: 2}))
        assert [apply(g, a) for a in range(4)] == [2, 1, 0, 3]

    def test_order_extension_is_monotone(self):
        p = FiniteMap.of({0: 0, 1: Fraction(3, 2), 2: 2})
        g = extend_to_global(ORD, p)
        xs = [Fraction(n, 3) for n in range(-6, 13)]
        ys = [apply(g, x) for x in xs]
        assert ys == sorted(set(ys))
        assert all(apply(g, a) == b for a, b in p.items())

    def test_inadmissible_rejected(self):
        with pytest.raises(ValueError):
            extend_to_global(EQ, FiniteMap.of({0: 3, 1: 3}))

    @pytest.mark.parametrize("sym", [EQ, ORD, RN])
    @pytest.mark.parametrize("seed", range(8))
    def test_restriction_recovers_the_map(self, sym, seed):
        rng = Random(seed)
        pool = pool_atoms(sym, 7)
        dom = Support.of(rng.sample(tuple(pool), rng.randint(0, 4)))
        p = random_admissible(rng, sym, dom, pool)
        for builder in (extend_to_global, extend_to_global_alternate):
            g = builder(sym, p)
            assert all(apply(g, a) == b for a, b in p.items()), builder.__name__

    @pytest.mark.parametrize("seed", range(8))
    def test_completions_differ(self, seed):
        rng = Random(seed)
        for sym in (EQ, ORD, RN):
            pool = pool_atoms(sym, 6)
            dom = Support.of(rng.sample(tuple(pool), rng.randint(0, 3)))
            p = random_admissible(rng, sym, dom, pool)
            assert extend_to_global(sym, p) != extend_to_global_alternate(sym, p)


class TestLockFreeWitness:
    def test_equality_smallest_fresh(self):
        w = lock_free_witness(EQ, Support.of([1, 2]), 0)
        assert w == transposition(EQ, 0, 3)

    def test_order_midpoint(self):
        w = lock_free_witness(ORD, Support.of([0, 2]), 1)
        assert apply(w, 1) == Fraction(3, 2)
        assert apply(w, 0) == 0 and apply(w, 2) == 2

    def test_renaming_fresh_is_zero(self):
        w = lock_free_witness(RN, Support(), 5)
        assert apply(w, 5) == 0 and apply(w, 0) == 5

    def test_fixed_point_rejected(self):
        with pytest.raises(ValueError):
            lock_free_witness(EQ, Support.of([3]), 3)

    @pytest.mark.parametrize("sym", [EQ, ORD, RN])
    @pytest.mark.parametrize("seed", range(12))
    def test_witness_law(self, sym, seed):
        rng = Random(seed)
        pool = pool_atoms(sym, 9)
        fixed = Support.of(rng.sample(tuple(pool), rng.randint(0, 5)))
        a = fresh(sym, fixed)
        w = lock_free_witness(sym, fixed, a)
        assert all(apply(w, r) == r for r in fixed)
        assert apply(w, a) != a


class TestFresh:
    def test_smallest_gap(self):
        assert fresh(EQ, Support.of([0, 1, 3])) == 2

    def test_empty(self):
        assert fresh(EQ, Support()) == 0

    def test_order_max_plus_one(self):
        avoid = Support.of([Fraction(-1), Fraction(5, 2)])
        a = fresh(ORD, avoid)
        assert a == Fraction(7, 2) and a not in avoid

    @pytest.mark.parametrize("sym, avoid, want", [
        *((sym, avoid, want) for sym in (EQ, RN) for avoid, want in (
            (Support(), 0), (Support.of(range(6)), 6), (Support.of([0, 1, 3, 7]), 2), (Support.of([1, 2]), 0))),
        (ORD, Support(), Fraction(0)),
        (ORD, Support.of(range(6)), 6),
        (ORD, Support.of([0, 1, 3, 7]), 8),
        (ORD, Support.of([Fraction(-1), Fraction(5, 2)]), Fraction(7, 2)),
        (ORD, Support.of([Fraction(-3), Fraction(-1, 2)]), Fraction(1, 2)),
    ])
    def test_first_of_fresh_atoms(self, sym, avoid, want):
        """The least natural outside `avoid`, or one past its maximum (0 when
        empty) under total order: `fresh_atoms`' first pick."""
        got = fresh(sym, avoid)
        assert got == want == fresh_atoms(sym, avoid, 1)[0]
        assert type(got) is type(want) is type(fresh_atoms(sym, avoid, 1)[0])


def _fresh_one_at_a_time(sym, avoid, count):
    """The oracle for `fresh_atoms`: `count` calls of `fresh`, each avoiding
    the atoms picked before it."""
    out = []
    for _ in range(count):
        out.append(fresh(sym, avoid))
        avoid = avoid.union(Support.of([out[-1]]))
    return out


class TestFreshAtoms:
    @pytest.mark.parametrize("seed", range(30))
    @pytest.mark.parametrize("sym", [EQ, ORD, RN])
    def test_agrees_with_one_fresh_at_a_time(self, sym, seed):
        rng = Random(seed)
        for count in [*range(-3, 9)] * 3:
            atoms = [rng.randrange(12) for _ in range(rng.randint(0, 8))]
            if sym is ORD and rng.random() < 0.5:  # rational avoid sets, negative ones too
                atoms = [Fraction(rng.randrange(-20, 20), rng.randint(1, 4)) for _ in atoms]
            avoid = Support.of(atoms)
            got, want = fresh_atoms(sym, avoid, count), _fresh_one_at_a_time(sym, avoid, count)
            assert got == want
            assert [type(a) for a in got] == [type(a) for a in want]

    def test_large_count(self):
        """Naturals fill the gaps of `avoid`; total-order atoms count up from its maximum."""
        assert fresh_atoms(EQ, Support.of(range(0, 40000, 2)), 20000) == list(range(1, 40000, 2))
        assert fresh_atoms(ORD, Support(), 20000)[-1] == Fraction(19999)


class TestFiniteMapLookup:
    def test_call_names_the_missing_atom(self):
        m = FiniteMap.of({0: 5, Fraction(1, 2): 1})
        for a in (3, Fraction(1, 3)):
            with pytest.raises(KeyError) as info:
                m(a)
            assert info.value.args == (a,)
        with pytest.raises(KeyError):
            FiniteMap()(0)

    def test_int_and_fraction_find_the_same_key(self):
        for key in (2, Fraction(2)):
            m = FiniteMap.of({0: 1, key: 7})
            assert m(2) == m(Fraction(2)) == m.get(2) == m.get(Fraction(2)) == 7

    def test_get_returns_its_default(self):
        m = FiniteMap.of({0: 5})
        assert m.get(0) == m.get(0, "d") == 5
        assert m.get(1) is None and m.get(1, "d") == "d"
        assert FiniteMap().get(0, 3) == 3


class TestEqualityBijectivity:
    @pytest.mark.parametrize("seed", range(6))
    def test_bijective_on_closed_sample(self, seed):
        rng = Random(seed)
        g = random_global(rng, EQ, pool_atoms(EQ, 7))
        sample = set(range(9))
        image = {apply(g, a) for a in sample}
        assert image == sample  # closed because moved points live below 7


class TestJson:
    @pytest.mark.parametrize("seed", range(6))
    @pytest.mark.parametrize("sym", [EQ, ORD, RN])
    def test_round_trip(self, sym, seed):
        g = random_global(Random(seed), sym, pool_atoms(sym, 6))
        assert global_map_from_json(global_map_to_json(g)) == g

    def test_rational_literals(self):
        g = pwl_map({Fraction(1, 2): Fraction(3, 2)})
        d = global_map_to_json(g)
        assert d == {"kind": "pwl", "entries": [["1/2", "3/2"]]}
